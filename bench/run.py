#!/usr/bin/env python3
"""Benchmark the satloc pipeline: saturate, verify and query, in-process.

Run from the repository root:

    python3 bench/run.py --workload chain --seed 1 --seconds 30 --trace 0

For each workload the pipeline is the CLI's, called through the library:
`parse_problem`; `saturate` + `serialize_state`; `parse_state` +
`verify_saturated`; `parse_state`, then `parse_clause_text` + `entails` per
query.  One process, one thread, a closed loop with one client: the next
operation starts when the previous one returns.

The measured time is split between the three phases by the workload's
shares, in rounds (see Bench); saturate and verify report the median of
whole passes over the workload's inputs, queries the percentiles of all
query latencies, all scaled to reference seconds (calibration.py).  Every
output of every pass is checked against a reference that does not use
satloc's decision procedure; each operation is counted once in `attempted`
and `failed`, however many passes repeat it.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(see tracing.py).  The last line of stdout is one JSON object.  `--smoke`
runs each workload at a tiny size, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibration
import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
SATLOC_MODULES = [
    "terms", "orderings", "rewriting", "resolution", "entailment",
    "saturation", "parsing", "query", "oracle", "cli",
]  # fmt: skip

SETUP_REPEATS = 11
ROUND_S = 1.0  # one round of the three phases; a calibration timing ends each slice
MIN_QUERIES = 100  # untraced, so that p90 has 10 samples beyond it
ORACLE_DEPTH = 0  # Herbrand terms: constants plus the query's own subterms
LIMITS = {"max_clauses": 400, "max_steps": 40000}

# Share of --seconds given to the saturate, verify and query phases.
SHARES = {
    "chain": (0.4, 0.4, 0.2),
    "growth": (0.05, 0.05, 0.9),
    "guarded_mix": (0.4, 0.4, 0.2),
    "ground_mix": (0.4, 0.4, 0.2),
}
SMOKE_SIZES = {
    "chain": {"n": 4, "repeats": 1},
    "growth": {"per_kind": 3, "hi": 16},
    "guarded_mix": {"problems": 3, "clauses": 5, "queries": 3},
    "ground_mix": {"problems": 3, "clauses": 6, "queries": 6},
}

END_TO_END = [
    ("setup_s", "s"),
    ("saturate_s", "s"),
    ("verify_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
]

_LOCAL_PROOF = [
    "entailment.redundancy_s", "entailment.redundancy_calls",
    "entailment.redundancy_hit_ratio", "entailment.decide_s",
    "entailment.enumerate_s", "entailment.instances",
    "entailment.dpll_s", "entailment.dpll_calls",
    "rewriting.harvest_s", "rewriting.merge_s",
    "rewriting.reach_s", "rewriting.universe_atoms",
]  # fmt: skip
STATS = ["items", "non_maximality", "discovered", "clauses", "rules"]
PER_LAYER = (
    ["setup.parsing.parse_problem_s", "setup.parsing.parse_state_s"]
    + ["saturate.parsing.serialize_state_s", "saturate.saturation.loop_s"]
    + ["saturate.saturation.add_clause_s", "saturate.saturation.inference_yield"]
    + [f"saturate.saturation.{s}" for s in STATS]
    + ["saturate.resolution.generate_s", "saturate.resolution.generate_calls"]
    + ["saturate.resolution.inferences", "saturate.resolution.a_posteriori_s"]
    + ["saturate.entailment.subsumes_s", "saturate.entailment.subsumes_calls"]
    + ["saturate.entailment.subsumes_hit_ratio"]
    + [f"saturate.{m}" for m in _LOCAL_PROOF]
    + ["saturate.trace.overhead_frac"]
    + ["verify.parsing.parse_state_s", "verify.saturation.verify_s"]
    + ["verify.resolution.generate_s", "verify.resolution.generate_calls"]
    + ["verify.resolution.inferences", "verify.resolution.a_posteriori_s"]
    + [f"verify.{m}" for m in _LOCAL_PROOF]
    + ["verify.trace.overhead_frac"]
    + ["query.parsing.parse_clause_s", "query.query.entails_s"]
    + ["query.entailment.decide_s", "query.entailment.enumerate_s"]
    + ["query.entailment.instances", "query.entailment.dpll_s"]
    + ["query.entailment.dpll_calls", "query.rewriting.reach_s"]
    + ["query.rewriting.universe_atoms", "query.trace.overhead_frac"]
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "_yield")):
        return "frac"
    return "count"


def import_satloc() -> dict:
    """Import satloc afresh from the checkout's src/; module name -> module."""
    for name in [m for m in sys.modules if m == "satloc" or m.startswith("satloc.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"satloc.{name}") for name in SATLOC_MODULES}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: satloc was not imported from {SRC}")
    return modules


class Ledger:
    """Operations attempted once each, and the ones that failed, by reason."""

    WRONG = {"verify_rejected", "wrong_verdict", "bad_certificate", "nondeterministic"}

    def __init__(self) -> None:
        self.ops: set = set()
        self.failures: dict = {}  # op -> reason of its first failure
        self.checked = 0  # verdicts compared with a reference
        self.unknown = 0  # verdicts the oracle could not settle
        self.validated = 0  # distinct certificates re-validated
        self.repeats = 0  # certificates equal to one validated before

    def attempt(self, op) -> None:
        self.ops.add(op)

    def fail(self, op, reason: str) -> None:
        self.failures.setdefault(op, reason)

    def reasons(self) -> dict:
        out: dict = {}
        for reason in self.failures.values():
            out[reason] = out.get(reason, 0) + 1
        return out

    @property
    def correct(self) -> bool:
        return not any(r in self.WRONG for r in self.failures.values())


def references(m: dict, wl: workloads.Workload) -> list[list[str | None]]:
    """Expected verdict per query: by construction, else the bounded oracle.

    The oracle is sound, so its "entailed" binds satloc; its "unknown"
    leaves the query unchecked (None).
    """
    parsing, oracle = m["parsing"], m["oracle"]
    out = []
    for p in wl.problems:
        problem = parsing.parse_problem(p.text)
        refs = []
        for q in p.queries:
            if q.expected is not None:
                refs.append(q.expected)
                continue
            goal = parsing.parse_clause_text(q.text, problem.signature)
            bound = oracle.HerbrandBound(ORACLE_DEPTH)
            result = oracle.oracle_entails(problem.clauses, goal, bound)
            refs.append(workloads.ENTAILED if result.verdict == oracle.ENTAILED else None)
        out.append(refs)
    return out


class Bench:
    """One run: set-up, then rounds of saturate, verify and query passes.

    Each round gives every phase its share of the round, and at least one
    pass (one query, for the query phase, which walks the query list
    cyclically).  Rounds spread each phase's samples over the whole run, so
    a slow spell of the machine touches every metric a little rather than
    one metric a lot.  Rounds go on until the run's seconds have passed and
    MIN_QUERIES are timed; then the current query cycle is finished, so
    latencies cover whole cycles.
    """

    def __init__(self, wl, refs, seconds: float, traced: bool) -> None:
        self.wl = wl
        self.refs = refs
        self.seconds = seconds
        self.ledger = Ledger()
        self.tracer = tracing.Tracer() if traced else None
        self.queries = [(k, j, q) for k, p in enumerate(wl.problems) for j, q in enumerate(p.queries)]
        self.times: dict[str, list[float]] = {"saturate": [], "verify": []}
        self.traced_times: dict[str, list[float]] = {"saturate": [], "verify": []}
        self.latencies: list[float] = []  # untraced queries
        self.traced_latencies: list[float] = []
        self.queries_done = 0
        self.first: dict = {}  # op -> output of its first run
        self.valid_certificates: dict = {}  # op -> hashes of validated certificates
        self.states = None
        self.stats_totals = dict.fromkeys(STATS + ["inferences"], 0)
        self.speed = calibration.Speed()
        self.slices: list[tuple] = []  # (phase, first sample, end, loop timing index)

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> list:
        """Import satloc and parse every problem, SETUP_REPEATS times.

        Returns (seconds, loop timing index) per repetition."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            self.m = import_satloc()
            if self.tracer is not None:
                self.installation = tracing.Installation(self.tracer, self.m)
                self._set_tracing("setup")
            parse = self.m["parsing"].parse_problem
            self.problems = [parse(p.text) for p in self.wl.problems]
            elapsed = perf_counter() - start
            self._set_tracing(None)
            times.append((elapsed, self.speed.sample()))
        return times

    def query_setup(self) -> list:
        """Parse every saturated state for querying, SETUP_REPEATS times.

        Returns (seconds, loop timing index) per repetition."""
        parsing, cli = self.m["parsing"], self.m["cli"]
        times = []
        for _ in range(SETUP_REPEATS):
            self._set_tracing("setup")
            start = perf_counter()
            states = []
            for text in self.state_texts:
                state = None if text is None else parsing.parse_state(text)
                states.append((state, None if state is None else cli.state_signature(state)))
            elapsed = perf_counter() - start
            self._set_tracing(None)
            times.append((elapsed, self.speed.sample()))
        self.states = states
        return times

    # -- passes ---------------------------------------------------------------

    def _set_tracing(self, phase: str | None) -> None:
        if self.tracer is None:
            return
        if phase is None:
            self.tracer.phase = None
            self.installation.uninstall()
        else:
            self.installation.install()
            self.tracer.phase = phase

    def _trace_next(self, phase: str) -> bool:
        """Traced runs alternate untraced and traced passes of each phase, so
        the tracing overhead is measured in the same process on the same inputs."""
        return self.tracer is not None and len(self.traced_times[phase]) < len(self.times[phase])

    def _same(self, op, output) -> None:
        """A repeated operation must give its first output again."""
        if self.first.setdefault(op, output) != output:
            self.ledger.fail(op, "nondeterministic")

    def saturate_pass(self) -> None:
        sat, parsing = self.m["saturation"], self.m["parsing"]
        limits = sat.Limits(**LIMITS)
        traced = self._trace_next("saturate")
        self._set_tracing("saturate" if traced else None)
        total = 0.0
        texts = []
        for k, problem in enumerate(self.problems):
            op = ("saturate", k)
            self.ledger.attempt(op)
            start = perf_counter()
            try:
                state = sat.saturate(problem.ordering, problem.clauses, limits)
                text = parsing.serialize_state(state)
            except Exception as exc:  # a crash is a counted failure, not the end of the run
                total += perf_counter() - start
                self.ledger.fail(op, f"exception: {type(exc).__name__}")
                texts.append(None)
                continue
            total += perf_counter() - start
            if state.status != sat.SATURATED:
                self.ledger.fail(op, "limit")
            if traced:
                self._add_stats(state)
            self._same(op, text)
            texts.append(text)
        self._set_tracing(None)
        (self.traced_times if traced else self.times)["saturate"].append(total)
        if not hasattr(self, "state_texts"):
            self.state_texts = texts

    def _add_stats(self, state) -> None:
        st, t = state.stats, self.stats_totals
        t["items"] += st.items_processed
        t["inferences"] += st.inferences_considered
        t["non_maximality"] += st.non_maximality
        t["discovered"] += st.discovered
        t["clauses"] += len(state.clauses)
        t["rules"] += len(state.rules)

    def verify_pass(self) -> None:
        sat, parsing = self.m["saturation"], self.m["parsing"]
        traced = self._trace_next("verify")
        self._set_tracing("verify" if traced else None)
        total = 0.0
        for k, text in enumerate(self.state_texts):
            op = ("verify", k)
            self.ledger.attempt(op)
            if text is None:
                self.ledger.fail(op, "no state")
                continue
            start = perf_counter()
            try:
                state = parsing.parse_state(text)
                report = sat.verify_saturated(state.ordering, state.clauses, state.rules)
            except Exception as exc:
                total += perf_counter() - start
                self.ledger.fail(op, f"exception: {type(exc).__name__}")
                continue
            total += perf_counter() - start
            if state.status == sat.SATURATED and not report.ok:
                self.ledger.fail(op, "verify_rejected")
            self._same(op, tuple(report.violations))
        self._set_tracing(None)
        (self.traced_times if traced else self.times)["verify"].append(total)

    def query_step(self) -> None:
        """One query: the next one in the cyclic walk over the query list.

        Traced runs trace every other query and swap parity each cycle, so
        two cycles time every query both ways.
        """
        if self.states is None:
            self.query_setup_times = self.query_setup()
        parsing, query = self.m["parsing"], self.m["query"]
        cycle, i = divmod(self.queries_done, len(self.queries))
        self.queries_done += 1
        k, j, q = self.queries[i]
        op = ("query", k, j)
        self.ledger.attempt(op)
        state, sig = self.states[k]
        if state is None:
            self.ledger.fail(op, "no state")
            return
        traced = self.tracer is not None and (i + cycle) % 2 == 1
        self._set_tracing("query" if traced else None)
        start = perf_counter()
        try:
            goal = parsing.parse_clause_text(q.text, sig)
            result = query.entails(state, goal)
        except Exception as exc:
            self.ledger.fail(op, f"exception: {type(exc).__name__}")
            return
        finally:
            elapsed = perf_counter() - start
            self._set_tracing(None)
            (self.traced_latencies if traced else self.latencies).append(elapsed)
        self._check_query(op, self.refs[k][j], result, query.ENTAILED)
        self._same(op, result.verdict)

    def _check_query(self, op, expected, result, entailed: str) -> None:
        if expected is None:
            self.ledger.unknown += 1
        else:
            self.ledger.checked += 1
            if result.verdict != expected:
                self.ledger.fail(op, "wrong_verdict")
        if result.verdict != entailed:
            return
        cert = result.certificate
        if cert is None:
            self.ledger.fail(op, "bad_certificate")
            return
        # Repeats of a query give the same certificate: validate each distinct
        # one once (DPLL again), and recognise repeats by a hash of its sets.
        digest = hash((cert.atom_universe, cert.instances, cert.negated_goal))
        if digest in self.valid_certificates.get(op, ()):
            self.ledger.repeats += 1
            return
        self.ledger.validated += 1
        if cert.validate():
            self.valid_certificates.setdefault(op, set()).add(digest)
        else:
            self.ledger.fail(op, "bad_certificate")

    # -- the run ----------------------------------------------------------------

    def _raw(self, phase: str) -> list[float]:
        return self.latencies if phase == "query" else self.times[phase]

    def _slice(self, phase: str, step, seconds: float) -> None:
        """Run the step for the given time, at least once; then time the
        calibration loop, so its timings follow the machine through the run."""
        first = len(self._raw(phase))
        until = perf_counter() + seconds
        step()
        while perf_counter() < until:
            step()
        timing = self.speed.sample()
        self.slices.append((phase, first, len(self._raw(phase)), timing))

    def _median_scaled(self, times) -> float:
        return statistics.median(t * self.speed.factor(timing) for t, timing in times)

    def scaled(self, phase: str) -> list[float]:
        """The phase's untraced times in reference seconds (calibration.py)."""
        raw = self._raw(phase)
        out = []
        for ph, first, end, timing in self.slices:
            if ph == phase:
                factor = self.speed.factor(timing)
                out += [t * factor for t in raw[first:end]]
        return out

    def run(self, shares) -> dict:
        setup_times = self.setup()
        need = 1 if self.tracer is None else 2  # passes: untraced (and traced)
        steps = [
            ("saturate", self.saturate_pass),
            ("verify", self.verify_pass),
            ("query", self.query_step),
        ]
        start = perf_counter()
        while True:
            for (phase, step), share in zip(steps, shares):
                self._slice(phase, step, share * ROUND_S)
            passes = [len(self.times[p]) + len(self.traced_times[p]) for p in self.times]
            if (
                perf_counter() - start >= self.seconds
                and min(passes) >= need
                and (self.tracer is not None or len(self.latencies) >= MIN_QUERIES)
            ):
                break
        cycle = need * len(self.queries)
        if self.queries_done % cycle:
            left = cycle - self.queries_done % cycle
            self._slice("query", lambda: [self.query_step() for _ in range(left)], 0)
        if self.tracer is not None:
            return self.layer_metrics()
        lat = self.scaled("query")
        ledger = self.ledger
        return {
            "setup_s": self._median_scaled(setup_times)
            + self._median_scaled(self.query_setup_times),
            "saturate_s": statistics.median(self.scaled("saturate")),
            "verify_s": statistics.median(self.scaled("verify")),
            "query_p50_ms": 1000 * statistics.median(lat),
            "query_p90_ms": 1000 * statistics.quantiles(lat, n=10, method="inclusive")[8],
            "queries_per_s": len(lat) / sum(lat),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1 - len(ledger.failures) / len(ledger.ops),
        }

    def layer_metrics(self) -> dict:
        """Per-layer totals per pass (per query cycle, for the query phase)."""
        totals = self.tracer.totals
        runs = {
            "setup": SETUP_REPEATS,
            "saturate": len(self.traced_times["saturate"]),
            "verify": len(self.traced_times["verify"]),
            "query": len(self.traced_latencies) / len(self.queries),
        }
        out = {key: value / runs[key.split(".", 1)[0]] for key, value in totals.items()}
        for name, value in self.stats_totals.items():
            out[f"saturate.saturation.{name}"] = value / runs["saturate"]
        for phase in ("saturate", "verify"):
            for check in ("subsumes", "redundancy"):
                calls = totals.get(f"{phase}.entailment.{check}_calls", 0)
                hits = totals.get(f"{phase}.entailment.{check}_hits", 0)
                out[f"{phase}.entailment.{check}_hit_ratio"] = hits / calls if calls else 0.0
            out[f"{phase}.trace.overhead_frac"] = (
                statistics.median(self.traced_times[phase]) / statistics.median(self.times[phase]) - 1
            )
        items = out["saturate.saturation.items"]
        out["saturate.saturation.inference_yield"] = (
            out["saturate.saturation.inferences"] / items if items else 0.0
        )
        out["query.trace.overhead_frac"] = sum(self.traced_latencies) / sum(self.latencies) - 1
        return {name: out.get(name, 0.0) for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "satloc" / "__init__.py").is_file():
        print(f"error: no satloc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    sizes = SMOKE_SIZES[args.workload] if args.smoke else {}
    wl = workloads.GENERATORS[args.workload](args.seed, **sizes)
    refs = references(import_satloc(), wl)  # also compiles the bytecode once
    bench = Bench(wl, refs, args.seconds, traced=bool(args.trace))
    metrics = bench.run(SHARES[args.workload])

    ledger = bench.ledger
    units = dict(END_TO_END) if not args.trace else {n: layer_unit(n) for n in PER_LAYER}
    print(
        f"workload {wl.name} seed {args.seed}: {len(wl.problems)} problems,"
        f" {wl.query_count()} queries, trace {args.trace}"
    )
    print(
        f"operations: attempted {len(ledger.ops)}, failed {len(ledger.failures)}"
        f" (failed_frac {len(ledger.failures) / len(ledger.ops):.4f}) {ledger.reasons()}"
    )
    print(
        f"references: {ledger.checked} verdicts checked, {ledger.unknown} left unknown"
        f" by the oracle, {ledger.validated} certificates validated"
        f" ({ledger.repeats} more equal to a validated one)"
    )
    for phase, times in bench.times.items():
        print(f"passes: {phase} {len(times)} untraced, {len(bench.traced_times[phase])} traced")
    print(f"queries: {len(bench.latencies)} untraced, {len(bench.traced_latencies)} traced")
    timings = bench.speed.timings
    factors = [bench.speed.factor(timing) for *_, timing in bench.slices]
    print(
        f"calibration: {len(timings)} loop timings, median {statistics.median(timings):.6f} s"
        f" (min {min(timings):.6f}, max {max(timings):.6f}), slice factors median"
        f" {statistics.median(factors):.4f}; raw medians: saturate"
        f" {statistics.median(bench.times['saturate']):.6f} s,"
        f" verify {statistics.median(bench.times['verify']):.6f} s,"
        f" query {1000 * statistics.median(bench.latencies):.6f} ms"
    )
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6f} {units[name]}")
    print(
        json.dumps(
            {
                "correct": ledger.correct,
                "attempted": len(ledger.ops),
                "failed": len(ledger.failures),
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
