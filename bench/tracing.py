"""Outside-in layer tracing for the benchmark.

Spans are recorded by rebinding the module attributes that satloc's own
callers look up.  `from .x import y` copies a binding into the importing
module, so each name is rebound in every module that calls it (wrapping
only the defining module would miss, say, the saturation loop's calls).
Methods are rebound on their class, which every module shares.

Spans are not kept one by one: each closes into per-(phase, layer) totals of
self time (span duration minus the time covered by its child spans) and
counts, which is all the per-layer metrics need.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.phase: str | None = None  # None: wrappers pass calls through
        self.totals: dict[str, float] = defaultdict(float)
        self._children: list[float] = []  # child time of each open span

    def add(self, key: str, value: float) -> None:
        self.totals[f"{self.phase}.{key}"] += value

    def wrap(self, layer: str, fn, on_result=None):
        """fn, recording self time under `<phase>.<layer>_s` while a phase is set.

        on_result(tracer, result) adds the layer's counts.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            children = self._children
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.add(f"{layer}_s", duration - children.pop())
                if children:
                    children[-1] += duration
            if on_result is not None:
                on_result(self, result)
            return result

        return traced


def _dpll(tracer: Tracer, result) -> None:
    tracer.add("entailment.dpll_calls", 1)


def _hits(name: str):
    def on_result(tracer: Tracer, result) -> None:
        tracer.add(f"{name}_calls", 1)
        tracer.add(f"{name}_hits", 1 if result else 0)

    return on_result


def _inferences(tracer: Tracer, result) -> None:
    tracer.add("resolution.generate_calls", 1)
    tracer.add("resolution.inferences", len(result))


def _instances(tracer: Tracer, result) -> None:
    tracer.add("entailment.instances", len(result))


def _universe(tracer: Tracer, result) -> None:
    tracer.add("rewriting.universe_atoms", len(result))


def _targets(m):
    """(owner, attribute, layer, on_result) for every traced call site.

    m maps satloc submodule names to the imported modules.
    """
    sat, ent, qry, par = m["saturation"], m["entailment"], m["query"], m["parsing"]
    return [
        # entry points the benchmark itself calls through the module
        (par, "parse_problem", "parsing.parse_problem", None),
        (par, "parse_state", "parsing.parse_state", None),
        (par, "serialize_state", "parsing.serialize_state", None),
        (par, "parse_clause_text", "parsing.parse_clause", None),
        (sat, "saturate", "saturation.loop", None),
        (sat, "verify_saturated", "saturation.verify", None),
        (qry, "entails", "query.entails", None),
        # saturation loop and verifier
        (sat, "a_priori_resolvents", "resolution.generate", _inferences),
        (sat, "a_priori_factors", "resolution.generate", _inferences),
        (sat, "is_a_posteriori", "resolution.a_posteriori", None),
        (sat, "subsumes", "entailment.subsumes", _hits("entailment.subsumes")),
        (sat, "clause_redundant", "entailment.redundancy", _hits("entailment.redundancy")),
        (sat, "rules_of", "rewriting.harvest", None),
        (sat.SaturationState, "add_clause", "saturation.add_clause", None),
        (m["rewriting"].RewriteSystem, "__or__", "rewriting.merge", None),
        # local proofs, inside the redundancy check and inside queries
        (ent, "reach_clause", "rewriting.reach", _universe),
        (ent, "decide_local", "entailment.decide", None),
        (ent, "enumerate_local_instances", "entailment.enumerate", _instances),
        (ent, "ground_sat", "entailment.dpll", _dpll),
        (qry, "reach_clause", "rewriting.reach", _universe),
        (qry, "decide_local", "entailment.decide", None),
    ]


class Installation:
    """The rebound attributes of one import of satloc; toggled per pass."""

    def __init__(self, tracer: Tracer, modules: dict) -> None:
        self._swaps = []
        for owner, attr, layer, on_result in _targets(modules):
            original = getattr(owner, attr)
            self._swaps.append((owner, attr, original, tracer.wrap(layer, original, on_result)))

    def install(self) -> None:
        for owner, attr, _, traced in self._swaps:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)
