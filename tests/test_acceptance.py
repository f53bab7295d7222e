"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Sample sizes and tolerances are fixed here, not tuned elsewhere.
"""

from __future__ import annotations

import glob
import itertools
import random
import time
from pathlib import Path

from helpers import (
    at,
    cl,
    compose,
    inference_redundant,
    is_empty,
    rand_atom,
    rand_ground_atom,
    rand_ground_clause,
    rand_grounding,
    rand_term,
    rand_clause,
    ref_a_priori_resolvents,
    rule_system,
    serialize_problem,
    sig_ordering,
    tm,
    truth_table_satisfiable,
)
from satloc import (
    Clause,
    HerbrandBound,
    Limits,
    Ordering,
    entails,
    oracle_entails,
    parse_clause_text,
    parse_problem,
    parse_state,
    saturate,
    serialize_state,
    verify_saturated,
)
from satloc.entailment import clause_redundant, ground_sat
from satloc.resolution import is_a_posteriori
from satloc.rewriting import canonical_rule, reach, rules_of
from satloc.cli import main as cli_main
from satloc.terms import Atom, Fn, Var, atom_key, match_onto, mgu, substitute, vars_of

CORPUS = sorted(glob.glob(str(Path(__file__).parent / "corpus" / "*.p")))
# instantiation cap for the differential suite: depth-3 attempts on problems
# with binary function symbols bail out as unknown(budget) instead of
# materializing tens of thousands of ground clauses
ORACLE_BUDGET = 1500


def corpus_problems():
    for path in CORPUS:
        yield path, parse_problem(Path(path).read_text(encoding="utf-8"))


def test_criterion_1_worked_end_to_end():
    text = (Path(__file__).parent / "corpus" / "h00_worked.p").read_text(encoding="utf-8")
    problem = parse_problem(text)
    start = time.perf_counter()
    state = saturate(problem.ordering, problem.clauses)
    elapsed = time.perf_counter() - start
    assert elapsed <= 1.0
    assert state.status == "saturated"
    assert state.clauses == problem.clauses
    assert state.rules.rules == {canonical_rule(at("q(f(W),W)"), at("p(g(W,W))"))}
    assert state.stats.inferences_considered == 1
    assert state.stats.non_maximality == 1

    r1 = entails(state, cl("q(f(a),a) ->"))
    assert r1.verdict == "entailed"
    assert r1.certificate.atom_universe == frozenset({at("q(f(a),a)"), at("p(g(a,a))")})
    r2 = entails(state, cl("-> p(a)"))
    assert r2.verdict == "not-entailed"

    o1 = oracle_entails(problem.clauses, cl("q(f(a),a) ->"), HerbrandBound(2))
    assert o1.verdict == "entailed"
    for depth in range(3):
        o2 = oracle_entails(problem.clauses, cl("-> p(a)"), HerbrandBound(depth))
        assert o2.verdict != "entailed"
    print("ACCEPTANCE 1 PASS: worked example saturates and answers both queries")


def _nonposteriori_candidates(rng: random.Random):
    """Clause pairs biased toward a priori inferences that fail a posteriori."""
    consts = ["a", "b"]
    kind = rng.random()
    if kind < 0.4:
        # variable-merge template: unification orders previously incomparable atoms
        extra = rng.choice(["", f", r({rng.choice(consts)})", ", r(Z)"])
        c1 = parse_clause_text(f"-> p(g(W,W))")
        c2 = parse_clause_text(f"p(g(X,Y)), q(f(Y),X){extra} ->")
        return Ordering(["f", "g"] + consts), c1, c2
    if kind < 0.7:
        # collapse template: a sibling instance equals the resolved atom
        t = rng.choice(["a", "b", "f(a)", "f(b)", "f(f(a))", "g(a,b)"])
        extra = rng.choice(["", ", r(b)", ", s0"])
        c1 = parse_clause_text(f"-> p(X), p({t})")
        c2 = parse_clause_text(f"p({t}){extra} ->")
        return Ordering(["f", "g"] + consts), c1, c2
    return sig_ordering(rng), rand_clause(rng), rand_clause(rng)


def test_criterion_2_nonposteriori_redundancy():
    rng = random.Random(20260809)
    hits = 0
    tries = 0
    while hits < 200:
        tries += 1
        assert tries < 8000, f"only {hits} non-posteriori inferences found"
        ordering, c1, c2 = _nonposteriori_candidates(rng)
        for inf in ref_a_priori_resolvents(ordering, c1, c2):
            if is_a_posteriori(ordering, inf):
                continue
            hits += 1
            harvested = rules_of(ordering, inf.premise_instances)
            premises = [c1, c2]
            assert inference_redundant(premises, harvested, inf), str(inf)
            # the substantive content: the conclusion itself is locally provable
            assert clause_redundant(premises, harvested, inf.conclusion), str(inf)
    print(f"ACCEPTANCE 2 PASS: {hits} non-posteriori inferences all redundant")


def test_criterion_3_verifier_accepts_runs():
    assert len(CORPUS) >= 50
    checked = 0
    for path, problem in corpus_problems():
        state = saturate(problem.ordering, problem.clauses, Limits(max_clauses=40, max_steps=2500))
        assert state.status == "saturated", path
        report = verify_saturated(state.ordering, state.clauses, state.rules)
        assert report.ok, (path, report.violations)
        checked += 1
    print(f"ACCEPTANCE 3 PASS: verify ok on all {checked} terminating corpus runs")


def _ground_pool(problem) -> list:
    consts = [Fn(n) for n in problem.signature.constants()]
    if not consts:
        consts = [Fn("a")]
    unary = sorted(n for n, k in problem.signature.functions.items() if k == 1)
    pool = list(consts)
    for f in unary[:1]:
        pool += [Fn(f, (c,)) for c in consts]
    return pool


def _make_queries(problem, state, rng: random.Random):
    """>= 10 ground queries with entailed and non-entailed members by construction."""
    queries = []  # (clause, expectation) with expectation in {"entailed", "not-entailed", None}
    pool = _ground_pool(problem)
    with_vars = [c for c in problem.clauses if vars_of(c)] or problem.clauses
    for i in range(4):
        d = with_vars[i % len(with_vars)]
        theta = {v: rng.choice(pool) for v in vars_of(d)}
        queries.append((substitute(theta, d), "entailed"))
    if problem.clauses:
        first = problem.clauses[0]
        ground_atoms = sorted(
            substitute({v: pool[0] for v in vars_of(first)}, first).atom_set(), key=atom_key
        )
    else:
        ground_atoms = ()
    taut_atom = ground_atoms[0] if ground_atoms else Atom("p", (pool[0],))
    queries.append((Clause([taut_atom], [taut_atom]), "entailed"))
    consistent = not any(is_empty(c) for c in state.clauses)
    fresh_expect = "not-entailed" if consistent else None
    queries.append((cl("zzq(a) ->"), fresh_expect))
    queries.append((cl("-> zzq(a)"), fresh_expect))
    while len(queries) < 12:
        n_ant = rng.randint(0, 1)
        n_suc = rng.randint(0 if n_ant else 1, 1)
        preds = sorted(problem.signature.predicates.items())
        def mk():
            name, k = rng.choice(preds)
            return Atom(name, tuple(rng.choice(pool) for _ in range(k)))
        queries.append((Clause([mk() for _ in range(n_ant)], [mk() for _ in range(n_suc)]), None))
    return queries


def test_criterion_4_oracle_differential():
    rng = random.Random(31415)
    total = agreements = 0
    for path, problem in corpus_problems():
        state = saturate(problem.ordering, problem.clauses, Limits(max_clauses=40, max_steps=2500))
        assert state.status == "saturated", path
        queries = _make_queries(problem, state, rng)
        assert len(queries) >= 10
        for goal, expectation in queries:
            result = entails(state, goal)
            total += 1
            if expectation is not None:
                assert result.verdict == expectation, (path, str(goal), result.verdict)
            if result.verdict == "entailed":
                assert result.certificate is not None and result.certificate.validate()
            oracle_verdict = None
            for depth in range(4):
                o = oracle_entails(problem.clauses, goal, HerbrandBound(depth), budget=ORACLE_BUDGET)
                if o.verdict == "entailed":
                    oracle_verdict = "entailed"
                    break
            if oracle_verdict == "entailed":
                agreements += 1
                assert result.verdict == "entailed", (path, str(goal))
    assert total >= 10 * len(CORPUS)
    print(
        f"ACCEPTANCE 4 PASS: {total} queries over {len(CORPUS)} problems, "
        f"{agreements} oracle-conclusive, zero disagreements"
    )


def test_criterion_5_ordering_laws():
    rng = random.Random(271828)
    ordering = sig_ordering()
    for _ in range(10_000):
        s, t, u = rand_term(rng, 3), rand_term(rng, 3), rand_term(rng, 2)
        assert not ordering.lpo_greater(s, s)
        st = ordering.lpo_greater(s, t)
        if st:
            assert not ordering.lpo_greater(t, s)
            sigma = rand_grounding(rng, vars_of(s) | vars_of(t))
            assert ordering.lpo_greater(substitute(sigma, s), substitute(sigma, t))
        if st and ordering.lpo_greater(t, u):
            assert ordering.lpo_greater(s, u)
    from satloc.terms import subterms

    for _ in range(10_000):
        s = rand_term(rng, 3)
        if isinstance(s, Var):
            continue
        for sub in subterms(s):
            if sub != s:
                assert ordering.lpo_greater(s, sub)
    for _ in range(10_000):
        g1, g2 = rand_term(rng, 3, allow_vars=False), rand_term(rng, 3, allow_vars=False)
        if g1 != g2:
            assert ordering.lpo_greater(g1, g2) != ordering.lpo_greater(g2, g1)
    for _ in range(10_000):
        a, b, c = rand_atom(rng), rand_atom(rng), rand_atom(rng)
        assert not ordering.atom_greater(a, a)
        if ordering.atom_greater(a, b):
            assert vars_of(b) <= vars_of(a)
            sigma = rand_grounding(rng, vars_of(a))
            assert ordering.atom_greater(substitute(sigma, a), substitute(sigma, b))
            if ordering.atom_greater(b, c):
                assert ordering.atom_greater(a, c)
    print("ACCEPTANCE 5 PASS: LPO and atom ordering laws, 10^4 samples each, zero violations")


def test_criterion_6_reach_terminates_fast():
    rng = random.Random(1618)
    ordering = sig_ordering()
    for i in range(500):
        pairs = []
        tries = 0
        while len(pairs) < rng.randint(1, 5) and tries < 200:
            tries += 1
            a, b = rand_atom(rng), rand_atom(rng)
            if ordering.atom_greater(a, b):
                pairs.append((a, b))
        system = rule_system(ordering, pairs)
        start_atom = rand_ground_atom(rng)
        start = time.perf_counter()
        result = reach(system, start_atom)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1, f"sample {i}: reach took {elapsed:.3f}s"
        assert start_atom in result and len(result) < 100_000
    print("ACCEPTANCE 6 PASS: 500 reach computations, each finite within 100 ms")


def test_criterion_7_ground_sat_cross_check():
    rng = random.Random(6626)
    for i in range(1000):
        clauses = {rand_ground_clause(rng, depth=1) for _ in range(rng.randint(1, 6))}
        n_atoms = len({a for c in clauses for a in c.atom_set()})
        if n_atoms > 12:
            clauses = set(list(clauses)[:2])
        expected = truth_table_satisfiable(clauses)
        assert (ground_sat(clauses) is not None) == expected, f"sample {i}"
    print("ACCEPTANCE 7 PASS: DPLL agrees with truth tables on 1000 clause sets")


def _enum_space():
    terms = [tm("a"), tm("b")]
    for _ in range(2):
        terms += [Fn("f", (t,)) for t in terms if str(t).count("f") < 2]
    return sorted(set(terms), key=str)


def test_criterion_8_unification_laws():
    rng = random.Random(1729)
    space = _enum_space()
    unifiable_checked = 0
    while unifiable_checked < 1000:
        a1, a2 = rand_atom(rng, depth=2), rand_atom(rng, depth=2)
        sigma = mgu(a1, a2)
        if sigma is None:
            continue
        unifiable_checked += 1
        assert substitute(sigma, a1) == substitute(sigma, a2)
        both = sorted(vars_of(a1) | vars_of(a2), key=lambda v: v.name)
        if len(both) > 2:
            continue
        for values in itertools.product(space, repeat=len(both)):
            tau = dict(zip(both, values))
            if substitute(tau, a1) != substitute(tau, a2):
                continue
            theta: dict = {}
            ok = True
            for v in both:
                m = match_onto(substitute(theta, substitute(sigma, v)), tau.get(v, v))
                if m is None:
                    ok = False
                    break
                theta = compose(theta, m)
            assert ok, f"{tau} does not factor through {sigma}"
    for _ in range(200):
        v = Var("X")
        inner = Fn("f", (v,))
        assert mgu(Atom("p", (v,)), Atom("p", (inner,))) is None
        assert mgu(Atom("p", (v,)), Atom("p", (Fn("g", (inner, rand_term(rng, 1))),))) is None
    print("ACCEPTANCE 8 PASS: 1000 mgus unify and are most general; occurs checks reject")


def test_criterion_9_cli_round_trips(tmp_path):
    for path, problem in corpus_problems():
        assert parse_problem(serialize_problem(problem)) == problem
        name = Path(path).stem
        out1 = tmp_path / f"{name}.1.state"
        out2 = tmp_path / f"{name}.2.state"
        assert cli_main(["saturate", path, "--out", str(out1)]) == 0, path
        assert cli_main(["saturate", path, "--out", str(out2)]) == 0, path
        assert out1.read_bytes() == out2.read_bytes(), path
        state = parse_state(out1.read_text(encoding="utf-8"))
        assert serialize_state(state) == out1.read_text(encoding="utf-8"), path
    # strong determinism: separate processes with different hash seeds
    import os
    import subprocess
    import sys

    # the child processes import satloc from this checkout's src directory
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for sample in ("h00_worked.p", "g_horn_00.p", "g_mixed_03.p"):
        outputs = []
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
            proc = subprocess.run(
                [sys.executable, "-m", "satloc.cli", "saturate",
                 str(Path(__file__).parent / "corpus" / sample)],
                capture_output=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], sample
    print(f"ACCEPTANCE 9 PASS: round-trips and byte-identical re-runs on {len(CORPUS)} problems")
