"""Saturation loop behaviour, limits, and the saturatedness verifier."""

import dataclasses
import random
from pathlib import Path

import pytest

import make_corpus
from helpers import at, bench_workloads, cl, sig_ordering, variant_equal
from satloc import (
    Clause,
    Limits,
    Ordering,
    RewriteSystem,
    parse_problem,
    saturate,
    serialize_state,
    verify_saturated,
)
from satloc.entailment import subsumes
from satloc.rewriting import canonical_rule, rules_of
from satloc.saturation import ClauseIndex

WORKED = "order: f > g > a\nclause: -> p(g(W,W))\nclause: p(g(X,Y)), q(f(Y),X) ->\n"


def test_worked_example_trace():
    problem = parse_problem(WORKED)
    state = saturate(problem.ordering, problem.clauses)
    assert state.status == "saturated"
    assert state.clauses == problem.clauses
    assert state.rules.rules == {canonical_rule(at("q(f(W),W)"), at("p(g(W,W))"))}
    assert state.stats.inferences_considered == 1
    assert state.stats.non_maximality == 1
    assert state.stats.discovered == 0


def test_saturate_no_inferences():
    o = Ordering(["a"])
    state = saturate(o, [cl("-> p(a)")])
    assert state.status == "saturated"
    assert state.clauses == [cl("-> p(a)")]
    assert len(state.rules) == 0
    assert state.stats.inferences_considered == 0


def test_saturate_discovers_empty_clause():
    state = saturate(Ordering([]), [cl("-> p(X)"), cl("p(X) ->")])
    assert state.status == "saturated"
    assert Clause() in state.clauses
    assert state.stats.discovered == 1


def test_input_deduplicated_modulo_renaming():
    state = saturate(Ordering([]), [cl("p(X) -> q(X,X)"), cl("p(Y) -> q(Y,Y)")])
    assert len(state.clauses) == 1


def test_variant_equal():
    assert variant_equal(cl("p(X) -> q(X,X)"), cl("p(Y) -> q(Y,Y)"))
    assert not variant_equal(cl("p(X) -> q(X,Y)"), cl("p(X) -> q(X,X)"))
    assert not variant_equal(cl("-> p(X)"), cl("-> p(a)"))
    # collapse maps alone must not count as variance
    assert not variant_equal(cl("-> q(X,X), q(X,Y)"), cl("-> q(X,X), q(Y,X)"))


DISJ = "order: a > b\nclause: -> p(a), q(a)\nclause: p(X) -> q(X)\nclause: q(X) -> q(X)\n"


def test_limits_reached():
    # the limits are checked before each inference: a run stops with
    # "limit_reached" only if an inference is left unconsidered
    problem = parse_problem("clause: -> p(X)\nclause: p(X) ->")
    state = saturate(problem.ordering, problem.clauses, Limits(max_steps=0))
    assert state.status == "limit_reached"
    assert state.stats.inferences_considered == 0
    # the empty clause, discovered while 2 clauses are live, deletes both,
    # and no inference is left: the run is complete
    state2 = saturate(problem.ordering, problem.clauses, Limits(max_clauses=2))
    assert state2.status == "saturated"
    assert serialize_state(state2) == serialize_state(saturate(problem.ordering, problem.clauses))
    state3 = saturate(problem.ordering, problem.clauses, Limits(max_clauses=50, max_steps=50))
    assert state3.status == "saturated"
    # -> q(a), discovered while 3 clauses are live, with inferences left
    disj = parse_problem(DISJ)
    state4 = saturate(disj.ordering, disj.clauses, Limits(max_clauses=3))
    assert state4.status == "limit_reached"
    assert state4.stats.inferences_considered == 1
    # max_steps is exact: the run stops inside a pair of live clauses
    text = (Path(__file__).parent / "corpus" / "g_mixed_01.p").read_text(encoding="utf-8")
    mixed = parse_problem(text)
    state5 = saturate(mixed.ordering, mixed.clauses, Limits(max_steps=2))
    assert state5.status == "limit_reached"
    assert state5.stats.inferences_considered == 2


def test_step_limits_report_saturated_exactly_when_the_run_is_complete():
    # For every step limit and every clause limit up to one past the
    # unlimited run's count, a run is "saturated" exactly when its state
    # (header aside) and its counters are the unlimited run's, and it
    # considers no more than max_steps inferences.  A loop that stopped
    # right after a discovery stored while max_clauses were live reported
    # 28 complete clause-limit runs as limits, as g_ground_08 at 0 clauses;
    # one that checked max_steps before each pair of live clauses overshot
    # it in 11 step-limit runs, as g_mixed_01 at 2 steps.
    runs = 0
    for path in sorted(make_corpus.CORPUS.glob("*.p")):
        problem = parse_problem(path.read_text(encoding="utf-8"))
        full = saturate(problem.ordering, problem.clauses)
        body = serialize_state(full).split("\n", 1)[1]
        limits = [Limits(max_steps=m) for m in range(full.stats.inferences_considered + 2)]
        limits += [Limits(max_clauses=m) for m in range(len(full.clauses) + 2)]
        for lim in limits:
            state = saturate(problem.ordering, problem.clauses, lim)
            complete = serialize_state(state).split("\n", 1)[1] == body and state.stats == full.stats
            assert (state.status == "saturated") == complete, (path.name, lim)
            if lim.max_steps is not None:
                assert state.stats.inferences_considered <= lim.max_steps, (path.name, lim)
            runs += 1
    assert runs == 656


def test_limits_are_frozen():
    # saturate's default Limits() is one instance that every call shares
    with pytest.raises(dataclasses.FrozenInstanceError):
        Limits().max_steps = 1


def test_monotone_growth_and_rule_containment():
    rng = random.Random(107)
    from helpers import rand_clause

    for _ in range(20):
        clauses = [rand_clause(rng, depth=1) for _ in range(rng.randint(1, 3))]
        ordering = sig_ordering()
        state = saturate(ordering, clauses, Limits(max_clauses=25, max_steps=400))
        for c in clauses:
            assert any(subsumes(d, c) for d in state.clauses)
        assert rules_of(ordering, state.clauses).rules <= state.rules.rules


def test_determinism_byte_identical():
    problem = parse_problem(WORKED)
    a = serialize_state(saturate(problem.ordering, problem.clauses))
    b = serialize_state(saturate(problem.ordering, problem.clauses))
    assert a == b


def test_tautologies_never_discover():
    # tautology premises only ever harvest rules or get classified redundant
    o = Ordering(["f", "a", "b"])
    clauses = [cl("p(f(X)), q(a) -> p(f(X))"), cl("p(f(a)) ->"), cl("-> q(a)")]
    state = saturate(o, clauses)
    assert state.status == "saturated"
    assert state.stats.discovered == 0
    report = verify_saturated(o, state.clauses, state.rules)
    assert report.ok, report.violations


def test_verify_examples(monkeypatch):
    # a missing empty clause violates condition 1
    report = verify_saturated(Ordering([]), [cl("-> p(X)"), cl("p(X) ->")], RewriteSystem())
    assert not report.ok
    assert any("condition 1" in v for v in report.violations)

    # verify reads the rules that the clauses give in: none is missing
    problem = parse_problem("order: f > g\nclause: p(g(W,W)), q(f(W),W) ->")
    assert len(rules_of(problem.ordering, problem.clauses)) == 1
    report2 = verify_saturated(problem.ordering, problem.clauses, RewriteSystem())
    assert report2.ok, report2.violations

    # condition 3: a non-posteriori inference whose harvested rules are
    # absent.  Like the loop, verify runs no redundancy test on it, so the
    # missing rule is reported once, not also as a condition-1 line.
    redundancy_calls = 0
    redundancy = ClauseIndex.redundancy

    def counted(index, rules, c):
        nonlocal redundancy_calls
        redundancy_calls += 1
        return redundancy(index, rules, c)

    monkeypatch.setattr(ClauseIndex, "redundancy", counted)
    worked = parse_problem(WORKED)
    report3 = verify_saturated(worked.ordering, worked.clauses, RewriteSystem())
    assert len(report3.violations) == 1, report3.violations
    assert report3.violations[0].startswith("condition 3: missing rule q(f(V0),V0) -> p(g(V0,V0))")
    assert redundancy_calls == 0


def test_verify_accepts_saturate_output():
    rng = random.Random(109)
    from helpers import rand_clause

    for _ in range(15):
        clauses = [rand_clause(rng, depth=1) for _ in range(rng.randint(1, 3))]
        ordering = sig_ordering()
        state = saturate(ordering, clauses, Limits(max_clauses=25, max_steps=400))
        if state.status != "saturated":
            continue
        report = verify_saturated(ordering, state.clauses, state.rules)
        assert report.ok, (clauses, report.violations)


SUBSUMES_REPRO = """\
order: g > f > a > b
clause: -> p3(b)
clause: -> p4(a)
clause: p1(f(X)) -> p3(X)
clause: p3(X), q(X,Y) -> r(g(X,Y))
clause: p2(X) -> p0(f(X))
clause: p4(X), q(X,Y) -> r(g(X,Y))
clause: p1(X) -> p2(X), p2(X)
clause: p3(X), p3(X) -> p4(X)
clause: p0(X), p1(X) -> p3(X)
clause: p3(X), p1(X) -> p3(X)
"""


def test_forward_subsumption_keeps_unsubsumed_resolvent():
    # p1(f(X)) -> p3(X) does not subsume p1(f(X)), p2(X) -> p3(f(X)); a
    # subsumption check that binds the target's X dropped that resolvent,
    # leaving a state verify rejects and a wrong not-entailed below
    from satloc import entails

    problem = parse_problem(SUBSUMES_REPRO)
    state = saturate(problem.ordering, problem.clauses)
    assert state.status == "saturated"
    report = verify_saturated(problem.ordering, state.clauses, state.rules)
    assert report.ok, report.violations
    assert entails(state, cl("p1(f(b)), p2(b) -> p3(f(b))")).verdict == "entailed"


def test_a_stored_clause_deletes_the_clauses_it_subsumes():
    # q(X) -> p(f(Y)), p(f(a)) subsumes q(b) -> p(f(a)) by X -> b, Y -> a,
    # although it has more succedent atoms and more occurrences of f: a
    # prefilter on atom or symbol counts would keep both
    general, special = cl("q(X) -> p(f(Y)), p(f(a))"), cl("q(b) -> p(f(a))")
    for clauses, deleted in (([special, general], 1), ([general, special], 0)):
        state = saturate(Ordering(["f", "a", "b"]), clauses)
        assert state.status == "saturated"
        assert state.clauses == [general]
        assert state.stats.deleted == deleted
        assert rules_of(state.ordering, clauses).rules <= state.rules.rules


def test_a_limit_reached_state_holds_live_clauses_only():
    # -> q(a) deletes -> p(a), q(a) as the clause limit stops the loop
    problem = parse_problem(DISJ)
    state = saturate(problem.ordering, problem.clauses, Limits(max_clauses=3))
    assert state.status == "limit_reached"
    assert [str(c) for c in state.clauses] == ["p(X) -> q(X)", "q(X) -> q(X)", "-> q(a)"]
    assert state.stats.deleted == 1
    # step limits cut runs that deleted clauses at every point
    cut = 0
    for path in sorted((Path(__file__).parent / "corpus").glob("*.p")):
        problem = parse_problem(path.read_text(encoding="utf-8"))
        full = saturate(problem.ordering, problem.clauses)
        if not full.stats.deleted:
            continue
        for steps in range(full.stats.inferences_considered):
            state = saturate(problem.ordering, problem.clauses, Limits(max_steps=steps))
            assert state.clauses == [d.clause for d in state.index.live.values()]
            assert not any(
                subsumes(d, c) for d in state.clauses for c in state.clauses if c is not d
            )
            cut += state.status == "limit_reached" and state.stats.deleted > 0
    assert cut > 20, cut


def test_states_keep_only_clauses_no_other_clause_subsumes():
    problems = [
        (parse_problem(path.read_text(encoding="utf-8")), Limits())
        for path in sorted((Path(__file__).parent / "corpus").glob("*.p"))
    ]
    rng = random.Random(23)
    families = [gen for _, gen, _ in make_corpus.FAMILIES]
    problems += [
        (parse_problem(families[k % len(families)](rng)), make_corpus.CURATION_LIMITS)
        for k in range(200)
    ]
    workloads = bench_workloads()
    for generate in workloads.GENERATORS.values():
        problems += [
            (parse_problem(p.text), Limits(max_clauses=400, max_steps=40000))
            for p in generate(1).problems
        ]
    deleted = 0
    for problem, limits in problems:
        state = saturate(problem.ordering, problem.clauses, limits)
        assert state.status == "saturated"
        for d in state.clauses:
            assert not any(subsumes(d, c) for c in state.clauses if c is not d), str(d)
        for c in problem.clauses:
            assert any(subsumes(d, c) for d in state.clauses), str(c)
        report = verify_saturated(state.ordering, state.clauses, state.rules)
        assert report.ok, report.violations
        deleted += state.stats.deleted
    assert deleted > 300, deleted
