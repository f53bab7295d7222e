"""Entailment queries against saturated states."""

import functools
from pathlib import Path

import pytest

from helpers import at, cl
from satloc import (
    Clause,
    HerbrandBound,
    Limits,
    NotSaturatedError,
    entails,
    oracle_entails,
    parse_problem,
    saturate,
)
from satloc import terms
from satloc.entailment import clause_redundant

WORKED = "order: f > g > a\nclause: -> p(g(W,W))\nclause: p(g(X,Y)), q(f(Y),X) ->\n"


def worked_state():
    problem = parse_problem(WORKED)
    return saturate(problem.ordering, problem.clauses)


def test_worked_queries():
    state = worked_state()
    r1 = entails(state, cl("q(f(a),a) ->"))
    assert r1.verdict == "entailed"
    assert r1.certificate is not None and r1.certificate.validate()
    assert r1.certificate.atom_universe == frozenset({at("q(f(a),a)"), at("p(g(a,a))")})
    assert r1.universe_size == 2

    r2 = entails(state, cl("-> p(a)"))
    assert r2.verdict == "not-entailed"
    assert r2.certificate is None
    assert r2.universe_size == 1


def test_tautology_always_entailed():
    state = worked_state()
    r = entails(state, cl("r(b) -> r(b)"))
    assert r.verdict == "entailed"


def test_query_with_new_constants():
    # constants unseen at saturation time are fine: no ordering is consulted
    state = worked_state()
    r = entails(state, cl("q(f(zz),zz) ->"))
    assert r.verdict == "entailed"


def test_nonground_query_is_decided_on_its_frozen_instance():
    # a variable is read universally: "-> p(X)" claims p of every term
    state = worked_state()
    assert entails(state, cl("-> p(X)")).verdict == "not-entailed"
    assert entails(state, cl("-> p(g(Y,Y))")).verdict == "entailed"
    assert entails(state, cl("-> p(g(X,Y))")).verdict == "not-entailed"
    r = entails(state, cl("q(f(X),X) ->"))
    assert r.verdict == "entailed" and r.certificate.validate()
    c1 = terms.frozen_constant(1)
    goal = terms.Atom("q", (terms.Fn("f", (c1,)), c1))
    assert r.certificate.negated_goal == frozenset({Clause((), (goal,))})


def test_unsaturated_refused_and_escape_hatch():
    problem = parse_problem(WORKED)
    state = saturate(problem.ordering, problem.clauses, Limits(max_steps=0))
    assert state.status == "limit_reached"
    with pytest.raises(NotSaturatedError):
        entails(state, cl("-> p(a)"))
    r = entails(state, cl("-> p(a)"), allow_unsaturated=True)
    assert r.verdict == "locally-not-provable"
    r2 = entails(state, cl("p(a) -> p(a)"), allow_unsaturated=True)
    assert r2.verdict == "entailed"  # positive answers stay sound


def test_inconsistent_state_entails_everything():
    problem = parse_problem("clause: -> p(X)\nclause: p(X) ->")
    state = saturate(problem.ordering, problem.clauses)
    r = entails(state, cl("-> q(a,a)"))
    assert r.verdict == "entailed"


def test_monotone_robustness_under_redundant_additions():
    # appending a clause that is already redundant (and whose state still
    # verifies) never flips a query verdict
    import random

    from helpers import ground_terms_up_to
    from satloc import Clause, verify_saturated
    from satloc.entailment import clause_redundant
    from satloc.rewriting import rules_of
    from satloc.saturation import SaturationState
    from satloc.terms import Atom, substitute, vars_of

    rng = random.Random(127)
    problem = parse_problem(
        "order: f > a > b\nclause: -> p(a)\nclause: p(X) -> q(X)\nclause: q(X) -> r(X)"
    )
    state = saturate(problem.ordering, problem.clauses)
    assert state.status == "saturated"
    pool = ground_terms_up_to(1, funcs=[("f", 1)], consts=["a", "b"])
    queries = [
        Clause((), (Atom(p, (t,)),)) for p in ("p", "q", "r") for t in pool
    ] + [Clause((Atom(p, (pool[0],)),), ()) for p in ("p", "q", "r")]
    baseline = {str(q): entails(state, q).verdict for q in queries}

    extended = 0
    for base in problem.clauses:
        theta = {v: rng.choice(pool) for v in vars_of(base)}
        extra = substitute(theta, base)
        assert clause_redundant(state.clauses, state.rules, extra)
        clauses2 = state.clauses + [extra]
        rules2 = state.rules | rules_of(state.ordering, [extra])
        if not verify_saturated(state.ordering, clauses2, rules2).ok:
            continue
        state2 = SaturationState(
            ordering=state.ordering, clauses=clauses2, rules=rules2, status="saturated"
        )
        extended += 1
        for q in queries:
            assert entails(state2, q).verdict == baseline[str(q)], str(q)
    assert extended >= 1


GROWTH = (
    "clause: -> p(a)\n"
    "clause: p(X) -> p(f(X))\n"
    "clause: p(X), q(X,Y) -> r(g(X,Y))\n"
)


def _nest(n: int, inner: str) -> str:
    return "f(" * n + inner + ")" * n


@pytest.mark.parametrize(
    "query, verdict",
    [
        (f"-> p({_nest(128, 'a')})", "entailed"),
        (f"q({_nest(128, 'a')},c) -> r(g({_nest(128, 'a')},c))", "entailed"),
        (f"-> r(g({_nest(128, 'a')},c))", "not-entailed"),
    ],
)
def test_deep_query_matches_linear_in_universe(monkeypatch, query, verdict):
    # a count, not a timing: enumeration that scans the whole universe per
    # clause atom makes about 2*|U|^2 matches here (33 669 for |U| = 129)
    import satloc.entailment

    calls = 0
    match_onto = satloc.entailment.match_onto

    def counted(pattern, target):
        nonlocal calls
        calls += 1
        return match_onto(pattern, target)

    problem = parse_problem(GROWTH)
    state = saturate(problem.ordering, problem.clauses)
    monkeypatch.setattr(satloc.entailment, "match_onto", counted)
    result = entails(state, cl(query))
    assert result.verdict == verdict
    assert result.universe_size >= 129
    assert calls <= 4 * result.universe_size, (calls, result.universe_size)


GROWTH = (
    "order: g > f > a > b\n"
    "clause: -> p(a)\n"
    "clause: p(X) -> p(f(X))\n"
    "clause: p(X), q(X,Y) -> r(g(X,Y))\n"
)


def test_atom_keys_are_built_once_per_atom(monkeypatch):
    problem = parse_problem(GROWTH)
    state = saturate(problem.ordering, problem.clauses)
    t = "f(" * 128 + "a" + ")" * 128
    goals = [cl(f"-> p({t})"), cl(f"q({t},b) -> r(g({t},b))"), cl(f"-> r(g({t},b))")]
    built = []
    flat_key = terms._flat_key

    def counting(a):
        built.append(a)
        return flat_key(a)

    monkeypatch.setattr(terms, "_flat_key", counting)
    first = [entails(state, goal).verdict for goal in goals]
    assert first == ["entailed", "entailed", "not-entailed"]
    assert len(built) == len(set(built))
    built.clear()
    assert [entails(state, goal).verdict for goal in goals] == first
    assert built == []


@functools.cache
def corpus_states():
    """(name, problem, saturated state) of each committed corpus problem."""
    out = []
    for path in sorted((Path(__file__).parent / "corpus").glob("*.p")):
        problem = parse_problem(path.read_text(encoding="utf-8"))
        state = saturate(problem.ordering, problem.clauses)
        assert state.status == "saturated", path.name
        out.append((path.name, problem, state))
    return out


def _derived_goals(problem, state):
    """Each stored and input clause, the same with its sides swapped, and
    the same with one atom dropped (when two or more remain), with
    variables; a goal may repeat."""
    for c in state.clauses + problem.clauses:
        atoms = [(0, a) for a in c.antecedent] + [(1, a) for a in c.succedent]
        goals = [c, Clause(c.succedent, c.antecedent)]
        for drop in range(len(atoms) if len(atoms) > 1 else 0):
            kept = atoms[:drop] + atoms[drop + 1 :]
            goals.append(Clause([a for s, a in kept if s == 0], [a for s, a in kept if s == 1]))
        yield from (g for g in goals if not g.ground)


def test_every_stored_clause_is_entailed_by_its_state():
    checked = 0
    for name, _, state in corpus_states():
        for c in state.clauses:
            result = entails(state, c)
            assert result.verdict == "entailed", (name, str(c))
            assert result.certificate.validate()
            checked += 1
    assert checked >= 200  # 242 on the committed corpus


def test_nonground_queries_agree_with_the_redundancy_test():
    # the query and the loop's redundancy test freeze a clause alike
    verdicts = set()
    for name, problem, state in corpus_states():
        for goal in _derived_goals(problem, state):
            verdict = entails(state, goal).verdict
            redundant = clause_redundant(state.clauses, state.rules, goal)
            assert (verdict == "entailed") == redundant, (name, str(goal))
            verdicts.add(verdict)
    assert verdicts == {"entailed", "not-entailed"}


def test_oracle_entailed_nonground_goals_are_entailed():
    # the depth-1 oracle confirms all 296 entailed goals of the 867 on the
    # committed corpus, and leaves the 571 not-entailed ones unknown
    confirmed = 0
    for name, problem, state in corpus_states():
        for goal in _derived_goals(problem, state):
            if oracle_entails(problem.clauses, goal, HerbrandBound(1)).verdict == "entailed":
                assert entails(state, goal).verdict == "entailed", (name, str(goal))
                confirmed += 1
    assert confirmed >= 200
