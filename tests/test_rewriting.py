"""Rewrite systems: extraction, single steps, reachability, derived order."""

import random
import time

import pytest

from helpers import at, cl, r_less, rand_atom, rand_ground_atom, sig_ordering
from satloc import Ordering, RewriteSystem
from satloc import rewriting
from satloc.rewriting import (
    RewriteRule,
    canonical_rule,
    reach,
    reach_clause,
    rewrite_one,
    rules_of,
)
from satloc.terms import Atom, Fn, vars_of

FG = Ordering(["f", "g", "a"])
WORKED_RULES = RewriteSystem.of(FG, [(at("q(f(W),W)"), at("p(g(W,W))"))])


def test_rule_invariants():
    with pytest.raises(ValueError):
        RewriteRule(at("p(X)"), at("p(X)"))
    with pytest.raises(ValueError):
        RewriteRule(at("p(X)"), at("q(X,Y)"))
    with pytest.raises(ValueError):
        RewriteSystem.of(FG, [(at("p(a)"), at("q(f(a),a)"))])  # not ordered


def test_canonical_rule_dedup():
    r1 = canonical_rule(at("q(f(W),W)"), at("p(g(W,W))"))
    r2 = canonical_rule(at("q(f(Z),Z)"), at("p(g(Z,Z))"))
    assert r1 == r2
    assert str(r1) == "q(f(V0),V0) -> p(g(V0,V0))"


def test_rules_of_examples():
    got = rules_of(FG, [cl("p(g(W,W)), q(f(W),W) ->")])
    assert got.rules == WORKED_RULES.rules

    assert len(rules_of(FG, [cl("-> p(g(W,W))")])) == 0
    assert len(rules_of(FG, [cl("p(g(X,Y)), q(f(Y),X) ->")])) == 0  # incomparable


def test_rules_of_monotone():
    rng = random.Random(61)
    ordering = sig_ordering()
    from helpers import rand_clause

    for _ in range(100):
        smaller = [rand_clause(rng) for _ in range(rng.randint(0, 3))]
        larger = smaller + [rand_clause(rng) for _ in range(rng.randint(0, 2))]
        assert rules_of(ordering, smaller).rules <= rules_of(ordering, larger).rules


def test_rewrite_one_examples():
    assert rewrite_one(WORKED_RULES, at("q(f(a),a)")) == {at("p(g(a,a))")}
    assert rewrite_one(RewriteSystem(), at("p(a)")) == set()
    assert rewrite_one(WORKED_RULES, at("p(a)")) == set()


def test_reach_examples():
    assert reach(RewriteSystem(), at("p(a)")) == {at("p(a)")}
    k1 = Fn("#1")
    frozen = Atom("q", (Fn("f", (k1,)), k1))
    assert reach(WORKED_RULES, frozen) == {frozen, Atom("p", (Fn("g", (k1, k1)),))}
    assert reach(WORKED_RULES, at("q(f(a),a)")) == {at("q(f(a),a)"), at("p(g(a,a))")}
    with pytest.raises(ValueError):
        reach(WORKED_RULES, at("q(f(X),X)"))


def test_reach_clause_examples():
    assert reach_clause(WORKED_RULES, cl("->")) == set()
    assert reach_clause(WORKED_RULES, cl("q(f(a),a) ->")) == {
        at("q(f(a),a)"),
        at("p(g(a,a))"),
    }
    assert reach_clause(RewriteSystem(), cl("p(a) -> q(a,a)")) == {
        at("p(a)"),
        at("q(a,a)"),
    }


def test_reach_from_several_atoms_rewrites_each_atom_once(monkeypatch):
    # one search with one seen set: reached one atom at a time, the atoms of
    # q(f(a),a) -> p(g(a,a)) were rewritten 3 times, p(g(a,a)) twice
    rewritten = []

    def counted(system, a):
        rewritten.append(a)
        return rewrite_one(system, a)

    monkeypatch.setattr(rewriting, "rewrite_one", counted)
    goal = cl("q(f(a),a) -> p(g(a,a))")
    assert reach_clause(WORKED_RULES, goal) == {at("q(f(a),a)"), at("p(g(a,a))")}
    assert sorted(map(str, rewritten)) == ["p(g(a,a))", "q(f(a),a)"]
    rng = random.Random(83)
    ordering = sig_ordering()
    for _ in range(200):
        system = rand_system(rng, ordering)
        a, b = rand_ground_atom(rng), rand_ground_atom(rng)
        rewritten.clear()
        both = reach(system, a, b)
        assert len(rewritten) == len(both)
        assert both == reach(system, a) | reach(system, b)


def test_r_less_examples():
    assert r_less(WORKED_RULES, at("p(g(a,a))"), at("q(f(a),a)"))
    assert not r_less(WORKED_RULES, at("q(f(a),a)"), at("q(f(a),a)"))
    assert not r_less(RewriteSystem(), at("p(a)"), at("p(b)"))


def rand_system(rng: random.Random, ordering: Ordering, size: int = 4) -> RewriteSystem:
    pairs = []
    tries = 0
    while len(pairs) < size and tries < 400:
        tries += 1
        a, b = rand_atom(rng), rand_atom(rng)
        if ordering.atom_greater(a, b):
            pairs.append((a, b))
    return RewriteSystem.of(ordering, pairs)


def test_single_step_descends():
    # distinct rewrite results sit strictly below their source
    rng = random.Random(67)
    ordering = sig_ordering()
    checked = 0
    for _ in range(400):
        system = rand_system(rng, ordering)
        a = rand_ground_atom(rng)
        for b in rewrite_one(system, a):
            if b != a:
                checked += 1
                assert ordering.atom_greater(a, b)
    assert checked > 30


def test_derived_order_below_atom_order():
    rng = random.Random(71)
    ordering = sig_ordering()
    checked = 0
    for _ in range(300):
        system = rand_system(rng, ordering)
        b = rand_ground_atom(rng)
        for a in reach(system, b) - {b}:
            assert r_less(system, a, b)
            assert ordering.atom_greater(b, a)
            assert vars_of(a) <= vars_of(b)
            checked += 1
    assert checked > 20


def test_reach_finite_and_fast():
    rng = random.Random(73)
    ordering = sig_ordering()
    for _ in range(200):
        system = rand_system(rng, ordering)
        a = rand_ground_atom(rng)
        start = time.perf_counter()
        result = reach(system, a)
        assert time.perf_counter() - start < 0.1
        assert len(result) < 10_000
        assert a in result


def test_reach_idempotent():
    rng = random.Random(79)
    ordering = sig_ordering()
    for _ in range(200):
        system = rand_system(rng, ordering)
        a = rand_ground_atom(rng)
        closure = reach(system, a)
        for b in closure:
            assert reach(system, b) <= closure
