"""LPO, atom ordering, set extension, maximality: examples and laws.

Derived expectations are cross-checked against the reference unfolding in
helpers (an independent transcription of the recursive definitions).
"""

import random
import sys
import threading
from pathlib import Path

from helpers import (
    SIG_FUNCS,
    at,
    rand_atom,
    rand_ground_atom,
    rand_ground_term,
    rand_grounding,
    rand_term,
    ref_atom_greater,
    ref_lpo_greater,
    rank_of,
    recursive_lpo_greater,
    sig_ordering,
    tm,
)
from satloc import Ordering, parse_problem, parse_state, saturate, serialize_state, verify_saturated
from satloc.terms import Fn, Var, subterms, vars_of

FGBA = Ordering(["f", "g", "b", "a"])


def test_lpo_examples():
    assert FGBA.lpo_greater(tm("f(a)"), tm("a"))  # subterm
    assert FGBA.lpo_greater(tm("f(W)"), tm("g(W,W)"))
    assert not FGBA.lpo_greater(tm("f(Y)"), tm("g(X,Y)"))
    assert not FGBA.lpo_greater(tm("g(X,Y)"), tm("f(Y)"))
    assert ref_lpo_greater(rank_of(FGBA), tm("f(W)"), tm("g(W,W)"))
    assert not ref_lpo_greater(rank_of(FGBA), tm("f(Y)"), tm("g(X,Y)"))
    # one symbol with two arities: when the common prefix of the argument
    # lists is all equal, the longer list's later arguments must reach the
    # other term, as in the recursive definition
    fab, fa = Fn("f", (tm("a"), tm("b"))), Fn("f", (tm("a"),))
    for o, above in ((FGBA, False), (Ordering(["b", "f", "a"]), True)):
        assert o.lpo_greater(fab, fa) == recursive_lpo_greater(o, fab, fa) == above
        assert not o.lpo_greater(fa, fab) and not recursive_lpo_greater(o, fa, fab)


def test_lpo_agrees_with_the_recursive_definition():
    # the cases tried in Löchner's order, one of them deciding, give the
    # answers of the recursive definition that tries the subterm case
    # first; t is often built from s's own subterms, so that the two share
    # arguments and variables
    rng = random.Random(67)
    above = 0
    for _ in range(10000):
        ordering = sig_ordering(rng)
        s = rand_term(rng, 4)
        pool = list(subterms(s)) + [rand_term(rng, 2) for _ in range(2)]
        name, arity = rng.choice(SIG_FUNCS)
        t = rng.choice(
            [rand_term(rng, 4), rng.choice(pool), Fn(name, [rng.choice(pool) for _ in range(arity)])]
        )
        got = ordering.lpo_greater(s, t)
        assert got == recursive_lpo_greater(ordering, s, t), (ordering, s, t)
        above += got
    assert 2000 < above < 8000, above


def test_lpo_comparisons_grow_linearly_with_depth(monkeypatch):
    # f^n(a) against f^n(b): the first differing argument pair decides at
    # each level, so each way round takes n + 1 comparisons, where trying
    # the subterm case first took about 1.75^n; a count past n + 1 stops
    # the run
    steps = Ordering._lpo_steps
    count = limit = 0

    def counted(self, s, t):
        nonlocal count
        count += 1
        assert count <= limit, "more comparisons than levels"
        return steps(self, s, t)

    monkeypatch.setattr(Ordering, "_lpo_steps", counted)
    ordering = Ordering(["f", "a", "b"])
    for n in (1, 22, 300, 5000):
        fa, fb = tm("a"), tm("b")
        for _ in range(n):
            fa, fb = Fn("f", (fa,)), Fn("f", (fb,))
        for s, t, above in ((fa, fb, True), (fb, fa, False)):
            count, limit = 0, n + 1
            assert ordering.lpo_greater(s, t) == above
            assert count == n + 1


def test_lpo_agrees_with_reference():
    rng = random.Random(29)
    ordering = sig_ordering()
    rank = rank_of(ordering)
    for _ in range(3000):
        s, t = rand_term(rng, 3), rand_term(rng, 3)
        assert ordering.lpo_greater(s, t) == ref_lpo_greater(rank, s, t)


def test_lpo_laws_sampled():
    rng = random.Random(31)
    ordering = sig_ordering()
    greater_with_vars = 0
    for _ in range(2000):
        s, t, u = rand_term(rng, 3), rand_term(rng, 3), rand_term(rng, 2)
        assert not ordering.lpo_greater(s, s)
        assert not (ordering.lpo_greater(s, t) and ordering.lpo_greater(t, s))
        if ordering.lpo_greater(s, t) and ordering.lpo_greater(t, u):
            assert ordering.lpo_greater(s, u)
        # substitution stability
        if ordering.lpo_greater(s, t):
            sigma = rand_grounding(rng, vars_of(s) | vars_of(t))
            from satloc.terms import substitute

            assert ordering.lpo_greater(substitute(sigma, s), substitute(sigma, t))
        # a greater term has every variable of a smaller one: the standing
        # hypothesis on which atom_greater answers False unasked
        if ordering.lpo_greater(s, t):
            assert vars_of(t) <= vars_of(s)
            greater_with_vars += bool(vars_of(t))
    assert greater_with_vars > 100, greater_with_vars


def test_lpo_subterm_property():
    rng = random.Random(37)
    ordering = sig_ordering()
    from satloc.terms import subterms

    for _ in range(500):
        s = rand_term(rng, 3)
        for sub in subterms(s):
            if sub != s:
                assert ordering.lpo_greater(s, sub) or isinstance(s, Var)


def test_lpo_ground_total():
    rng = random.Random(41)
    ordering = sig_ordering()
    for _ in range(2000):
        s, t = rand_ground_term(rng, 3), rand_ground_term(rng, 3)
        if s != t:
            assert ordering.lpo_greater(s, t) != ordering.lpo_greater(t, s)


def test_atom_greater_examples():
    fg = Ordering(["f", "g"])
    assert fg.atom_greater(at("q(f(W),W)"), at("p(g(W,W))"))
    a = at("p(a)")
    assert not fg.extended(["a"]).atom_greater(a, a)
    assert not FGBA.atom_greater(at("p(X)"), at("q(X)"))
    assert not FGBA.atom_greater(at("q(X)"), at("p(X)"))


def test_atom_zero_arity_cases():
    o = Ordering(["f", "a"])
    s0, t0 = at("s"), at("t")
    assert not o.atom_greater(s0, t0) and not o.atom_greater(t0, s0)
    assert o.atom_greater(at("p(a)"), s0)  # vacuous domination
    assert not o.atom_greater(s0, at("p(a)"))


def test_atom_greater_agrees_with_reference():
    rng = random.Random(43)
    ordering = sig_ordering()
    rank = rank_of(ordering)
    for _ in range(2000):
        a, b = rand_atom(rng), rand_atom(rng)
        assert ordering.atom_greater(a, b) == ref_atom_greater(rank, a, b)


def test_atom_laws_sampled():
    rng = random.Random(47)
    ordering = sig_ordering()
    from satloc.terms import substitute

    for _ in range(2000):
        a, b, c = rand_atom(rng), rand_atom(rng), rand_atom(rng)
        assert not ordering.atom_greater(a, a)
        if ordering.atom_greater(a, b):
            assert vars_of(b) <= vars_of(a)
            sigma = rand_grounding(rng, vars_of(a))
            assert ordering.atom_greater(substitute(sigma, a), substitute(sigma, b))
        if ordering.atom_greater(a, b) and ordering.atom_greater(b, c):
            assert ordering.atom_greater(a, c)


def test_no_infinite_descent():
    # greedy descending walks terminate within a generous bound
    rng = random.Random(53)
    ordering = sig_ordering()
    for _ in range(200):
        current = rand_ground_atom(rng, depth=2)
        for steps in range(200):
            candidates = [
                b
                for b in (rand_ground_atom(rng, depth=2) for _ in range(10))
                if ordering.atom_greater(current, b)
            ]
            if not candidates:
                break
            current = candidates[0]
        else:
            raise AssertionError("descending walk did not stall within 200 steps")


def test_maximality_examples():
    o = sig_ordering()
    assert o.is_maximal(at("i(X,Y)"), {at("i(b,Y)")})
    a = at("p(a)")
    assert o.is_maximal(a, {a})
    assert not o.is_strictly_maximal(a, {a})
    fg = Ordering(["f", "g"])
    assert not fg.is_maximal(at("p(g(W,W))"), {at("q(f(W),W)")})


def test_shared_argument_blocks_domination():
    # i(b,b) above i(a,b) would need b strictly below one of i(b,b)'s
    # arguments, but b never sits below itself: underivable either way round
    for prec in (["a", "b"], ["b", "a"]):
        o = Ordering(prec)
        assert not o.atom_greater(at("i(b,b)"), at("i(a,b)"))
    # the converse is an ordinary comparison and follows the precedence
    assert Ordering(["a", "b"]).atom_greater(at("i(a,b)"), at("i(b,b)"))
    assert not Ordering(["b", "a"]).atom_greater(at("i(a,b)"), at("i(b,b)"))


def test_ordering_construction_errors():
    import pytest

    with pytest.raises(ValueError):
        Ordering(["f", "f"])
    with pytest.raises(KeyError):
        Ordering(["f"]).lpo_greater(tm("zzz"), tm("f(a)"))


def test_precedence_is_stored_once():
    # the rank map alone holds the precedence, in rank order
    o = Ordering(["f", "a"])
    assert set(vars(o)) == {"_rank", "_atom_memo"}
    assert o.symbols() == ["f", "a"] and o.extended(["b", "f"]).symbols() == ["f", "a", "b"]
    assert o == Ordering(["f", "a"]) and o != Ordering(["a", "f"])
    assert repr(o) == "Ordering(f > a)"


def test_remembered_answers_agree_with_reference():
    # each pair is asked twice and both ways round, so every second ask is
    # answered from the memo; an extended ordering starts with its own
    rng = random.Random(59)
    ordering = sig_ordering()
    pairs = [(rand_atom(rng), rand_atom(rng)) for _ in range(500)]
    for o in (ordering, ordering.extended(["d", "e"])):
        assert not o._atom_memo
        rank = rank_of(o)
        for _ in range(2):
            for a, b in pairs:
                assert o.atom_greater(a, b) == ref_atom_greater(rank, a, b)
                assert o.atom_greater(b, a) == ref_atom_greater(rank, b, a)


def test_unranked_symbol_raises_on_every_ask_and_is_not_remembered():
    import pytest

    o = Ordering(["f", "a"])
    low, high = at("p(zzz)"), at("p(f(a))")
    assert o.atom_greater(high, at("p(a)"))
    memo = dict(o._atom_memo)
    for _ in range(2):
        for x, y in ((low, high), (high, low)):
            with pytest.raises(KeyError):
                o.atom_greater(x, y)
    assert o._atom_memo == memo
    ranked = o.extended(["zzz"])
    assert ranked.atom_greater(high, low) and not ranked.atom_greater(low, high)


def test_saturate_and_verify_reuse_comparisons(monkeypatch):
    # verify reads the state back, so it starts from a fresh ordering, as a
    # CLI run does; without the memo the two make 570 + 579 LPO calls
    calls = 0
    lpo_greater = Ordering.lpo_greater

    def counted(self, s, t):
        nonlocal calls
        calls += 1
        return lpo_greater(self, s, t)

    monkeypatch.setattr(Ordering, "lpo_greater", counted)
    path = Path(__file__).parent / "corpus" / "g_mixed_03.p"
    problem = parse_problem(path.read_text(encoding="utf-8"))
    state = parse_state(serialize_state(saturate(problem.ordering, problem.clauses)))
    assert verify_saturated(state.ordering, state.clauses, state.rules).ok
    assert calls <= 400


def test_a_wide_clause_leaves_at_most_one_memo_entry_per_atom():
    # no two of the atoms p(Xi) share their variable, so none is above
    # another, and that answer is not remembered: remembering it left
    # 1 441 200 entries (205 MB) after this one-clause state was read
    atoms = ", ".join(f"p(X{i})" for i in range(1200))
    state = parse_state(f"saturated: true\norder:\nclause: {atoms} -> q\n")
    assert 0 < len(state.ordering._atom_memo) <= 1201


def test_threads_sharing_an_ordering_get_the_reference_answers():
    rng = random.Random(61)
    ordering = sig_ordering()
    rank = rank_of(ordering)
    pairs = [(rand_atom(rng), rand_atom(rng)) for _ in range(1000)]
    expected = [ref_atom_greater(rank, a, b) for a, b in pairs]
    answers = [None] * 4

    def ask(k):
        answers[k] = [ordering.atom_greater(a, b) for a, b in pairs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert answers == [expected] * 4
