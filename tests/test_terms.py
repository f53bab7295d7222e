"""Terms, clauses, substitutions: unit examples and randomized laws."""

import copy
import pickle
import random
import re
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    SIG_CONSTS,
    SIG_FUNCS,
    SIG_PREDS,
    SIG_VARS,
    at,
    cl,
    compose,
    ground_terms_up_to,
    rand_atom,
    rand_clause,
    rand_ground_atom,
    rand_ground_term,
    rand_grounding,
    rand_term,
    ref_atom_key,
    ref_match_onto,
    ref_mgu,
    rename_apart,
    tm,
    unfreeze,
)
from satloc import terms as terms_module
from satloc.oracle import HerbrandBound, oracle_entails
from satloc.terms import (
    ArityError,
    Atom,
    Clause,
    Fn,
    Signature,
    Var,
    atom_key,
    atom_symbols,
    freeze,
    match_onto,
    mgu,
    substitute,
    subterms,
    vars_in_order,
    vars_of,
)


x, y, w = Var("X"), Var("Y"), Var("W")


def test_vars_of_examples():
    assert vars_of(tm("f(g(a,X))")) == {x}
    assert vars_of(at("p(a)")) == set()
    assert vars_of(cl("p(X), q(Y) -> r(X)")) == {x, y}


def test_subterms_examples():
    a = tm("a")
    assert subterms(a) == {a}
    assert subterms(tm("f(g(a,X))")) == {tm("f(g(a,X))"), tm("g(a,X)"), tm("a"), tm("X")}
    assert subterms(tm("g(X,X)")) == {tm("g(X,X)"), tm("X")}


def test_substitute_examples():
    sigma = {x: Fn("a"), y: Fn("b")}
    assert substitute(sigma, at("i(X,Y)")) == at("i(a,b)")
    assert substitute({}, at("p(X)")) == at("p(X)")
    # literal sets collapse under substitution
    assert substitute({x: y}, cl("-> p(X), p(Y)")) == cl("-> p(Y)")
    # no frame per nesting level: 5 000 levels, in an atom and in a clause
    deep, ground = x, Fn("a")
    for _ in range(5000):
        deep, ground = Fn("f", (deep,)), Fn("f", (ground,))
    assert substitute({x: Fn("a")}, Atom("p", (deep, y))) is Atom("p", (ground, y))
    c = Clause([Atom("p", (deep,)), Atom("p", (ground,))], [Atom("q", (y, deep))])
    assert substitute({x: Fn("a")}, c) == Clause([Atom("p", (ground,))], [Atom("q", (y, ground))])
    # against replacing the variables in the printed text, in one pass
    def replaced(e) -> str:
        return re.sub(r"[A-Z]\w*", lambda m: str(sigma.get(Var(m.group()), m.group())), str(e))

    rng = random.Random(71)
    for _ in range(500):
        c = rand_clause(rng, max_side=3, depth=3)
        sigma = {v: rand_term(rng, 2) for v in vars_of(c) if rng.random() < 0.7}
        assert substitute(sigma, c) == cl(replaced(c))
        for a in c.antecedent + c.succedent:
            assert str(substitute(sigma, a)) == replaced(a)


def test_compose_examples():
    assert compose({x: y}, {y: Fn("a")}) == {x: Fn("a"), y: Fn("a")}
    s = {x: Fn("a")}
    assert compose({}, s) == s
    assert compose(s, {}) == s


def test_compose_functional_law():
    rng = random.Random(7)
    for _ in range(300):
        a1 = rand_atom(rng)
        s1 = rand_grounding(rng, vars_of(a1))
        s2 = rand_grounding(rng, vars_of(substitute(s1, a1)))
        both = compose(s1, s2)
        assert substitute(both, a1) == substitute(s2, substitute(s1, a1))


def test_mgu_examples():
    assert mgu(at("i(X,Y)"), at("i(a,b)")) == {x: Fn("a"), y: Fn("b")}
    assert mgu(at("p(X)"), at("p(X)")) == {}
    assert mgu(at("p(X)"), at("p(f(X))")) is None  # occurs check
    assert mgu(at("p(a)"), at("q(a)")) is None
    assert mgu(at("p(a)"), at("p(a,b)")) is None
    assert mgu(tm("f(X)"), tm("g(X)")) is None
    # the occurs check follows the bindings (X -> f(Y), then Y against
    # f(X)), and so does a variable met again (X -> Y -> Z -> g(W,W)); in
    # the third pair, X, Y and U, V bind in two cycles, and then X against
    # U meets f(Y) against f(V) a second time
    gfa = tm("g(f(a),f(a))")
    for e1, e2, expected in (
        ("p(X,Y)", "p(f(Y),f(X))", None),
        ("p(X,Y,Z)", "p(Y,Z,f(X))", None),
        ("p(X,Y,U,V,X)", "p(f(Y),h(X),f(V),h(U),U)", None),
        ("p(X,Y,Z,X)", "p(Y,Z,g(W,W),g(f(a),f(a)))",
         [(x, gfa), (y, gfa), (Var("Z"), gfa), (w, tm("f(a)"))]),
    ):
        sigma, ref = mgu(at(e1), at(e2)), ref_mgu(at(e1), at(e2))
        assert (sigma is None) == (ref is None) == (expected is None)
        assert list((sigma or {}).items()) == list((ref or {}).items()) == (expected or [])


def test_mgu_unifies_and_is_idempotent():
    rng = random.Random(11)
    unified = 0
    for _ in range(2000):
        a1, a2 = rand_atom(rng), rand_atom(rng)
        sigma = mgu(a1, a2)
        if sigma is None:
            continue
        unified += 1
        assert substitute(sigma, a1) == substitute(sigma, a2)
        for v, t in sigma.items():
            assert not (vars_of(t) & set(sigma))  # idempotent
    assert unified > 100


def test_mgu_most_general_against_enumeration():
    rng = random.Random(13)
    space = ground_terms_up_to(1)
    checked = 0
    while checked < 100:
        a1, a2 = rand_atom(rng, depth=1), rand_atom(rng, depth=1)
        sigma = mgu(a1, a2)
        if sigma is None:
            continue
        both = sorted(vars_of(a1) | vars_of(a2), key=lambda v: v.name)
        if len(both) > 2:
            continue
        checked += 1
        import itertools

        for values in itertools.product(space, repeat=len(both)):
            tau = dict(zip(both, values))
            if substitute(tau, a1) != substitute(tau, a2):
                continue
            # tau factors through sigma: match the sigma-image onto the tau-image
            theta = {}
            failed = False
            for v in both:
                m = match_onto(substitute(theta, substitute(sigma, v)), tau.get(v, v))
                if m is None:
                    failed = True
                    break
                theta = compose(theta, m)
            assert not failed, f"unifier {tau} does not factor through {sigma}"


def test_match_onto_examples():
    assert match_onto(at("p(X)"), at("p(f(a))")) == {x: tm("f(a)")}
    assert match_onto(at("p(X,X)"), at("p(a,b)")) is None
    assert match_onto(at("p(f(X))"), at("p(a)")) is None


def test_match_onto_exactness():
    rng = random.Random(17)
    hits = 0
    for _ in range(1500):
        pattern = rand_atom(rng)
        target = rand_atom(rng)
        m, ref = match_onto(pattern, target), ref_match_onto(pattern, target)
        # the bindings and their order are the reference's
        assert (m is None) == (ref is None)
        assert list((m or {}).items()) == list((ref or {}).items())
        if m is not None:
            hits += 1
            assert substitute(m, pattern) == target
            assert set(m) <= vars_of(pattern)
    assert hits > 50


def test_substitute_preserves_groundness():
    rng = random.Random(19)
    for _ in range(500):
        a = rand_atom(rng)
        sigma = rand_grounding(rng, vars_of(a))
        assert substitute(sigma, a).ground


def test_clause_canonical_form():
    c1 = Clause([at("q(a,b)"), at("p(a)")], [at("r(a)")])
    c2 = Clause([at("p(a)"), at("q(a,b)"), at("p(a)")], [at("r(a)")])
    assert c1 == c2
    assert c1.antecedent == (at("p(a)"), at("q(a,b)"))
    assert cl("->") == Clause()


# terms over the fixed helper signature, so each symbol has one arity
def _terms_over(leaves):
    return st.recursive(
        st.sampled_from(leaves),
        lambda sub: st.one_of(
            [
                st.tuples(*[sub] * arity).map(lambda args, name=name: Fn(name, args))
                for name, arity in SIG_FUNCS
            ]
        ),
        max_leaves=12,
    )


def _atoms_over(terms):
    return st.one_of(
        [
            st.tuples(*[terms] * arity).map(lambda args, name=name: Atom(name, args))
            for name, arity in SIG_PREDS
        ]
    )


_TERMS = _terms_over([Var(v) for v in SIG_VARS] + [Fn(c) for c in SIG_CONSTS])
_ATOMS = _atoms_over(_TERMS)
_GROUND_TERMS = _terms_over([Fn(c) for c in SIG_CONSTS])
_GROUND_ATOMS = _atoms_over(_GROUND_TERMS)


@given(_ATOMS, _ATOMS)
def test_flat_atom_key_orders_like_nested_key(a, b):
    flat, nested = (atom_key(a), atom_key(b)), (ref_atom_key(a), ref_atom_key(b))
    assert (flat[0] < flat[1]) == (nested[0] < nested[1])
    assert (flat[0] == flat[1]) == (a == b) == (nested[0] == nested[1])


@given(_GROUND_ATOMS, _GROUND_ATOMS, _GROUND_TERMS, _GROUND_TERMS)
def test_ground_mgu_decides_by_identity_like_the_general_algorithm(a, b, s, t):
    # match_onto makes the same identity test on a ground pattern
    for e1, e2 in ((a, b), (a, a), (s, t), (s, s), (a, Atom(a.name, a.args))):
        assert mgu(e1, e2) == ref_mgu(e1, e2) == ({} if e1 is e2 else None)
        assert match_onto(e1, e2) == ref_match_onto(e1, e2) == ({} if e1 is e2 else None)
    for e1, e2 in ((a, s), (s, a)):
        with pytest.raises(TypeError):
            mgu(e1, e2)
        with pytest.raises(TypeError):
            match_onto(e1, e2)


def _chained_pair(rng):
    """p(X0, ..., Xn-1) and p(t0, ..., tn-1), in either order, where each ti
    has variables among X(i+1), ..., Xn-1 and Y: a later binding rewrites
    the range terms of the earlier ones, as Y -> a rewrites X -> f(Y) in
    p(X, Y) against p(f(Y), a)."""
    n = rng.randint(2, 6)
    xs = [Var(f"X{i}") for i in range(n)]
    ts = [
        substitute({Var(v): rng.choice(xs[i + 1:] + [y]) for v in SIG_VARS}, rand_term(rng, 2))
        for i in range(n)
    ]
    e1, e2 = Atom("p", xs), Atom("p", ts)
    return ((e1, e2) if rng.random() < 0.5 else (e2, e1)), xs, ts


def test_mgu_agrees_with_the_general_algorithm_on_seeded_pairs():
    rng = random.Random(29)
    other = random.Random(31)  # a2 has its own stream, so the other inputs stay as they were
    chained = random.Random(41)  # and so do the chained pairs
    same = unified = var_var = var_term = rewritten = 0
    assert list(mgu(at("p(X,Y)"), at("p(f(Y),a)")).items()) == [(x, tm("f(a)")), (y, Fn("a"))]
    for _ in range(3000):
        g1, g2 = rand_ground_atom(rng, depth=1), rand_ground_atom(rng, depth=1)
        s1, s2 = rand_ground_term(rng, 1), rand_ground_term(rng, 1)
        a1 = rand_atom(rng)
        a2 = rand_atom(other)
        for e1, e2 in ((g1, g2), (s1, s2), (a1, g2), (g1, a1), (a1, a1), (a1, a2), (a2, a1)):
            expected = ref_mgu(e1, e2)
            assert mgu(e1, e2) == expected
            unified += expected is not None
        # the bindings and their order are the general algorithm's
        (c1, c2), xs, ts = _chained_pair(chained)
        expected = ref_mgu(c1, c2)
        assert list((mgu(c1, c2) or {}).items()) == list((expected or {}).items())
        rewritten += expected is not None and any(expected[v] is not t for v, t in zip(xs, ts))
        # two non-ground atoms bind a variable to a variable and to a term
        for t in (ref_mgu(a1, a2) or {}).values():
            var_var += isinstance(t, Var)
            var_term += not isinstance(t, Var)
        same += (g1 is g2) + (s1 is s2)
        for e1, e2 in ((g1, s1), (s2, g2), (a1, s1)):
            with pytest.raises(TypeError):
                mgu(e1, e2)
    assert same > 300 and unified > 3500, (same, unified)
    assert var_var > 5 and var_term > 100, (var_var, var_term)
    assert rewritten > 1500, rewritten


def test_mgu_builds_no_term_walking_two_deep_terms(monkeypatch):
    # a popped pair is taken apart as written, not substituted first:
    # substituting both sides of every pair rebuilt n(n+1)/2 terms here
    # (2 001 000 at n = 2000)
    n = 2000
    open_, ground = x, Fn("a")
    for _ in range(n):
        open_, ground = Fn("f", (open_,)), Fn("f", (ground,))
    built = 0
    new = Fn.__new__

    def counted(cls, name, args=()):
        nonlocal built
        built += 1
        return new(cls, name, args)

    monkeypatch.setattr(Fn, "__new__", counted)
    assert mgu(Atom("p", (open_,)), Atom("p", (ground,))) == {x: Fn("a")}
    assert built <= n, built


def test_mgu_substitutes_a_binding_only_into_the_terms_that_hold_its_variable(monkeypatch):
    # n bindings X_i -> f(Y_i), none of which rewrites another: the bindings
    # are kept in triangular form and each is resolved once at the end, so
    # this costs n substitute calls; substituting each new binding into
    # every range term made n(n+1)/2 (2 001 000 at n = 2000)
    n = 2000
    xs = [Var(f"X{i}") for i in range(n)]
    fys = [Fn("f", (Var(f"Y{i}"),)) for i in range(n)]
    calls = 0
    original = terms_module.substitute

    def counted(sigma, e):
        nonlocal calls
        calls += 1
        return original(sigma, e)

    monkeypatch.setattr(terms_module, "substitute", counted)
    assert list(mgu(Atom("p", xs), Atom("p", fys)).items()) == list(zip(xs, fys))
    assert calls <= 2 * n, calls


def _chain(n):
    """q(f(Y1), ..., f(Yn), Y1, ..., Yn-1) and q(X0, ..., Xn-1, X1, ..., Xn-1):
    X_i -> f(Y(i+1)), then each pair (Y_i, X_i) binds Y_i -> f(Y(i+1)), so
    in an idempotent sigma each Y_i binding rewrites the range terms of
    X0, ..., X(i-1) and Y1, ..., Y(i-1)."""
    ys = [Var(f"Y{i}") for i in range(1, n + 1)]
    xs = [Var(f"X{i}") for i in range(n)]
    return (
        Atom("q", [Fn("f", (v,)) for v in ys] + ys[:-1]),
        Atom("q", xs + xs[1:]),
    )


def test_mgu_resolves_each_binding_of_a_chain_once(monkeypatch):
    # 2n - 1 chained bindings: kept idempotent after each binding, sigma
    # re-substituted every earlier range term (40 000 substitute calls and
    # 2 647 099 terms built at n = 200); resolved once at the end, each
    # binding costs one substitute call and one term per nesting level
    small = _chain(20)
    for e1, e2 in (small, small[::-1]):
        assert list(mgu(e1, e2).items()) == list(ref_mgu(e1, e2).items())
    n = 200
    e1, e2 = _chain(n)
    calls = built = 0
    original, new = terms_module.substitute, Fn.__new__

    def counted_substitute(sigma, e):
        nonlocal calls
        calls += 1
        return original(sigma, e)

    def counted_fn(cls, name, args=()):
        nonlocal built
        built += 1
        return new(cls, name, args)

    monkeypatch.setattr(terms_module, "substitute", counted_substitute)
    monkeypatch.setattr(Fn, "__new__", counted_fn)
    sigma = mgu(e1, e2)
    monkeypatch.undo()
    assert calls <= 2 * n and built <= 4 * n, (calls, built)
    assert substitute(sigma, e1) is substitute(sigma, e2)
    assert not set(sigma) & set().union(*(vars_of(t) for t in sigma.values()))
    top = Var(f"Y{n}")
    for _ in range(n):
        top = Fn("f", (top,))
    assert sigma[Var("X0")] is top and len(sigma) == 2 * n - 1


def test_mgu_walks_no_binding_again_for_the_next_one(monkeypatch):
    # A1 -> f(c), A(i+1) -> g(Ai), Bi -> h(Wi), then each Wi -> An: an
    # occurs check made for each binding, following the bindings, walked
    # the whole A chain for each Wi (n^2 steps); one check over all the
    # bindings, as they are resolved, takes each binding once
    n = 1000
    a, b, ws = ([Var(f"{c}{i}") for i in range(n)] for c in "ABW")
    e1 = Atom("p", a + b + ws)
    chain = [tm("f(c)")] + [Fn("g", (v,)) for v in a[:-1]]
    e2 = Atom("p", chain + [Fn("h", (v,)) for v in ws] + [a[-1]] * n)
    calls = 0
    original = terms_module.vars_in_order

    def counted(e):
        nonlocal calls
        calls += 1
        return original(e)

    monkeypatch.setattr(terms_module, "vars_in_order", counted)
    sigma = mgu(e1, e2)
    assert len(sigma) == 3 * n and calls <= 3 * n, calls
    assert list(mgu(e1, e2).items()) == list(sigma.items())
    assert substitute(sigma, e1) is substitute(sigma, e2)


def _vary(rng, t, names):
    """t with some subterms, at any depth, replaced by variables of names."""
    if rng.random() < 0.03:
        return Var(rng.choice(names))
    if type(t) is Var or not t.args:
        return t
    return Fn(t.name, [_vary(rng, a, names) for a in t.args])


def test_mgu_agrees_with_the_general_algorithm_on_deep_pairs():
    # two copies of one term up to 200 deep, each with variables in place
    # of some subterms, mostly far below the top; a variable name shared by
    # both copies brings occurs checks and clashes
    rng = random.Random(37)
    unified = failed = deep = 0
    for _ in range(150):
        t = rand_ground_term(rng, 1)
        for _ in range(rng.randint(1, 200)):
            name, arity = rng.choice(SIG_FUNCS)
            args = [t] + [rand_ground_term(rng, 1) for _ in range(arity - 1)]
            rng.shuffle(args)
            t = Fn(name, args)
        e1 = Atom("p", (_vary(rng, t, ["X", "Y", "Z"]),))
        e2 = Atom("p", (_vary(rng, t, ["U", "W", "Z"]),))
        expected = ref_mgu(e1, e2)
        assert mgu(e1, e2) == expected
        if expected is None:
            failed += 1
        else:
            unified += 1
            deep += any(type(u) is Fn for u in expected.values())
    assert unified > 100 and failed > 20 and deep > 100, (unified, failed, deep)


def test_rename_apart():
    c = cl("p(X) -> q(X)")
    r = rename_apart(c, {x})
    assert x not in vars_of(r)
    assert len(vars_of(r)) == 1
    g = cl("p(a) -> q(a)")
    assert rename_apart(g, {x, y}) == g
    # variant up to systematic renaming: shape preserved
    r2 = rename_apart(cl("p(X), q(Y) -> r(X)"), set())
    assert len(r2.antecedent) == 2 and len(vars_of(r2)) == 2


def test_vars_in_order_is_first_occurrence_preorder():
    z = Var("Z")
    # antecedent first, in canonical atom order: p(Z) sorts before q(Y,f(X))
    assert list(vars_in_order(cl("q(Y,f(X)), p(Z) -> q(X,W)"))) == [z, y, x, w]
    assert list(vars_in_order(tm("g(f(g(X,Y)),X)"))) == [x, y]
    # iterative: nesting far past the recursion limit is fine
    deep = x
    for _ in range(5000):
        deep = Fn("f", (deep,))
    assert list(vars_in_order(Atom("p", (deep, y)))) == [x, y]
    assert not deep.ground


def test_freeze_examples():
    c = cl("q(f(W),W) ->")
    frozen_c, fmap = freeze(c)
    assert frozen_c.ground
    assert str(frozen_c) == "q(f(#1),#1) ->"
    assert fmap == {w: Fn("#1")}

    g = cl("p(a) -> q(b)")
    frozen_g, gmap = freeze(g)
    assert frozen_g is g and gmap == {}  # a ground clause comes back as it is

    c2 = cl("p(X), q(Y) ->")
    frozen2, fmap2 = freeze(c2)
    assert str(frozen2) == "p(#1), q(#2) ->"
    assert fmap2 == {x: Fn("#1"), y: Fn("#2")}


def test_freeze_roundtrip():
    rng = random.Random(23)
    for _ in range(300):
        c = rand_clause(rng)
        frozen_c, fmap = freeze(c)
        assert frozen_c.ground
        assert unfreeze(fmap, frozen_c) == c


def test_signature_arity_conflicts():
    sig = Signature()
    sig.note_function("f", 1)
    with pytest.raises(ArityError):
        sig.note_function("f", 2)
    with pytest.raises(ArityError):
        sig.note_predicate("f", 1)
    # symbols are noted in left-to-right preorder: the g conflict comes
    # before the k one
    with pytest.raises(ArityError, match="'g' used with arities 1 and 2"):
        a, b, c, k = Fn("a"), Fn("b"), Fn("c"), Fn("k")
        Signature().scan_atom(Atom("h", (Fn("g", (a,)), Fn("g", (a, b)), Fn("k", (c,)), k)))


def test_equal_terms_are_one_object():
    assert Var("X") is Var("X")
    assert Fn("f", (Fn("a"), Var("X"))) is Fn("f", [Fn("a"), Var("X")])
    assert Atom("p", (Fn("a"),)) is at("p(a)")
    assert substitute({x: Fn("a")}, at("q(X,f(X))")) is at("q(a,f(a))")
    assert Var("a") is not Fn("a")


def test_terms_are_immutable():
    for t in (Var("X"), Fn("f", (Fn("a"),)), at("p(a)")):
        with pytest.raises(AttributeError):
            t.name = "other"
        with pytest.raises(AttributeError):
            t.args = ()
        with pytest.raises(AttributeError):
            del t.ground


def test_copies_pickles_and_reprs_of_terms_are_the_interned_objects():
    # __reduce__ rebuilds a term through its constructor, so a copy is the
    # one interned object.  copy and pickle recurse once per level, so the
    # term is 50 deep, not thousands.
    deep = x
    for i in range(50):
        deep = Fn("g", (deep, Var(f"Y{i}"))) if i % 2 else Fn("f", (deep, Fn("a")))
    atom = Atom("p", (deep, y))
    clause = Clause([atom, at("r(X)")], [at("q(X,a)")])
    for copied in (copy.deepcopy(clause), pickle.loads(pickle.dumps(clause))):
        assert copied == clause
        atoms = zip(copied.antecedent + copied.succedent, clause.antecedent + clause.succedent)
        assert all(a is b for a, b in atoms)
    for e in (atom, deep, y):
        for copied in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert copied is e
        assert eval(repr(e), {"Atom": Atom, "Fn": Fn, "Var": Var}) is e


def test_an_atom_and_a_term_with_one_symbol_and_arguments_are_two_objects():
    # Fn and Atom share one constructor but not its table, whichever of
    # the two is built first
    cases = (("p", ()), ("f", (Fn("a"), x)), ("g", (Fn("g", (y,)),)), ("s_only", (y,)))
    for i, (name, args) in enumerate(cases):
        if i % 2:
            atom, term = Atom(name, args), Fn(name, args)
        else:
            term, atom = Fn(name, args), Atom(name, args)
        assert type(term) is Fn and type(atom) is Atom
        assert term is not atom and term != atom
        assert Fn(name, args) is term and Atom(name, args) is atom
        assert (term.name, term.args, term.ground) == (atom.name, atom.args, atom.ground)
        assert not isinstance(atom, Fn) and not isinstance(term, Atom)
        assert repr(atom) == "Atom" + repr(term)[len("Fn"):]


def _ref_vars(t, out):
    """First-occurrence preorder variables, by plain recursion."""
    if isinstance(t, Var):
        out.setdefault(t, None)
    else:
        for a in t.args:
            _ref_vars(a, out)
    return out


def test_stored_groundness_and_key_agree_with_references():
    rng = random.Random(29)
    atoms = [
        a for _ in range(300) for a in sorted(rand_clause(rng, depth=3).atom_set(), key=atom_key)
    ]
    for a in atoms:
        for t in (a, *{s for arg in a.args for s in subterms(arg)}):
            assert t.ground == (not _ref_vars(t, {})) == (not vars_in_order(t))
            assert list(vars_in_order(t)) == list(_ref_vars(t, {}))
        assert atom_key(a) is atom_key(a)
    for a, b in zip(atoms, atoms[1:]):
        assert (atom_key(a) < atom_key(b)) == (ref_atom_key(a) < ref_atom_key(b))


def test_stored_atom_symbols_agree_with_a_recursive_walk():
    rng = random.Random(31)
    for _ in range(300):
        for a in rand_clause(rng, depth=3).atom_set():
            names = {a.name} | {s.name for t in a.args for s in subterms(t) if isinstance(s, Fn)}
            assert atom_symbols(a) == names
            assert atom_symbols(a) is atom_symbols(a)
    deep = Fn("a")
    for _ in range(5000):
        deep = Fn("f", (deep,))
    assert atom_symbols(Atom("p", (deep,))) == {"p", "f", "a"}


def test_deep_terms_need_no_recursion():
    depth = 5000
    ground, open_ = Fn("a"), x
    for _ in range(depth):
        ground, open_ = Fn("f", (ground,)), Fn("f", (open_,))
    assert Fn("f", (ground.args[0],)) is ground
    assert hash(ground) == hash(ground) and ground == ground and ground != open_
    atoms = {Atom("p", (ground,)), Atom("p", (open_,))}
    assert Atom("p", (ground,)) in atoms and len(atoms) == 2
    assert len(atom_key(Atom("p", (ground,)))) == 1 + 3 * (depth + 1)
    assert ground.ground and not open_.ground
    assert list(vars_in_order(Atom("p", (open_, y)))) == [x, y]
    text = str(Atom("p", (ground,)))
    assert text == "p(" + "f(" * depth + "a" + ")" * (depth + 1)


def test_signatures_subterms_and_the_oracle_walk_deep_terms():
    depth = 5000
    deep = Fn("a")
    for _ in range(depth):
        deep = Fn("f", (deep,))
    unit = Clause((), (Atom("p", (deep,)),))
    sig = Signature()
    sig.scan_clause(unit)
    assert sig.functions == {"f": 1, "a": 0} and sig.predicates == {"p": 1}
    assert len(subterms(deep)) == depth + 1
    # ground clauses only: the oracle scans and seeds the goal's subterms but
    # builds no term layer
    assert oracle_entails([unit], unit, HerbrandBound(0)).verdict == "entailed"


def test_threads_building_the_same_terms_share_one_object_each():
    def build(out):
        barrier.wait(timeout=10)
        out.extend(
            Atom("interned_p", (Fn("interned_f", (Fn(f"interned_c{i}"), Var(f"X{i}"))),))
            for i in range(1000)
        )

    barrier = threading.Barrier(4)
    results = [[] for _ in range(4)]
    threads = [threading.Thread(target=build, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == 1000 for out in results)
    for built in zip(*results):
        assert len({id(a) for a in built}) == 1
        assert len({id(a.args[0]) for a in built}) == 1
