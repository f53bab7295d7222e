"""Resolution inference enumeration, ordering side conditions, and why
factoring is left out."""

import glob
import itertools
import random
from pathlib import Path

from helpers import (
    at,
    cl,
    plain_resolvents,
    rand_clause,
    ref_a_priori_resolvents,
    rename_apart,
    sig_ordering,
    unifying_pair,
    variant_equal,
)
from satloc import Clause, Ordering, RewriteSystem, parse_problem
from satloc.entailment import clause_redundant
from satloc.resolution import a_priori_factors, is_a_posteriori
from satloc.terms import substitute, vars_of

CORPUS = sorted(glob.glob(str(Path(__file__).parent / "corpus" / "*.p")))


def test_paper_remark_example():
    o = Ordering(["a", "b"])
    c1 = cl("i(b,Y) -> i(X,Y)")
    c2 = cl("i(a,b) ->")
    infs = ref_a_priori_resolvents(o, c1, c2)
    assert len(infs) == 1
    inf = infs[0]
    assert inf.conclusion == cl("i(b,b) ->")
    assert inf.premise_instances == (cl("i(b,b) -> i(a,b)"), c2)
    assert inf.resolved_atom == at("i(a,b)")


def test_worked_nonmaximality_inference():
    o = Ordering(["f", "g", "a"])
    c1 = cl("-> p(g(W,W))")
    c2 = cl("p(g(X,Y)), q(f(Y),X) ->")
    infs = ref_a_priori_resolvents(o, c1, c2)
    assert len(infs) == 1
    inf = infs[0]
    assert len(vars_of(inf.conclusion)) == 1
    v = next(iter(vars_of(inf.conclusion)))
    assert substitute({v: at("p(a)").args[0]}, inf.conclusion) == cl("q(f(a),a) ->")
    assert not is_a_posteriori(o, inf)


def test_no_complementary_pair():
    o = Ordering(["a"])
    assert ref_a_priori_resolvents(o, cl("-> p(a)"), cl("q(a) ->")) == []


def test_factor_example():
    o = Ordering(["f", "a"])
    c = cl("-> p(X), p(Y), q(f(Y),Y)")
    infs = a_priori_factors(o, c)
    assert len(infs) == 1
    inf = infs[0]
    assert inf.conclusion == cl("-> p(Y), q(f(Y),Y)")
    assert a_priori_factors(o, cl("-> p(a)")) == []
    assert a_priori_factors(o, cl("p(X), p(Y) ->")) == []  # succedent only


def _factor_cases():
    """(ordering, clause) for the corpus clauses and 2 000 random ones."""
    cases = []
    for path in CORPUS:
        problem = parse_problem(Path(path).read_text(encoding="utf-8"))
        cases += [(problem.ordering, c) for c in problem.clauses]
    rng = random.Random(131)
    ordering = sig_ordering()
    cases += [(ordering, rand_clause(rng, max_side=4)) for _ in range(2000)]
    return cases


def test_every_factor_is_redundant():
    # Clauses are atom sets, so a factor's frozen conclusion is a ground
    # instance of its own premise inside its own atoms: the premise alone
    # proves it locally, without any rule.  This is why saturate and verify
    # use resolution only.
    factors = 0
    for o, c in _factor_cases():
        for inf in a_priori_factors(o, c):
            assert clause_redundant([c], RewriteSystem(), inf.conclusion), str(inf)
            factors += 1
    assert factors > 100, factors


def test_a_factor_is_a_value_of_its_unified_pair():
    # a factor keeps the images of its premise's atoms, not a unifier: its
    # premise instance is put back together from them, and equals the
    # premise under the mgu of the two atoms it factors (the corpus has one
    # factor, the random clauses the rest)
    factors = 0
    for o, c in _factor_cases():
        for inf in a_priori_factors(o, c):
            assert unifying_pair(o, inf) is not None, str(inf)
            ((ant, suc),) = inf.sides
            assert inf.conclusion == Clause(ant, suc)
            factors += 1
    assert factors > 100, factors


def test_posteriori_unit_case():
    o = Ordering(["a"])
    infs = ref_a_priori_resolvents(o, cl("-> p(a)"), cl("p(a) ->"))
    assert len(infs) == 1
    assert infs[0].conclusion == Clause()
    assert is_a_posteriori(o, infs[0])


def test_plain_rules_examples():
    infs = plain_resolvents(cl("-> p(a)"), cl("p(a) ->"))
    assert [i.conclusion for i in infs] == [Clause()]
    infs2 = plain_resolvents(cl("-> p(X)"), cl("p(f(Y)) -> q(Y)"))
    assert len(infs2) == 1 and variant_equal(infs2[0].conclusion, cl("-> q(Y)"))
    assert plain_resolvents(cl("-> p(a)"), cl("q(a) ->")) == []


def _models(atoms):
    atoms = sorted(atoms, key=str)
    for bits in itertools.product([False, True], repeat=len(atoms)):
        yield dict(zip(atoms, bits))


def _true_in(c, model):
    return any(not model[a] for a in c.antecedent) or any(model[b] for b in c.succedent)


def test_soundness_on_ground_inferences():
    from helpers import rand_grounding

    rng = random.Random(83)
    checked = 0
    for _ in range(2000):
        c1, c2 = rand_clause(rng, depth=1), rand_clause(rng, depth=1)
        for inf in plain_resolvents(c1, c2):
            involved = inf.premise_instances + (inf.conclusion,)
            theta = rand_grounding(rng, set().union(*(vars_of(c) for c in involved)))
            ground = [substitute(theta, c) for c in involved]
            atoms = set().union(*(c.atom_set() for c in ground))
            if len(atoms) > 8:
                continue
            for model in _models(atoms):
                if all(_true_in(p, model) for p in ground[:-1]):
                    assert _true_in(ground[-1], model)
            checked += 1
        if checked > 150:
            break
    assert checked > 150


def test_a_priori_contains_a_posteriori():
    # every ordering-respecting plain inference that passes the a posteriori
    # check is enumerated by the a priori rule
    rng = random.Random(89)
    ordering = sig_ordering()
    hits = 0
    for _ in range(4000):
        c1, c2 = rand_clause(rng), rand_clause(rng)
        priori = {
            (i.conclusion, i.resolved_atom) for i in ref_a_priori_resolvents(ordering, c1, c2)
        }
        for inf in plain_resolvents(c1, c2):
            if is_a_posteriori(ordering, inf):
                hits += 1
                assert (inf.conclusion, inf.resolved_atom) in priori
    assert hits > 60


def test_renaming_invariance():
    rng = random.Random(97)
    ordering = sig_ordering()
    for _ in range(300):
        c1, c2 = rand_clause(rng), rand_clause(rng)
        base = ref_a_priori_resolvents(ordering, c1, c2)
        renamed = ref_a_priori_resolvents(
            ordering, rename_apart(c1, vars_of(c2)), rename_apart(c2, vars_of(c1))
        )
        assert len(base) == len(renamed)
        for i1, i2 in zip(base, renamed):
            assert variant_equal(i1.conclusion, i2.conclusion)


def test_resolution_collapse_blocks_strictness():
    # a sibling atom collapsing onto the resolved atom defeats strict maximality
    o = Ordering(["f", "a"])
    c1 = cl("-> p(X), p(f(a))")
    c2 = cl("p(f(a)) ->")
    infs = ref_a_priori_resolvents(o, c1, c2)
    assert len(infs) == 2
    by_conclusion = {str(i.conclusion): i for i in infs}
    collapsing = by_conclusion["-> p(f(a))"]  # resolved p(X), sibling collapses
    assert not is_a_posteriori(o, collapsing)
    other = by_conclusion["-> p(X)"]  # resolved p(f(a)), sibling stays distinct
    assert is_a_posteriori(o, other)
