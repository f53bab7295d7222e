"""Local instance enumeration, ground SAT, local decisions, redundancy."""

import random
import sys

import pytest

import make_corpus
from helpers import (
    at,
    cl,
    ground_terms_up_to,
    inference_redundant,
    rand_clause,
    rand_ground_atom,
    rand_ground_clause,
    ref_a_priori_resolvents,
    ref_dpll,
    ref_enumerate_local_instances,
    ref_subsumes,
    ref_variant_equal,
    rename_apart,
    sig_ordering,
    truth_table_satisfiable,
    variant_equal,
)
import satloc.entailment
from satloc import Clause, Ordering, RewriteSystem, parse_problem, saturate
from satloc.entailment import (
    _dpll,
    clause_redundant,
    decide_local,
    enumerate_local_instances,
    ground_sat,
    negated_units,
    subsumes,
)
from satloc.rewriting import rules_of
from satloc.saturation import LIMIT_REACHED
from satloc.terms import Atom, Fn, Var, atom_key, substitute, vars_of

FG = Ordering(["f", "g", "a"])
WORKED_S = [cl("-> p(g(W,W))"), cl("p(g(X,Y)), q(f(Y),X) ->")]
WORKED_R = RewriteSystem.of(FG, [(at("q(f(W),W)"), at("p(g(W,W))"))])
# one clause of 1 200 atoms, more than the default recursion limit
WIDE = Clause([Atom("p", (Var(f"X{i}"),)) for i in range(1200)], [at("q")])


def test_enumerate_local_instances_examples():
    uni = {at("p(g(a,a))"), at("q(f(a),a)")}
    assert enumerate_local_instances([cl("-> p(g(W,W))")], uni) == {cl("-> p(g(a,a))")}
    assert enumerate_local_instances([cl("-> p(g(W,W))")], {at("p(a)")}) == set()
    got = enumerate_local_instances(
        [cl("p(X) -> q(X,X)")], {at("p(a)"), at("q(a,a)"), at("p(b)")}
    )
    assert got == {cl("p(a) -> q(a,a)")}
    # the search takes no frame per goal
    assert enumerate_local_instances([WIDE], {at("p(a)"), at("q")}) == {cl("p(a) -> q")}


def test_enumerate_includes_empty_clause():
    assert enumerate_local_instances([Clause()], set()) == {Clause()}


def _grounded_universe(rng, clauses, space):
    """Ground instances of random clause atoms plus noise, some dropped."""
    universe = set()
    for d in clauses:
        for _ in range(rng.randint(0, 3)):
            sigma = {v: rng.choice(space) for v in vars_of(d)}
            universe |= {substitute(sigma, a) for a in sorted(d.atom_set(), key=atom_key) if rng.random() < 0.9}
    universe |= {rand_ground_atom(rng, depth=1) for _ in range(rng.randint(0, 4))}
    return universe


def test_enumerate_agrees_with_scan_reference():
    rng = random.Random(127)
    space = ground_terms_up_to(1, funcs=[("f", 1), ("g", 2)], consts=["a", "b"])
    fixed = [
        cl("-> q(W,W)"),  # repeated variable
        cl("p(g(W,W)) -> q(W,f(W))"),
        Clause(),  # the empty clause
        cl("p(X), q(X,Y), q(Y,Z) -> r(Z)"),  # a join over three atoms
        cl("p(X), s -> r(X)"),
        cl("p(X) -> p(X)"),  # tautologies: an atom on both sides
        cl("p(a), q(a,a) -> p(a)"),
    ]
    produced = 0
    for _ in range(300):
        clauses = rng.sample(fixed, rng.randint(0, 2))
        clauses += [rand_clause(rng, max_side=3, depth=1) for _ in range(rng.randint(1, 3))]
        universe = _grounded_universe(rng, clauses, space)
        got = enumerate_local_instances(clauses, universe)
        assert got == ref_enumerate_local_instances(clauses, universe), (
            [str(c) for c in clauses],
            sorted(map(str, universe)),
        )
        produced += len(got)
    assert produced > 1000


def test_enumerate_skips_predicates_missing_from_universe():
    uni = {at("p(a)"), at("p(b)")}
    assert enumerate_local_instances([cl("p(X) -> r(X)")], uni) == set()
    assert enumerate_local_instances([cl("p(X), q(X,Y) ->")], uni) == set()
    assert enumerate_local_instances([cl("p(X) ->")], uni) == {cl("p(a) ->"), cl("p(b) ->")}


def test_enumerate_rejects_nonground_universe():
    with pytest.raises(ValueError):
        enumerate_local_instances([cl("-> p(a)")], {at("p(X)")})


def test_ground_sat_examples():
    assert ground_sat([cl("-> p(a)"), cl("p(a) ->")]) is None
    model = ground_sat([cl("-> p(a)")])
    assert model is not None and model[at("p(a)")] is True
    trio = [cl("-> p(g(a,a))"), cl("p(g(a,a)), q(f(a),a) ->"), cl("-> q(f(a),a)")]
    assert ground_sat(trio) is None
    assert ground_sat([Clause()]) is None
    assert ground_sat([]) == {}


def test_ground_sat_matches_truth_tables():
    rng = random.Random(101)
    for _ in range(500):
        clauses = {rand_ground_clause(rng, depth=1) for _ in range(rng.randint(1, 6))}
        expected = truth_table_satisfiable(clauses)
        model = ground_sat(clauses)
        assert (model is not None) == expected
        if model is not None:
            for c in clauses:
                assert any(not model[a] for a in c.antecedent) or any(
                    model[b] for b in c.succedent
                )


def calls_to(name: str, fn, *args):
    """fn(*args) and the number of calls it made to functions of
    satloc.entailment named `name`, nested functions included."""
    calls = 0
    module_file = satloc.entailment.__file__

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and (code.co_filename, code.co_name) == (module_file, name):
            calls += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(old)
    return result, calls


def checked_ground_sat(clauses) -> int:
    """Check ground_sat against the truth table, and its model; return the
    number of assignments DPLL undid while backtracking."""
    model, undone = calls_to("unassign", ground_sat, clauses)
    assert (model is not None) == truth_table_satisfiable(clauses)
    if model is not None:
        for c in clauses:
            assert any(not model[a] for a in c.antecedent) or any(model[b] for b in c.succedent)
    return undone


def test_ground_sat_backtracks():
    # three pigeons, two holes: unsatisfiable, and unit propagation alone
    # cannot show it
    pigeons = [cl(f"-> in{i}1, in{i}2") for i in range(3)]
    holes = [cl(f"in{i}{h}, in{j}{h} ->") for h in (1, 2) for i in range(3) for j in range(i)]
    assert checked_ground_sat(pigeons + holes) == 11
    # satisfiable only once the first decision, a false, is flipped to true
    assert checked_ground_sat([cl("-> a, b"), cl("-> a, c"), cl("b, c ->")]) == 3
    # dense random sets: three of at most 8 atoms per clause, split between
    # the sides at random
    rng = random.Random(211)
    backtracked = 0
    for _ in range(300):
        atoms = [Atom(f"x{i}") for i in range(rng.randint(4, 8))]
        clauses = []
        for _ in range(rng.randint(4, 14)):
            three, k = rng.sample(atoms, 3), rng.randint(0, 3)
            clauses.append(Clause(three[:k], three[k:]))
        backtracked += checked_ground_sat(clauses) > 0
    assert backtracked >= 30


def test_dpll_matches_the_counter_based_reference():
    # seeded random CNFs over 1-12 variables, without tautologies and in
    # ground_sat's clause order; the search is the same, so the models are
    rng = random.Random(307)
    unsat = 0
    for _ in range(5000):
        n = rng.randint(1, 12)
        cnf = set()
        for _ in range(rng.randint(0, 40)):
            lits = frozenset(
                v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), min(n, rng.randint(1, 4)))
            )
            cnf.add(lits)
        cnf = sorted(cnf, key=sorted)
        expected = ref_dpll(cnf)
        assert _dpll(cnf) == expected, cnf
        unsat += expected is None
    assert 500 <= unsat <= 4500


def test_decide_local_examples():
    uni = {at("q(f(a),a)"), at("p(g(a,a))")}
    cert = decide_local(WORKED_S, uni, cl("q(f(a),a) ->"))
    assert cert is not None
    assert cert.validate()
    assert cert.atom_universe == frozenset(uni)

    taut = decide_local([], {at("p(a)")}, cl("p(a) -> p(a)"))
    assert taut is not None and not taut.instances

    assert decide_local([], {at("p(a)")}, cl("-> p(a)")) is None


def test_decide_local_preconditions():
    with pytest.raises(ValueError):
        decide_local([], set(), cl("-> p(X)"))
    with pytest.raises(ValueError):
        decide_local([], set(), cl("-> p(a)"))  # atoms outside universe


def test_decide_local_monotone():
    rng = random.Random(103)
    base_uni = {at("q(f(a),a)"), at("p(g(a,a))")}
    goal = cl("q(f(a),a) ->")
    assert decide_local(WORKED_S, base_uni, goal) is not None
    # growing S or the universe preserves provability
    bigger_s = WORKED_S + [rand_ground_clause(rng) for _ in range(3)]
    assert decide_local(bigger_s, base_uni, goal) is not None
    bigger_uni = base_uni | {at("r(b)"), at("p(b)")}
    assert decide_local(WORKED_S, bigger_uni, goal) is not None


def test_negated_units():
    assert negated_units(cl("p(a) -> q(a,a), r(b)")) == {
        cl("-> p(a)"),
        cl("q(a,a) ->"),
        cl("r(b) ->"),
    }
    assert negated_units(Clause()) == set()


def test_clause_redundant_examples():
    # a clause present in S is redundant
    assert clause_redundant(WORKED_S, WORKED_R, WORKED_S[0])
    assert clause_redundant(WORKED_S, WORKED_R, WORKED_S[1])
    # a subsumed clause is redundant
    assert clause_redundant([cl("p(X) -> q(X,X)")], RewriteSystem(), cl("p(a), r(a) -> q(a,a)"))
    # the worked frozen example
    assert clause_redundant(WORKED_S, WORKED_R, cl("q(f(W),W) ->"))
    # without the rule the reach set is too small
    assert not clause_redundant(WORKED_S, RewriteSystem(), cl("q(f(W),W) ->"))


def test_inference_redundant_examples():
    o = sig_ordering()
    # conclusion already in S
    c1, c2 = cl("-> p(a)"), cl("p(a) -> r(b)")
    (inf,) = ref_a_priori_resolvents(o, c1, c2)
    assert inf.conclusion == cl("-> r(b)")
    assert inference_redundant([c1, c2, cl("-> r(b)")], RewriteSystem(), inf)

    # worked non-maximality inference: redundant with the harvested rules
    (inf2,) = ref_a_priori_resolvents(FG, WORKED_S[0], WORKED_S[1])
    harvested = rules_of(FG, inf2.premise_instances)
    assert inference_redundant(WORKED_S, harvested, inf2)
    # the conclusion-level check alone suffices
    assert clause_redundant(WORKED_S, harvested, inf2.conclusion)

    # complementary units: conclusion-level test fails on the empty reach set,
    # but the premises refute themselves inside their own frozen universes,
    # so the full test (premise escape) still reports redundant
    u1, u2 = cl("-> p(X)"), cl("p(Y) ->")
    (inf3,) = ref_a_priori_resolvents(o, u1, u2)
    assert inf3.conclusion == Clause()
    assert not clause_redundant([u1, u2], RewriteSystem(), inf3.conclusion)
    assert inference_redundant([u1, u2], RewriteSystem(), inf3)

    # premises outside S with a fresh conclusion: nothing is redundant
    (inf4,) = ref_a_priori_resolvents(o, cl("-> p(b)"), cl("p(b) -> r(b)"))
    assert not inference_redundant([cl("-> q(a,a)")], RewriteSystem(), inf4)


def test_subsumes_examples():
    assert subsumes(cl("p(X) -> q(X,X)"), cl("p(a), r(a) -> q(a,a)"))
    assert not subsumes(cl("p(a) ->"), cl("p(b) ->"))
    c = cl("p(X) -> q(X,X)")
    assert subsumes(c, c)
    assert subsumes(cl("-> p(X), p(Y)"), cl("-> p(a)"))  # set semantics collapse
    assert not subsumes(cl("p(a) -> q(a,a)"), cl("p(a) ->"))
    # variable names shared between the two clauses do not interfere
    assert subsumes(cl("q(X,Y) ->"), cl("q(Y,X) ->"))
    assert subsumes(cl("q(X,Y) -> p(Y)"), cl("q(Y,X) -> p(X)"))
    assert not subsumes(cl("q(X,Y) -> p(X)"), cl("q(Y,X) -> p(X)"))
    assert subsumes(WIDE, cl("p(a) -> q"))
    assert not subsumes(WIDE, cl("p(a), p(b) ->"))


def test_subsumes_never_binds_target_variables():
    # matching p3(X) onto p3(f(X)) binds the pattern's X to f(X); the
    # antecedent p1(f(X)) would need X := X, which disagrees
    assert not subsumes(cl("p1(f(X)) -> p3(X)"), cl("p1(f(X)), p2(X) -> p3(f(X))"))
    # needs Y := a from the succedent, but q(a,X') is not in the antecedent
    assert not subsumes(cl("q(Y,X), r(Y) -> q(a,Y)"), cl("q(Y,X), r(Y), r(a) -> q(a,a)"))
    assert subsumes(cl("q(Y,X), r(Y) -> q(a,Y)"), cl("q(a,b), r(a), r(b) -> q(a,a)"))


# A subsumption check met while saturating make_corpus.gen_mixed(
# random.Random(1072)): d's six q(Vi,b) antecedent atoms each match seven of
# c's, and d's q(V7,Y) can never match once V7 is bound by the deep atom.
# Matching the atoms in clause order tried every antecedent combination
# first and ran for minutes.
BIG_D = cl(
    "q(V0,b), q(V1,b), q(V2,b), q(V3,b), q(V4,b), q(V6,b), q(f(f(f(f(f(f(V7)))))),Y), r(b)"
    " -> p(a), q(V7,Y), q(f(a),f(V0)), q(f(a),f(V1)), q(f(a),f(V2)), q(f(a),f(V3)),"
    " q(f(a),f(V4)), q(f(a),f(V6))"
)
BIG_C = cl(
    "q(V0,b), q(V2,b), q(V3,b), q(V4,b), q(V6,b), q(V7,b), q(V8,b), q(f(f(f(f(f(f(f(V9))))))),Y),"
    " r(b) -> p(a), q(V9,Y), q(f(a),f(V0)), q(f(a),f(V2)), q(f(a),f(V3)), q(f(a),f(V4)),"
    " q(f(a),f(V6)), q(f(a),f(V7)), q(f(a),f(V8))"
)


def count_calls(monkeypatch, name: str, limit: int | None = None) -> list[int]:
    """Count the calls satloc.entailment makes to `name`; past the limit,
    fail."""
    import satloc.entailment

    calls = [0]
    original = getattr(satloc.entailment, name)

    def counted(*args):
        calls[0] += 1
        if limit is not None and calls[0] > limit:
            raise AssertionError(f"more than {limit} {name} calls")
        return original(*args)

    monkeypatch.setattr(satloc.entailment, name, counted)
    return calls


def size(c: Clause) -> int:
    return len(c.antecedent) + len(c.succedent)


def test_clause_matching_matches_each_atom_pair_at_most_once(monkeypatch):
    # a count, not a timing: each pattern atom is matched against each
    # target atom of its side once, however much the search backtracks
    calls = count_calls(monkeypatch, "match_onto")
    assert (size(BIG_D), size(BIG_C)) == (16, 18)
    assert not subsumes(BIG_D, BIG_C)
    assert calls[0] <= size(BIG_D) * size(BIG_C), calls[0]
    calls[0] = 0
    renamed = rename_apart(BIG_C, vars_of(BIG_C))
    assert variant_equal(BIG_C, renamed)
    assert calls[0] <= size(BIG_C) ** 2, calls[0]


def test_enumeration_matches_each_atom_against_its_bucket_once(monkeypatch):
    # a count, not a timing: the instances of p(X), q(Y) -> r(X) are the
    # product of the p and q matches, but each clause atom is matched against
    # each member of its predicate's bucket once, not once per partial instance
    universe = {at(f"p(a{i})") for i in range(4)} | {at(f"q(b{i})") for i in range(5)}
    universe |= {at(f"r(a{i})") for i in range(4)} | {at("r(c0)"), at("r(c1)")}
    calls = count_calls(monkeypatch, "match_onto")
    # the second clause has p(X) on both sides, and it is matched once
    for d in (cl("p(X), q(Y) -> r(X)"), cl("p(X), q(Y) -> r(X), p(X)")):
        buckets = sum(len([u for u in universe if u.pred == a.pred]) for a in d.atom_set())
        calls[0] = 0
        got = enumerate_local_instances([d], universe)
        assert len(got) == 4 * 5
        assert got == ref_enumerate_local_instances([d], universe)
        assert calls[0] <= buckets, (calls[0], buckets)


def test_mixed_1072_saturation_stops_at_its_limit(monkeypatch):
    # a count, not a timing: saturating make_corpus.gen_mixed(Random(1072))
    # reaches the curation limits after about 10^5 matches; a join that
    # re-matched clause atoms at every node made over 10^6 without finishing,
    # stuck in one local instance enumeration (20 clauses, 8 variables,
    # 16 atoms, |U| = 18)
    # The search is bounded too, not only the matches: substitute serves the
    # lookups of fully bound goals and builds the instances, about 10^4
    # calls here.  A matcher that ordered the goals once, fewest matches
    # first, instead of choosing the goal with the fewest left at each
    # level, made 10^6 of them within 35 000 matches.
    problem = parse_problem(make_corpus.gen_mixed(random.Random(1072)))
    count_calls(monkeypatch, "match_onto", limit=200_000)
    count_calls(monkeypatch, "substitute", limit=100_000)
    state = saturate(problem.ordering, problem.clauses, make_corpus.CURATION_LIMITS)
    assert state.status == LIMIT_REACHED


def test_failing_variant_check_never_combines_clashing_renamings(monkeypatch):
    # a count, not a timing: d is a variant of BIG_C except that one of its
    # seven interchangeable q(V,b) atoms became q(a,b), so every embedding
    # sends two variables of BIG_C to one of d or one to a; a search that
    # combined all consistent matches would yield 7^7 embeddings, each
    # rejected only once complete
    yielded = [0]
    embeddings = satloc.entailment._embeddings

    def counted(*args):
        for sigma in embeddings(*args):
            yielded[0] += 1
            assert yielded[0] <= 100, "variant search yields non-renamings"
            yield sigma

    monkeypatch.setattr(satloc.entailment, "_embeddings", counted)
    renamed = rename_apart(BIG_C, vars_of(BIG_C))
    d = substitute({Var("V1"): Fn("a")}, renamed)
    assert d != renamed
    assert not variant_equal(BIG_C, d)
    assert yielded[0] == 0
    assert variant_equal(BIG_C, renamed)
    assert yielded[0] == 1


INSTANCE_TERMS = [Var("X"), Var("Y"), Var("Z")] + ground_terms_up_to(
    1, funcs=[("f", 1)], consts=["a", "b"]
)


def _instance_with_extras(rng, d: Clause) -> Clause:
    """d under a random substitution, plus random atoms on either side."""
    inst = substitute({v: rng.choice(INSTANCE_TERMS) for v in vars_of(d)}, d)
    extra = rand_clause(rng, depth=1)
    return Clause(inst.antecedent + extra.antecedent, inst.succedent + extra.succedent)


def _renamed(rng, d: Clause) -> Clause:
    """A variant of d, or, half the time, one with two variables merged."""
    renamed = rename_apart(d, vars_of(d))
    own = sorted(vars_of(renamed), key=lambda v: v.name)
    if len(own) >= 2 and rng.random() < 0.5:
        return substitute({own[0]: own[1]}, renamed)
    return renamed


def test_subsumes_and_variants_agree_with_backtracking_references():
    rng = random.Random(137)
    hits = variants = misses = 0
    for _ in range(3000):
        d = rand_clause(rng, max_side=3, depth=1)
        if rng.random() < 0.3:
            c = rand_clause(rng, max_side=3, depth=1)
        else:
            c = _instance_with_extras(rng, d)
        expected = ref_subsumes(d, c)
        assert subsumes(d, c) == expected, (str(d), str(c))
        hits += expected
        e = _renamed(rng, d) if rng.random() < 0.7 else c
        expected = ref_variant_equal(d, e)
        assert variant_equal(d, e) == expected, (str(d), str(e))
        variants += expected
        misses += not expected
    assert hits > 1000 and variants > 1000 and misses > 500, (hits, variants, misses)


def test_subsumption_implies_a_local_proof():
    # saturate and verify_saturated try subsumption before the local proof
    # (ClauseIndex.redundancy); that can change no verdict only because a
    # clause subsumed by one of the clauses is locally provable from them
    rng = random.Random(149)
    ordering = sig_ordering()
    for _ in range(1500):
        d = rand_clause(rng, max_side=3, depth=1)
        c = _instance_with_extras(rng, d)
        assert subsumes(d, c)
        assert clause_redundant([d], RewriteSystem(), c), (str(d), str(c))
        clauses = [rand_clause(rng, depth=1) for _ in range(rng.randint(1, 3))] + [d]
        rules = rules_of(ordering, clauses)
        assert clause_redundant(clauses, rules, c), ([str(e) for e in clauses], str(c))


def test_freezing_lifts_to_all_ground_instances():
    # clause_redundant decides on one frozen generic instance; every real
    # ground instance must then be locally provable as well
    import itertools

    from helpers import ground_terms_up_to, rand_clause
    from satloc import saturate
    from satloc.rewriting import reach_clause
    from satloc.terms import sorted_vars, substitute

    rng = random.Random(113)
    ordering = sig_ordering()
    space = ground_terms_up_to(1, funcs=[("f", 1)], consts=["a", "b"])
    checked = 0
    for _ in range(400):
        clauses = [rand_clause(rng, depth=1) for _ in range(rng.randint(1, 3))]
        state = saturate(ordering, clauses)
        if state.status != "saturated":
            continue
        candidate = rand_clause(rng, depth=1)
        if not clause_redundant(state.clauses, state.rules, candidate):
            continue
        variables = sorted_vars(candidate)
        if len(variables) > 2:
            continue
        for values in itertools.product(space, repeat=len(variables)):
            instance = substitute(dict(zip(variables, values)), candidate)
            universe = reach_clause(state.rules, instance)
            assert decide_local(state.clauses, universe, instance) is not None, (
                clauses,
                str(candidate),
                str(instance),
            )
            checked += 1
    assert checked > 50


def test_certificate_revalidation():
    uni = {at("q(f(a),a)"), at("p(g(a,a))")}
    cert = decide_local(WORKED_S, uni, cl("q(f(a),a) ->"))
    assert cert.validate()
    # tampering breaks validation
    from satloc.entailment import LocalCertificate

    broken = LocalCertificate(
        atom_universe=cert.atom_universe,
        instances=frozenset(),
        negated_goal=cert.negated_goal,
    )
    assert not broken.validate()
    escaping = LocalCertificate(
        atom_universe=frozenset({at("q(f(a),a)")}),
        instances=cert.instances,
        negated_goal=cert.negated_goal,
    )
    assert not escaping.validate()
