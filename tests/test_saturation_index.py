"""The predicate-indexed saturation loop and verifier against the all-pairs
reference loop (tests/helpers.py): same states, counters and violations,
with far fewer inference and subsumption attempts."""

import glob
import random
from pathlib import Path

import make_corpus
from helpers import (
    at,
    bench_workloads,
    cl,
    generated_problems,
    rand_clause,
    rand_term,
    ref_a_priori_resolvents,
    ref_saturate,
    ref_verify_saturated,
    sig_ordering,
)
from satloc import (
    Clause,
    Limits,
    RewriteSystem,
    SaturationState,
    parse_problem,
    parse_state,
    saturate,
    serialize_state,
    verify_saturated,
)
from satloc import resolution as resolution_module
from satloc import saturation as saturation_module
from satloc.entailment import clause_redundant, subsumes
from satloc.rewriting import reach_clause, rule_key, rules_of
from satloc.saturation import ClauseIndex, _features
from satloc import terms as terms_module
from satloc.terms import (
    Atom,
    Fn,
    Var,
    atom_symbols,
    freeze,
    substitute,
    vars_in_order,
    vars_of,
)
from satloc.orderings import Ordering

CORPUS = sorted(glob.glob(str(Path(__file__).parent / "corpus" / "*.p")))
COUNTERS = (
    "inferences_considered",
    "non_maximality",
    "redundant",
    "redundant_by_subsumption",
    "discovered",
    "deleted",
)

WORKED = "order: f > g > a\nclause: -> p(g(W,W))\nclause: p(g(X,Y)), q(f(Y),X) ->\n"
CHAIN_N = 12
CHAIN = (
    "order: f > a\nclause: -> p0(a)\n"
    + "".join(f"clause: p{i}(X) -> p{i + 1}(X)\n" for i in range(CHAIN_N))
    + f"clause: p{CHAIN_N}(f(X)) ->\n"
)


def assert_same_run(problem, limits=Limits()):
    ref = ref_saturate(problem.ordering, problem.clauses, limits)
    new = saturate(problem.ordering, problem.clauses, limits)
    assert serialize_state(new) == serialize_state(ref)
    for name in COUNTERS:
        assert getattr(new.stats, name) == getattr(ref.stats, name), name
    assert new.stats.items_processed <= ref.stats.items_processed
    return new


def test_saturate_matches_all_pairs_on_corpus():
    for path in CORPUS:
        assert_same_run(parse_problem(Path(path).read_text(encoding="utf-8")))


def test_saturate_matches_all_pairs_on_generated_problems():
    problems = generated_problems(250, seed=3)
    for problem in problems:
        state = assert_same_run(problem, make_corpus.CURATION_LIMITS)
        assert state.status == "saturated"


def without_one(state: SaturationState, rules, rng: random.Random) -> RewriteSystem:
    """The state's rules less one of `rules`, sorted, picked by `rng`."""
    rules = sorted(rules, key=rule_key)
    return RewriteSystem(state.rules.rules - {rules[rng.randrange(len(rules))]})


def tampered(state: SaturationState, rng: random.Random):
    """The state with one clause removed, and with one rule removed that
    its clauses do not give (verify, like parse_state, adds those back)."""
    out = []
    if state.clauses:
        clauses = list(state.clauses)
        del clauses[rng.randrange(len(clauses))]
        out.append((clauses, state.rules))
    harvested = state.rules.rules - rules_of(state.ordering, state.clauses).rules
    if harvested:
        out.append((state.clauses, without_one(state, harvested, rng)))
    return out


def tampering_states():
    """The saturated states of the corpus, of generated problems, and of the
    ground_mix and guarded_mix problems at seed 1, whose states hold more
    rules that the clauses do not give."""
    problems = [parse_problem(Path(p).read_text(encoding="utf-8")) for p in CORPUS]
    problems += generated_problems(60, seed=5)
    workloads = bench_workloads()
    for workload in (workloads.ground_mix(1), workloads.guarded_mix(1)):
        problems += [parse_problem(p.text) for p in workload.problems]
    states = [saturate(p.ordering, p.clauses, Limits(400, 40000)) for p in problems]
    return [state for state in states if state.status == "saturated"]


def test_verify_matches_all_pairs_on_tampered_states():
    rng = random.Random(11)
    checked = failing = 0
    for state in tampering_states():
        for clauses, rules in tampered(state, rng):
            new = verify_saturated(state.ordering, clauses, rules)
            assert new.violations == ref_verify_saturated(state.ordering, clauses, rules).violations
            checked += 1
            failing += not new.ok
    print(f"tampered states: {checked} checked, {failing} with violations")
    assert checked > 150 and failing > 30, (checked, failing)


def test_verify_reads_back_a_removed_clause_rule():
    # a rule that the clauses give is added back, so a state without it
    # gets the report of the whole state
    rng = random.Random(17)
    checked = 0
    for state in tampering_states():
        given = rules_of(state.ordering, state.clauses).rules
        if given:
            rules = without_one(state, given, rng)
            assert len(rules) == len(state.rules) - 1
            report = verify_saturated(state.ordering, state.clauses, rules)
            whole = verify_saturated(state.ordering, state.clauses, state.rules)
            assert report.violations == whole.violations
            assert report.violations == ref_verify_saturated(state.ordering, state.clauses, rules).violations
            checked += 1
    assert checked > 100, checked


def test_step_limit_at_the_last_inference_reports_saturated():
    # Pairs that cannot resolve are no longer queued, so a step limit equal
    # to the total inference count leaves an empty queue: the state is
    # saturated, which the all-pairs loop reported as a limit.
    problem = parse_problem(WORKED)
    full = saturate(problem.ordering, problem.clauses)
    limits = Limits(max_steps=full.stats.inferences_considered)
    assert ref_saturate(problem.ordering, problem.clauses, limits).status == "limit_reached"
    state = saturate(problem.ordering, problem.clauses, limits)
    assert state.status == "saturated"
    assert serialize_state(state) == serialize_state(full)
    assert verify_saturated(state.ordering, state.clauses, state.rules).ok


def test_index_follows_a_clause_list_built_elsewhere():
    problem = parse_problem(CHAIN)
    text = serialize_state(saturate(problem.ordering, problem.clauses))
    parsed = parse_state(text)
    state = SaturationState(ordering=parsed.ordering, clauses=parsed.clauses, rules=parsed.rules)
    assert [d.clause for d in state.index.live.values()] == state.clauses
    # variants of parsed clauses are found, new clauses queue their partners
    assert state.index.subsumed(cl("p3(Y) -> p4(Y)"))
    new = cl("p5(X) -> q(X)")
    assert not state.index.subsumed(new)
    state.add_clause(new)
    k = len(state.clauses) - 1
    partner = state.clauses.index(cl("p4(X) -> p5(X)"))
    assert (partner, k) in state.queue
    assert [d.clause for d in state.index.live.values()] == state.clauses


class CallCounter:
    """Counts the calls to a name the saturation module looks up (or to a
    method of `owner`), and keeps their results."""

    def __init__(self, monkeypatch, name, owner=saturation_module):
        self.calls = 0
        self.results = []
        original = getattr(owner, name)

        def counted(*args):
            self.calls += 1
            result = original(*args)
            self.results.append(result)
            return result

        monkeypatch.setattr(owner, name, counted)


def test_chain_attempts_are_counted_not_timed(monkeypatch):
    problem = parse_problem(CHAIN)
    resolvents = CallCounter(monkeypatch, "a_priori_resolvents")
    subsumes = CallCounter(monkeypatch, "subsumes")
    state = saturate(problem.ordering, problem.clauses)
    assert len(state.clauses) == 104 and state.stats.inferences_considered == 442
    # all pairs: 10 816 resolvent and 33 016 subsumption calls
    assert resolvents.calls <= 1000
    assert subsumes.calls <= 400
    resolvents.calls = 0
    assert verify_saturated(state.ordering, state.clauses, state.rules).ok
    assert resolvents.calls <= 500



def test_ground_mix_subsumption_attempts_are_pre_tested_by_features(monkeypatch):
    # forward subsumption tries only the live clauses whose symbols on
    # each side are among the new clause's; filtering by side predicates
    # alone made 908 calls
    attempts = CallCounter(monkeypatch, "subsumes")
    for bench_problem in bench_workloads().ground_mix(1).problems:
        problem = parse_problem(bench_problem.text)
        assert saturate(problem.ordering, problem.clauses).status == "saturated"
    assert attempts.calls <= 600, attempts.calls


def test_each_clause_meets_forward_subsumption_once(monkeypatch):
    # saturate scans for each input clause, and the redundancy test looks
    # each conclusion up in the set of live clauses and scans only on a
    # miss, before add_clause stores it
    scans = CallCounter(monkeypatch, "subsumed", ClauseIndex)
    hits = 0
    redundancy = ClauseIndex.redundancy

    def counted(index, rules, c):
        nonlocal hits
        before = scans.calls
        how = redundancy(index, rules, c)
        hits += scans.calls == before
        return how

    monkeypatch.setattr(ClauseIndex, "redundancy", counted)
    problem = parse_problem(CHAIN)
    state = saturate(problem.ordering, problem.clauses)
    conclusions = state.stats.inferences_considered - state.stats.non_maximality
    assert scans.calls + hits == len(problem.clauses) + conclusions == 14 + 442
    # 314 of the 352 conclusions that subsumption settles equal a live
    # clause; the other 38 are variants under other names, found by the scan
    assert hits == 314 and state.stats.redundant_by_subsumption == 352
    assert scans.calls == 14 + state.stats.discovered + 38 == 14 + 90 + 38
    scans.calls = hits = 0
    for bench_problem in bench_workloads().ground_mix(1).problems:
        problem = parse_problem(bench_problem.text)
        saturate(problem.ordering, problem.clauses)
    assert (scans.calls, hits) == (576, 21)
    # the index keeps nothing between calls beyond the live clauses
    assert set(vars(ClauseIndex(problem.ordering))) == {
        "ordering", "live", "_postings", "_clauses", "_numbers"
    }


def test_chain_settles_most_subsumed_conclusions_by_clause_equality(monkeypatch):
    # an equal live clause is found in the set with no subsumes call; a
    # variant under other names is found by the scan.  Before the set,
    # saturate made 352 subsumes calls and verify 442 scans.
    problem = parse_problem(CHAIN)
    subsumes_calls = CallCounter(monkeypatch, "subsumes")
    scans = CallCounter(monkeypatch, "subsumed", ClauseIndex)
    answers = CallCounter(monkeypatch, "redundancy", ClauseIndex)
    state = saturate(problem.ordering, problem.clauses)
    assert state.stats.redundant_by_subsumption == 352
    assert subsumes_calls.calls == 38
    subsumes_calls.calls = scans.calls = 0
    answers.results.clear()
    assert verify_saturated(state.ordering, state.clauses, state.rules).ok
    assert answers.results == ["subsumption"] * 442
    assert (subsumes_calls.calls, scans.calls) == (38, 38)


def _instance_of(rng, d: Clause) -> Clause:
    """d under a random substitution, sometimes with atoms added."""
    c = substitute({v: rand_term(rng, 1) for v in vars_of(d)}, d)
    if rng.random() < 0.5:
        extra = rand_clause(rng)
        c = Clause(c.antecedent + extra.antecedent, c.succedent + extra.succedent)
    return c


def test_the_subsumption_pre_test_admits_every_subsuming_pair_both_ways():
    # the feature pre-test is a necessary condition: whenever d subsumes c,
    # the forward scan tries d for c and the backward scan tries c for d
    rng = random.Random(23)
    ordering = sig_ordering()
    pairs = [(cl("q(X) -> p(f(Y)), p(f(a))"), cl("q(b) -> p(f(a))"))]
    for _ in range(1500):
        d = rand_clause(rng)
        pairs.append((d, rand_clause(rng) if rng.random() < 0.3 else _instance_of(rng, d)))
    hits = 0
    for d, c in pairs:
        if not subsumes(d, c):
            continue
        hits += 1
        for d_side, c_side in zip(_features(d), _features(c)):
            assert d_side <= c_side, (str(d), str(c))
        assert ClauseIndex(ordering, [d]).subsumed(c), (str(d), str(c))
        assert ClauseIndex(ordering, [c, d]).subsumed_by(1) == [0], (str(d), str(c))
    assert hits > 1000, hits


def test_subsumption_features_are_the_symbols_of_each_side():
    # term depth separated no pair the symbols admit, so it is no feature:
    # a deep unit clause has as many features as a shallow one
    deep = Fn("a")
    for _ in range(5000):
        deep = Fn("f", (deep,))
    c = Clause((), (Atom("p", (deep,)),))
    assert _features(c) == (frozenset(), {"p", "f", "a"})


def test_the_index_holds_live_clauses_only(monkeypatch):
    # ground_mix deletes clauses; with tombstones the index kept 87 of 468
    # stored clauses after deletion, and 49 renamed copies of them
    deleted = []
    delete = ClauseIndex.delete

    def recorded(index, k):
        deleted.append(index.live[k].clause)
        delete(index, k)

    monkeypatch.setattr(ClauseIndex, "delete", recorded)
    total = 0
    for bench_problem in bench_workloads().ground_mix(1).problems:
        problem = parse_problem(bench_problem.text)
        state = saturate(problem.ordering, problem.clauses, Limits(400, 40000))
        index = state.index
        assert len(index.live) == len(state.clauses)
        assert [d.clause for d in index.live.values()] == state.clauses
        assert not set(deleted) & set(state.clauses)
        total += len(deleted)
        deleted.clear()
        for numbers in index._postings.values():
            assert numbers and numbers <= index.live.keys()
        # the postings hold the resolution-partner keys alone: (side,
        # predicate) for each eligible predicate of a side
        assert index._postings.keys() == {key for d in index.live.values() for key in d.keys}
        for k, record in index.live.items():
            assert set(record.keys) == {
                (side, p) for side, preds in enumerate(record.eligible) for p in preds
            }
            assert all(k in index._postings[key] for key in record.keys)
            for copy, _ in record.renamed.values():
                assert subsumes(copy, record.clause) and subsumes(record.clause, copy)
    assert total == 87


def test_saturate_never_meets_a_live_variant_key(monkeypatch):
    # so deleting a clause never takes it from the set of live clauses
    # while an equal clause stays live: saturate stores no clause that a
    # live clause subsumes, so no add meets an equal live clause, and its
    # live clauses subsume no other, so no delete leaves one.  After each
    # add and delete, the set holds the live clauses.
    add, delete = ClauseIndex.add, ClauseIndex.delete
    adds = deletes = 0

    def live_clauses(index, but=None):
        return [d.clause for m, d in index.live.items() if m != but]

    def checked_add(index, c):
        nonlocal adds
        adds += 1
        assert c not in live_clauses(index), str(c)
        k = add(index, c)
        assert index._clauses == set(live_clauses(index))
        return k

    def checked_delete(index, k):
        nonlocal deletes
        deletes += 1
        c = index.live[k].clause
        assert c not in live_clauses(index, but=k), str(c)
        delete(index, k)
        assert index._clauses == set(live_clauses(index))

    monkeypatch.setattr(ClauseIndex, "add", checked_add)
    monkeypatch.setattr(ClauseIndex, "delete", checked_delete)
    runs = [(parse_problem(Path(p).read_text(encoding="utf-8")), Limits()) for p in CORPUS]
    workloads = bench_workloads()
    for workload in (workloads.chain(1), workloads.ground_mix(1), workloads.guarded_mix(1)):
        runs += [(parse_problem(p.text), Limits(400, 40000)) for p in workload.problems]
    runs += [(p, make_corpus.CURATION_LIMITS) for p in generated_problems(340, seed=19)]
    for problem, limits in runs:
        saturate(problem.ordering, problem.clauses, limits)
    assert adds > 3000 and deletes > 400, (adds, deletes)


def scan_redundancy(index: ClauseIndex, rules: RewriteSystem, c: Clause) -> str | None:
    """ClauseIndex.redundancy without the set lookup, the symbol filter and
    the rule for no candidate clause: every live clause goes to the scan
    and to the local proof."""
    if index.subsumed(c):
        return "subsumption"
    live = [d.clause for d in index.live.values()]
    return "local proof" if clause_redundant(live, rules, c) else None


def test_an_index_with_deletions_answers_as_a_fresh_one():
    # numbers differ once clauses are deleted, so answers are compared as
    # clauses; backward subsumption is also compared with trying every
    # other live clause, in number order.  In odd rounds each added clause
    # is asked about at once.  The index stores equal clauses, which the
    # saturation loop never does, so deleting a clause can take it from the
    # set while an equal one stays live; the scan then finds that one.
    def clauses(ix, ks):
        return [ix.live[k].clause for k in ks]

    def live_set(ix):
        return {d.clause for d in ix.live.values()}

    ordering = sig_ordering()
    no_rules = RewriteSystem()
    index = ClauseIndex(ordering, [cl("-> p(X)"), cl("-> p(X)")])
    assert index.redundancy(no_rules, cl("-> p(X)")) == "subsumption"
    assert cl("-> p(Z)") not in index._clauses
    assert index.redundancy(no_rules, cl("-> p(Z)")) == "subsumption"
    index.delete(0)
    assert cl("-> p(X)") not in index._clauses
    assert index.redundancy(no_rules, cl("-> p(X)")) == "subsumption"
    rng = random.Random(29)
    renamer = random.Random(30)
    compared = hits = whole = 0
    for round_ in range(60):
        index = ClauseIndex(ordering)
        twinned = False  # was a clause added while an equal one was live?
        for _ in range(rng.randint(2, 12)):
            c = rand_clause(rng)
            twinned |= c in live_set(index)
            index.add(c)
            if round_ % 2:
                assert index.redundancy(no_rules, c) == "subsumption"
            if rng.random() < 0.4:
                index.delete(rng.choice(list(index.live)))
        fresh = ClauseIndex(ordering, [d.clause for d in index.live.values()])
        numbers = dict(zip(index.live, fresh.live))
        live = index.live
        for k, m in numbers.items():
            assert index.subsumed_by(k) == [
                m2 for m2 in live if m2 != k and subsumes(live[k].clause, live[m2].clause)
            ]
            assert clauses(index, index.partners(k)) == clauses(fresh, fresh.partners(m))
            assert clauses(index, index.subsumed_by(k)) == clauses(fresh, fresh.subsumed_by(m))
            for k2, m2 in numbers.items():
                assert fields(index.resolvents(k, k2)) == fields(fresh.resolvents(m, m2))
                compared += 1
        questions = []
        for _ in range(5):
            c = rand_clause(rng)
            assert index.subsumed(c) == fresh.subsumed(c)
            questions.append(c)
        for d in live.values():
            questions.append(d.clause)
            own = list(vars_in_order(d.clause))
            names = renamer.sample(["V0", "V1", "X", "Y", "Z"], len(own))
            questions.append(substitute(dict(zip(own, map(Var, names))), d.clause))
        for c in questions:
            how = index.redundancy(no_rules, c)
            assert how == fresh.redundancy(no_rules, c) == scan_redundancy(index, no_rules, c)
            hits += c in index._clauses
        # live clauses only, and all of them unless a delete may have taken
        # one that an equal live clause stands for
        assert index._clauses <= live_set(index)
        if not twinned:
            assert index._clauses == live_set(index)
            whole += 1
    assert compared > 500, compared
    assert hits > 300, hits
    assert whole > 50, whole


class ProofCandidates:
    """Wraps the saturation module's clause_redundant: counts its calls and
    the clauses they are handed."""

    def __init__(self, monkeypatch):
        self.calls = self.clauses = 0
        original = saturation_module.clause_redundant

        def counted(clauses, rules, c):
            clauses = list(clauses)
            self.calls += 1
            self.clauses += len(clauses)
            return original(clauses, rules, c)

        monkeypatch.setattr(saturation_module, "clause_redundant", counted)


def symbols(c: Clause) -> frozenset[str]:
    return frozenset().union(*_features(c))


def test_local_proofs_under_rules_answer_as_the_unfiltered_scan(monkeypatch):
    # a local proof is handed only the live clauses whose symbols lie within
    # the conclusion's and the rules' right sides; scan_redundancy hands it
    # every live clause.  Every resolvent conclusion, in verify's order, of
    # each saturated state and of its tampered copies, where some
    # conclusions are not redundant.
    rng = random.Random(13)
    runs = []
    for state in tampering_states():
        runs.append((state.ordering, state.clauses, state.rules))
        runs += [(state.ordering, *tampering) for tampering in tampered(state, rng)]
        # redundancy takes any system: one without a rule the clauses give
        # holds fewer rule right sides for the filter
        given = rules_of(state.ordering, state.clauses).rules
        if given:
            runs.append((state.ordering, state.clauses, without_one(state, given, rng)))
    proofs = ProofCandidates(monkeypatch)
    answers = {"subsumption": 0, "local proof": 0, None: 0}
    live = 0
    for ordering, clauses, rules in runs:
        index = ClauseIndex(ordering, clauses)
        for i in index.live:
            for j in index.partners(i):
                for inf in index.resolvents(i, j):
                    calls = proofs.calls
                    how = index.redundancy(rules, inf.conclusion)
                    assert how == scan_redundancy(index, rules, inf.conclusion), str(inf)
                    answers[how] += 1
                    live += len(index.live) * (proofs.calls - calls)
    print(answers, f"{proofs.clauses} of {live} live clauses handed to local proofs")
    assert sum(bool(rules.right_symbols) for _, _, rules in runs) > 100
    assert answers["subsumption"] > 2000 and answers["local proof"] > 400, answers
    assert answers[None] > 40, answers
    assert 0 < proofs.clauses < live / 2, (proofs.clauses, live)


def test_reach_sets_hold_only_the_clause_and_right_side_symbols():
    # the lemma that the local-proof filter rests on: a rule l -> r takes
    # an atom A to rσ, where σ maps r's variables to subterms of A
    problems = [parse_problem(Path(p).read_text(encoding="utf-8")) for p in CORPUS]
    problems += generated_problems(150, seed=41)
    checked = grown = 0
    for problem in problems:
        state = saturate(problem.ordering, problem.clauses, make_corpus.CURATION_LIMITS)
        for c in state.clauses:
            frozen, mapping = freeze(c)
            own = symbols(c) | {k.name for k in mapping.values()}
            reached = frozenset().union(*map(atom_symbols, reach_clause(state.rules, frozen)))
            assert reached <= own | state.rules.right_symbols, str(c)
            checked += 1
            grown += not reached <= own
    assert checked > 900 and grown > 90, (checked, grown)


def test_local_proof_candidates_are_counted_not_timed(monkeypatch):
    # counted, not timed; before the symbol filter every live clause was
    # handed over: chain 5 265 clauses in its 90 proofs, ground_mix 3 062
    # in 190.  The filter leaves chain's 90 discoveries no clause, so none
    # of them runs a local proof.
    proofs = ProofCandidates(monkeypatch)
    problem = parse_problem(CHAIN)
    state = saturate(problem.ordering, problem.clauses)
    assert state.stats.discovered == 90
    assert proofs.calls == proofs.clauses == 0
    proofs.calls = proofs.clauses = 0
    for bench_problem in bench_workloads().ground_mix(1).problems:
        problem = parse_problem(bench_problem.text)
        state = saturate(problem.ordering, problem.clauses)
        assert verify_saturated(state.ordering, state.clauses, state.rules).ok
    assert proofs.calls == 190
    assert proofs.clauses <= 2144, proofs.clauses


def test_a_conclusion_with_no_candidate_clause_is_a_local_proof_iff_a_tautology(monkeypatch):
    # with no live clause left by the symbol filter, redundancy runs no
    # local proof: it answers "local proof" for a tautology and None for
    # any other clause.  Each such answer is checked against a local proof
    # over every live clause, on hand-made questions and on every conclusion
    # of guarded_mix at seed 1, saturate and verify, which meets four
    # tautologies.
    proofs = ProofCandidates(monkeypatch)
    redundancy = ClauseIndex.redundancy
    answers = {"local proof": 0, None: 0}

    def checked(index, rules, c):
        calls = proofs.calls
        how = redundancy(index, rules, c)
        if how != "subsumption" and proofs.calls == calls:
            tautology = not set(c.antecedent).isdisjoint(c.succedent)
            assert how == ("local proof" if tautology else None), str(c)
            live = [d.clause for d in index.live.values()]
            assert (how == "local proof") == clause_redundant(live, rules, c), str(c)
            answers[how] += 1
        return how

    monkeypatch.setattr(ClauseIndex, "redundancy", checked)
    index = ClauseIndex(sig_ordering(), [cl("q(X) -> p(f(X))"), cl("-> q(a)")])
    no_rules = RewriteSystem()
    assert index.redundancy(no_rules, cl("r(X), s(Y) -> r(X)")) == "local proof"
    assert index.redundancy(no_rules, cl("->")) is None
    assert index.redundancy(no_rules, cl("r(X) -> r(f(X))")) is None
    assert answers == {"local proof": 1, None: 2} and proofs.calls == 0
    answers.update({"local proof": 0, None: 0})
    for bench_problem in bench_workloads().guarded_mix(1).problems:
        problem = parse_problem(bench_problem.text)
        state = saturate(problem.ordering, problem.clauses)
        assert verify_saturated(state.ordering, state.clauses, state.rules).ok
    assert answers == {"local proof": 4, None: 2}, answers


def test_verify_settles_subsumed_conclusions_without_local_proofs(monkeypatch):
    problem = parse_problem(CHAIN)
    state = saturate(problem.ordering, problem.clauses)
    proofs = CallCounter(monkeypatch, "clause_redundant")
    assert verify_saturated(state.ordering, state.clauses, state.rules).ok
    # one local proof per inference without the subsumption test: 442
    assert proofs.calls <= 50


def test_chain_builds_premise_instances_only_when_read(monkeypatch):
    # no chain inference fails the a posteriori check, so no premise
    # instance is read; the parent built two per inference, and the
    # conclusion twice: 2 469 clauses in saturate and 2 223 in verify
    problem = parse_problem(CHAIN)
    built = 0
    init = Clause.__init__

    def counted(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(Clause, "__init__", counted)
    state = saturate(problem.ordering, problem.clauses)
    assert state.stats.non_maximality == 0 and state.stats.inferences_considered == 442
    assert built <= 1300
    built = 0
    assert verify_saturated(state.ordering, state.clauses, state.rules).ok
    assert built <= 1000


def test_a_posteriori_check_reuses_the_substituted_siblings(monkeypatch):
    # a_priori_resolvents substitutes every premise atom but the resolved
    # ones to build the conclusion; is_a_posteriori reads those siblings
    # instead of substituting them again.  The parent made 2 236 calls on
    # chain, 728 of them in the a posteriori check.
    calls = 0
    substitute = resolution_module.substitute

    def counted(*args):
        nonlocal calls
        calls += 1
        return substitute(*args)

    monkeypatch.setattr(resolution_module, "substitute", counted)
    problem = parse_problem(CHAIN)
    state = saturate(problem.ordering, problem.clauses)
    assert state.stats.inferences_considered == 442
    assert calls <= 2236 - 700, calls


INFERENCE_FIELDS = ("kind", "premises", "unifier", "resolved", "resolved_atom", "conclusion")


def fields(inferences):
    return [[getattr(inf, name) for name in INFERENCE_FIELDS] for inf in inferences]


def test_prepared_resolvents_equal_those_worked_out_from_scratch(monkeypatch):
    # the index passes each clause's kept eligible atoms and a kept renamed
    # copy of the second premise; from scratch, ref_a_priori_resolvents
    # renames the second premise and tests maximality itself
    problems = [(parse_problem(Path(p).read_text(encoding="utf-8")), Limits()) for p in CORPUS]
    problems += [(p, make_corpus.CURATION_LIMITS) for p in generated_problems(340, seed=17)]
    calls = []
    resolvents = ClauseIndex.resolvents

    def recorded(index, i, j):
        out = resolvents(index, i, j)
        calls.append((index.ordering, index.live[i].clause, index.live[j].clause, out))
        return out

    monkeypatch.setattr(ClauseIndex, "resolvents", recorded)
    compared = 0
    for problem, limits in problems:
        state = saturate(problem.ordering, problem.clauses, limits)
        verify_saturated(state.ordering, state.clauses, state.rules)
        for ordering, c1, c2, out in calls:
            assert fields(out) == fields(ref_a_priori_resolvents(ordering, c1, c2))
            compared += len(out)
        calls.clear()
    assert compared > 2000, compared


def test_kept_eligible_atoms_follow_a_reordering_rename():
    # Renamed apart from V0, V1 and V3..V9, A and B become V2 and V10, and
    # p(V10) sorts before p(V2), so the copy's eligible antecedent atoms
    # must be found by their images, not by their positions.  p(A) is not
    # eligible: it is below s(f(A)).
    ordering = Ordering(["f"])
    c1 = cl(", ".join(f"t(V{k})" for k in (0, 1, 3, 4, 5, 6, 7, 8, 9)) + " -> p(V0)")
    c2 = cl("p(A), p(B), s(f(A)) -> r(A,B)")
    index = ClauseIndex(ordering, [c1, c2])
    assert index.live[1].atoms[0] == (at("p(B)"), at("s(f(A))"))
    (inf,) = index.resolvents(0, 1)
    assert inf.premises[1].antecedent == (at("p(V10)"), at("p(V2)"), at("s(f(V2))"))
    assert inf.resolved == (at("p(V0)"), at("p(V10)"))
    assert fields([inf]) == fields(ref_a_priori_resolvents(ordering, c1, c2))


def test_chain_prepares_each_clause_once(monkeypatch):
    # Working them out per pair, each pass (saturate or verify) made 455
    # renames and 1 534 is_maximal calls: the second premise was renamed
    # and both premises' atoms tested for every pair.
    renames = []
    for module in (terms_module, resolution_module):
        original = module.renaming

        def renaming(c, forbidden, original=original):
            renames.append((c, frozenset(forbidden)))
            return original(c, forbidden)

        monkeypatch.setattr(module, "renaming", renaming)
    tests = 0
    is_maximal = Ordering.is_maximal

    def counted(self, a, others):
        nonlocal tests
        tests += 1
        return is_maximal(self, a, others)

    monkeypatch.setattr(Ordering, "is_maximal", counted)
    a_posteriori = CallCounter(monkeypatch, "is_a_posteriori")

    def check(clauses):
        # besides at most one test per a posteriori check, at most one per
        # atom occurrence of a stored clause
        atoms = sum(len(c.antecedent) + len(c.succedent) for c in clauses)
        assert tests - a_posteriori.calls <= atoms
        assert len(renames) == len(set(renames)) <= 200

    problem = parse_problem(CHAIN)
    state = saturate(problem.ordering, problem.clauses)
    assert state.stats.inferences_considered == a_posteriori.calls == 442
    check(state.clauses)
    parsed = parse_state(serialize_state(state))
    renames.clear()
    tests = a_posteriori.calls = 0
    assert verify_saturated(parsed.ordering, parsed.clauses, parsed.rules).ok
    assert a_posteriori.calls == 442
    check(parsed.clauses)


TRACED = ("a_priori_resolvents", "is_a_posteriori", "subsumes", "clause_redundant", "rules_of")


def test_saturate_and_verify_call_the_traced_names(monkeypatch):
    # The benchmark's per-layer trace (bench/tracing.py) rebinds these names
    # in the saturation module; a path that went round one would read 0 in
    # its layer.  g_horn_07's saturate reaches every case: non-maximality,
    # subsumption, local proofs and discovery.  Its verify settles each
    # conclusion by subsumption or by a tautology with no candidate clause,
    # so it runs no local proof; the verify of ground_mix's problem 4 at
    # seed 1 hands clauses to one.
    path = Path(__file__).parent / "corpus" / "g_horn_07.p"
    problem = parse_problem(path.read_text(encoding="utf-8"))
    counters = {name: CallCounter(monkeypatch, name) for name in TRACED}
    state = saturate(problem.ordering, problem.clauses)
    stats = state.stats
    assert stats.non_maximality and stats.redundant_by_subsumption and stats.discovered
    assert stats.redundant > stats.redundant_by_subsumption
    for counter in counters.values():
        assert counter.calls > 0
    inferences = sum(len(out) for out in counters["a_priori_resolvents"].results)
    assert inferences == stats.inferences_considered == counters["is_a_posteriori"].calls
    mixed = parse_problem(bench_workloads().ground_mix(1).problems[4].text)
    for state, proves in ((state, False), (saturate(mixed.ordering, mixed.clauses), True)):
        for counter in counters.values():
            counter.calls = 0
            counter.results.clear()
        assert verify_saturated(state.ordering, state.clauses, state.rules).ok
        for name, counter in counters.items():
            assert (counter.calls > 0) == (proves or name != "clause_redundant"), name
        inferences = sum(len(out) for out in counters["a_priori_resolvents"].results)
        assert inferences == counters["is_a_posteriori"].calls
