"""The predicate-indexed saturation loop and verifier against the all-pairs
reference loop (tests/helpers.py): same states, counters and violations,
with far fewer inference and subsumption attempts."""

import glob
import random
from pathlib import Path

import make_corpus
from helpers import cl, ref_saturate, ref_verify_saturated
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
from satloc import saturation as saturation_module

CORPUS = sorted(glob.glob(str(Path(__file__).parent / "corpus" / "*.p")))
COUNTERS = (
    "inferences_considered",
    "non_maximality",
    "redundant",
    "redundant_by_subsumption",
    "discovered",
)

WORKED = "order: f > g > a\nclause: -> p(g(W,W))\nclause: p(g(X,Y)), q(f(Y),X) ->\n"
CHAIN_N = 12
CHAIN = (
    "order: f > a\nclause: -> p0(a)\n"
    + "".join(f"clause: p{i}(X) -> p{i + 1}(X)\n" for i in range(CHAIN_N))
    + f"clause: p{CHAIN_N}(f(X)) ->\n"
)


def generated_problems(count: int, seed: int):
    rng = random.Random(seed)
    families = [gen for _, gen, _ in make_corpus.FAMILIES]
    return [parse_problem(families[k % len(families)](rng)) for k in range(count)]


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


def tampered(state: SaturationState, rng: random.Random):
    """The state with one clause removed, and with one rule removed."""
    out = []
    if state.clauses:
        clauses = list(state.clauses)
        del clauses[rng.randrange(len(clauses))]
        out.append((clauses, state.rules))
    rules = state.rules.sorted_rules()
    if rules:
        del rules[rng.randrange(len(rules))]
        out.append((state.clauses, RewriteSystem(frozenset(rules))))
    return out


def test_verify_matches_all_pairs_on_tampered_states():
    rng = random.Random(11)
    problems = [parse_problem(Path(p).read_text(encoding="utf-8")) for p in CORPUS]
    problems += generated_problems(60, seed=5)
    checked = failing = 0
    for problem in problems:
        state = saturate(problem.ordering, problem.clauses)
        for clauses, rules in tampered(state, rng):
            new = verify_saturated(state.ordering, clauses, rules)
            assert new.violations == ref_verify_saturated(state.ordering, clauses, rules).violations
            checked += 1
            failing += not new.ok
    print(f"tampered states: {checked} checked, {failing} with violations")
    assert checked > 150 and failing > 30, (checked, failing)


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
    assert state.index.clauses == state.clauses
    # variants of parsed clauses are found, new clauses queue their partners
    assert not state.add_clause(cl("p3(Y) -> p4(Y)"))
    assert state.add_clause(cl("p5(X) -> q(X)"))
    k = len(state.clauses) - 1
    partner = state.clauses.index(cl("p4(X) -> p5(X)"))
    assert (partner, k) in state.queue
    assert state.index.clauses == state.clauses


class CallCounter:
    def __init__(self, monkeypatch, name):
        self.calls = 0
        original = getattr(saturation_module, name)

        def counted(*args):
            self.calls += 1
            return original(*args)

        monkeypatch.setattr(saturation_module, name, counted)


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
