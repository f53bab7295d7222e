"""Fair saturation loop and the post-hoc saturatedness verifier.

Saturation is by a priori ordered resolution alone (every factoring
inference is redundant, see resolution.py), so the loop and the verifier
check the same inferences.  Clauses are indexed by predicates as they enter
(ClauseIndex), so only the clause pairs that can resolve are queued, and
forward subsumption and the variant check only try the clauses whose
predicates fit.  Each a priori inference is classified by the first
matching case: non-maximality (harvest rules from the unified premise
instances), redundancy (conclusion locally provable under the current
rules), discovery (add the conclusion and its rules, queue new work).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .entailment import clause_redundant, subsumes, variant_equal
from .orderings import Ordering
from .resolution import Inference, a_priori_resolvents, is_a_posteriori
# The benchmark's layer tracer (bench/tracing.py) is the only reader of this
# name here; nothing in satloc factors.
from .resolution import a_priori_factors  # noqa: F401
from .rewriting import RewriteSystem, rules_of
from .terms import Clause

SATURATED = "saturated"
LIMIT_REACHED = "limit_reached"
RUNNING = "running"


@dataclass
class Limits:
    max_clauses: int | None = None
    max_steps: int | None = None


@dataclass
class SaturationStats:
    items_processed: int = 0
    inferences_considered: int = 0
    non_maximality: int = 0
    redundant: int = 0
    redundant_by_subsumption: int = 0
    discovered: int = 0

    def summary(self) -> str:
        return (
            f"{self.items_processed} items processed,"
            f" {self.inferences_considered} inferences"
            f" (non-maximality {self.non_maximality},"
            f" redundant {self.redundant} (by subsumption {self.redundant_by_subsumption}),"
            f" discovered {self.discovered})"
        )


def _side_predicates(c: Clause) -> tuple[frozenset[str], frozenset[str]]:
    return frozenset(a.pred for a in c.antecedent), frozenset(a.pred for a in c.succedent)


class ClauseFeatures:
    """Predicate features of one clause: the predicates of its maximal
    (eligible) antecedent and succedent atoms, and of each side.

    Maximality is invariant under variable renaming, so the eligible atoms
    of a stored clause are those of every renamed-apart copy of it.
    """

    __slots__ = ("eligible_antecedent", "eligible_succedent", "antecedent", "succedent")

    def __init__(self, ordering: Ordering, c: Clause):
        atoms = c.atoms()
        self.eligible_antecedent = frozenset(
            a.pred for a in c.antecedent if ordering.is_maximal(a, atoms)
        )
        self.eligible_succedent = frozenset(
            a.pred for a in c.succedent if ordering.is_maximal(a, atoms)
        )
        self.antecedent, self.succedent = _side_predicates(c)


class ClauseIndex:
    """Predicate index over a list of clauses, kept in list order.

    Its filters are necessary conditions, so they change no verdict: clause
    i resolves into clause j (i's succedent atom against j's antecedent
    atom) only if an eligible succedent predicate of i is an eligible
    antecedent predicate of j; d subsumes c only if each side's predicates
    of d are among those of c's side; variants have equal predicate sets.
    """

    def __init__(self, ordering: Ordering, clauses=()):
        self.ordering = ordering
        self.clauses: list[Clause] = []
        self.features: list[ClauseFeatures] = []
        self._by_eligible_antecedent: dict[str, list[int]] = {}
        self._by_eligible_succedent: dict[str, list[int]] = {}
        for c in clauses:
            self.add(c)

    def add(self, c: Clause) -> None:
        """Index the next clause of the list."""
        k = len(self.clauses)
        f = ClauseFeatures(self.ordering, c)
        self.clauses.append(c)
        self.features.append(f)
        for p in f.eligible_antecedent:
            self._by_eligible_antecedent.setdefault(p, []).append(k)
        for p in f.eligible_succedent:
            self._by_eligible_succedent.setdefault(p, []).append(k)

    def resolves(self, i: int, j: int) -> bool:
        """Can an eligible succedent atom of clause i meet an eligible
        antecedent atom of clause j?"""
        return not self.features[i].eligible_succedent.isdisjoint(
            self.features[j].eligible_antecedent
        )

    def targets(self, i: int) -> list[int]:
        """Every j with resolves(i, j), in increasing order."""
        found: set[int] = set()
        for p in self.features[i].eligible_succedent:
            found.update(self._by_eligible_antecedent.get(p, ()))
        return sorted(found)

    def partners(self, k: int) -> list[int]:
        """Every indexed i such that clauses i and k resolve in some
        direction, in increasing order."""
        f = self.features[k]
        found: set[int] = set()
        for p in f.eligible_antecedent:
            found.update(self._by_eligible_succedent.get(p, ()))
        for p in f.eligible_succedent:
            found.update(self._by_eligible_antecedent.get(p, ()))
        return sorted(found)

    def subsumption_candidates(self, c: Clause):
        """Stored clauses, in order, whose predicates fit into c's sides."""
        ant, suc = _side_predicates(c)
        for d, f in zip(self.clauses, self.features):
            if f.antecedent <= ant and f.succedent <= suc:
                yield d

    def variant_candidates(self, c: Clause):
        """Stored clauses, in order, with exactly c's predicates on each side."""
        ant, suc = _side_predicates(c)
        for d, f in zip(self.clauses, self.features):
            if f.antecedent == ant and f.succedent == suc:
                yield d


@dataclass
class SaturationState:
    ordering: Ordering
    clauses: list[Clause] = field(default_factory=list)
    rules: RewriteSystem = field(default_factory=RewriteSystem)
    queue: deque = field(default_factory=deque)  # clause index pairs (i, j), i <= j
    stats: SaturationStats = field(default_factory=SaturationStats)
    status: str = RUNNING
    _index: ClauseIndex | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def index(self) -> ClauseIndex:
        """The predicate index of `clauses`, brought up to date on access.

        Clauses appended since the last access are indexed; if the indexed
        prefix was changed in place, or the ordering replaced, the index is
        rebuilt, so a state built from a clause list needs no set-up.
        """
        idx = self._index
        if (
            idx is None
            or idx.ordering is not self.ordering
            or self.clauses[: len(idx.clauses)] != idx.clauses
        ):
            idx = self._index = ClauseIndex(self.ordering)
        for c in self.clauses[len(idx.clauses):]:
            idx.add(c)
        return idx

    def add_clause(self, c: Clause) -> bool:
        """Add a clause unless a variant is already present; queue its work.

        A pair (i, k) is queued only for each partner i, in increasing
        order, so the inferences keep the all-pairs FIFO order.
        """
        index = self.index
        if any(variant_equal(c, d) for d in index.variant_candidates(c)):
            return False
        k = len(self.clauses)
        self.clauses.append(c)
        index.add(c)
        self.queue.extend((i, k) for i in index.partners(k))
        return True


def _inferences_for(state: SaturationState, i: int, j: int) -> list[Inference]:
    """The resolution inferences between clauses i <= j, in both directions."""
    index = state.index
    out: list[Inference] = []
    if index.resolves(i, j):
        out += a_priori_resolvents(state.ordering, state.clauses[i], state.clauses[j])
    if i != j and index.resolves(j, i):
        out += a_priori_resolvents(state.ordering, state.clauses[j], state.clauses[i])
    return out


def saturate(ordering: Ordering, clauses, limits: Limits = Limits()) -> SaturationState:
    """Run the saturation loop to a fixed point or a limit.

    Returns the final state; status is "saturated" iff the work queue
    emptied, else "limit_reached" (the state is still usable but carries no
    completeness guarantee).
    """
    state = SaturationState(ordering)
    for c in clauses:
        state.add_clause(c)
    state.rules = rules_of(ordering, state.clauses)
    while state.queue:
        if limits.max_steps is not None and state.stats.inferences_considered >= limits.max_steps:
            state.status = LIMIT_REACHED
            return state
        i, j = state.queue.popleft()
        state.stats.items_processed += 1
        for inf in _inferences_for(state, i, j):
            state.stats.inferences_considered += 1
            if not is_a_posteriori(ordering, inf):
                state.rules = state.rules | rules_of(ordering, inf.premise_instances)
                state.stats.non_maximality += 1
            elif any(
                subsumes(d, inf.conclusion)
                for d in state.index.subsumption_candidates(inf.conclusion)
            ):
                state.stats.redundant += 1
                state.stats.redundant_by_subsumption += 1
            elif clause_redundant(state.clauses, state.rules, inf.conclusion):
                state.stats.redundant += 1
            else:
                state.stats.discovered += 1
                state.add_clause(inf.conclusion)
                state.rules = state.rules | rules_of(ordering, [inf.conclusion])
                if limits.max_clauses is not None and len(state.clauses) > limits.max_clauses:
                    state.status = LIMIT_REACHED
                    return state
    state.status = SATURATED
    return state


@dataclass
class VerifyReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_saturated(ordering: Ordering, clauses, rules: RewriteSystem) -> VerifyReport:
    """Check saturatedness of (clauses, rules) from scratch.

    Clause pairs are walked in the all-pairs order, skipping the pairs the
    predicate index rules out, so the violations come in the same order.
    (1) every a priori resolution inference has a locally provable
    conclusion within its frozen reach set; (2) the clause-extracted rules
    are contained in the system; (3) inferences failing the a posteriori
    conditions contributed the rules of their premise instances.
    """
    clauses = list(clauses)
    report = VerifyReport()
    missing = rules_of(ordering, clauses).rules - rules.rules
    for rule in sorted(missing, key=str):
        report.violations.append(f"condition 2: missing rule {rule}")
    index = ClauseIndex(ordering, clauses)
    for i, c1 in enumerate(clauses):
        for j in index.targets(i):
            for inf in a_priori_resolvents(ordering, c1, clauses[j]):
                if not clause_redundant(clauses, rules, inf.conclusion):
                    report.violations.append(f"condition 1: not redundant: {inf}")
                if not is_a_posteriori(ordering, inf):
                    harvested = rules_of(ordering, inf.premise_instances)
                    for rule in sorted(harvested.rules - rules.rules, key=str):
                        report.violations.append(
                            f"condition 3: missing rule {rule} from {inf}"
                        )
    return report
