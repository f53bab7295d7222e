"""Fair saturation loop and the post-hoc saturatedness verifier.

Saturation is by a priori ordered resolution alone (every factoring
inference is redundant, see resolution.py), so the loop and the verifier
check the same inferences, and both settle redundancy with one test
(ClauseIndex.redundancy): a stored clause subsumes the conclusion, or the
conclusion is locally provable within its frozen reach set.  Clauses are
prepared for resolution as they enter the index (their variables and
eligible atoms are kept, and renamed-apart copies are kept once made) and
indexed by predicates, so only the clause pairs that can resolve are
queued, and subsumption and the variant check only try the clauses whose
predicates fit.  Each a priori inference is classified by the
first matching case: non-maximality (harvest rules from the unified premise
instances), redundancy (under the current clauses and rules), discovery
(add the conclusion and its rules, queue new work).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .entailment import clause_redundant, subsumes, variant_equal
from .orderings import Ordering
from .resolution import (
    Inference,
    a_priori_resolvents,
    eligible_atoms,
    is_a_posteriori,
    renamed_apart,
)
# The benchmark's layer tracer (bench/tracing.py) is the only reader of this
# name here; nothing in satloc factors.
from .resolution import a_priori_factors  # noqa: F401
from .rewriting import RewriteSystem, rules_of
from .terms import Atom, Clause, Var, vars_in_order

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


class ClauseIndex:
    """Clauses prepared for resolution, and a predicate index over them,
    kept in list order.

    What a clause needs as a premise is worked out once, when it is added,
    and kept: its variables, the eligible (maximal) atoms of each side, and
    their predicates.  As a second premise it is renamed apart from the
    first premise's variables, which is all the renaming depends on, so the
    renamed copy and its eligible antecedent atoms are kept per (clause,
    first-premise variable set); maximality is invariant under renaming.

    The predicate filters are necessary conditions, so they change no
    verdict: clause i resolves into clause j (i's succedent atom against
    j's antecedent atom) only if an eligible succedent predicate of i is an
    eligible antecedent predicate of j; d subsumes c only if each side's
    predicates of d are among those of c's side; variants have equal
    predicate sets.
    """

    def __init__(self, ordering: Ordering, clauses=()):
        self.ordering = ordering
        self.clauses: list[Clause] = []
        self.vars: list[frozenset[Var]] = []
        # per clause, (antecedent, succedent): eligible atoms, all
        # predicates, and eligible predicates
        self.eligible_atoms: list[tuple[tuple[Atom, ...], ...]] = []
        self.sides: list[tuple[frozenset[str], frozenset[str]]] = []
        self.eligible: list[tuple[frozenset[str], ...]] = []
        self._by_eligible: tuple[dict[str, list[int]], ...] = ({}, {})
        self._by_sides: dict[tuple[frozenset[str], frozenset[str]], list[Clause]] = {}
        self._renamed: dict[tuple[int, frozenset[Var]], tuple[Clause, tuple[Atom, ...]]] = {}
        for c in clauses:
            self.add(c)

    def add(self, c: Clause) -> None:
        """Index the next clause of the list."""
        atoms = eligible_atoms(self.ordering, c)
        eligible = (frozenset([a.pred for a in atoms[0]]), frozenset([a.pred for a in atoms[1]]))
        for preds, by_pred in zip(eligible, self._by_eligible):
            for p in preds:
                by_pred.setdefault(p, []).append(len(self.clauses))
        sides = _side_predicates(c)
        self._by_sides.setdefault(sides, []).append(c)
        self.clauses.append(c)
        self.vars.append(frozenset(vars_in_order(c)))
        self.eligible_atoms.append(atoms)
        self.sides.append(sides)
        self.eligible.append(eligible)

    def resolvents(self, i: int, j: int) -> list[Inference]:
        """The a priori resolution inferences of clause i into clause j,
        from the kept eligible atoms and renamed copies."""
        key = (j, self.vars[i])
        renamed = self._renamed.get(key)
        if renamed is None:
            renamed = renamed_apart(self.clauses[j], self.eligible_atoms[j][0], self.vars[i])
            self._renamed[key] = renamed
        prepared = (self.eligible_atoms[i][1],) + renamed
        return a_priori_resolvents(self.ordering, self.clauses[i], self.clauses[j], prepared)

    def resolves(self, i: int, j: int) -> bool:
        """Can an eligible succedent atom of clause i meet an eligible
        antecedent atom of clause j?"""
        return not self.eligible[i][1].isdisjoint(self.eligible[j][0])

    def targets(self, i: int) -> list[int]:
        """Every j with resolves(i, j), in increasing order."""
        found: set[int] = set()
        for p in self.eligible[i][1]:
            found.update(self._by_eligible[0].get(p, ()))
        return sorted(found)

    def partners(self, k: int) -> list[int]:
        """Every indexed i such that clauses i and k resolve in some
        direction, in increasing order."""
        found: set[int] = set()
        for preds, by_pred in zip(self.eligible[k], reversed(self._by_eligible)):
            for p in preds:
                found.update(by_pred.get(p, ()))
        return sorted(found)

    def has_variant(self, c: Clause) -> bool:
        """Is a variant of c stored?"""
        return any(variant_equal(c, d) for d in self._by_sides.get(_side_predicates(c), ()))

    def redundancy(self, rules: RewriteSystem, c: Clause) -> str | None:
        """How c is redundant with respect to the stored clauses and `rules`:
        "subsumption" if a stored clause subsumes it (tried in list order),
        else "local proof" if its frozen instance is locally provable, else
        None.  Subsumption implies a local proof, so it only saves time.
        """
        ant, suc = _side_predicates(c)
        for d, (d_ant, d_suc) in zip(self.clauses, self.sides):
            if d_ant <= ant and d_suc <= suc and subsumes(d, c):
                return "subsumption"
        return "local proof" if clause_redundant(self.clauses, rules, c) else None


@dataclass
class SaturationState:
    ordering: Ordering
    clauses: list[Clause] = field(default_factory=list)
    rules: RewriteSystem = field(default_factory=RewriteSystem)
    queue: deque = field(default_factory=deque)  # clause index pairs (i, j), i <= j
    stats: SaturationStats = field(default_factory=SaturationStats)
    status: str = RUNNING

    @cached_property
    def index(self) -> ClauseIndex:
        """The predicate index of `clauses`, built on first use.  Only
        add_clause extends it, so once built, clauses enter through it."""
        return ClauseIndex(self.ordering, self.clauses)

    def add_clause(self, c: Clause) -> bool:
        """Add a clause unless a variant is already present; queue its work.

        A pair (i, k) is queued only for each partner i, in increasing
        order, so the inferences keep the all-pairs FIFO order.
        """
        index = self.index
        if index.has_variant(c):
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
        out += index.resolvents(i, j)
    if i != j and index.resolves(j, i):
        out += index.resolvents(j, i)
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
            elif how := state.index.redundancy(state.rules, inf.conclusion):
                state.stats.redundant += 1
                if how == "subsumption":
                    state.stats.redundant_by_subsumption += 1
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
    (1) every a priori resolution inference has a redundant conclusion, by
    the loop's test: subsumed by a clause, or locally provable within its
    frozen reach set; (2) the clause-extracted rules are contained in the
    system; (3) inferences failing the a posteriori conditions contributed
    the rules of their premise instances.
    """
    index = ClauseIndex(ordering, clauses)
    clauses = index.clauses
    report = VerifyReport()
    missing = rules_of(ordering, clauses).rules - rules.rules
    for rule in sorted(missing, key=str):
        report.violations.append(f"condition 2: missing rule {rule}")
    for i in range(len(clauses)):
        for j in index.targets(i):
            for inf in index.resolvents(i, j):
                if not index.redundancy(rules, inf.conclusion):
                    report.violations.append(f"condition 1: not redundant: {inf}")
                if not is_a_posteriori(ordering, inf):
                    harvested = rules_of(ordering, inf.premise_instances)
                    for rule in sorted(harvested.rules - rules.rules, key=str):
                        report.violations.append(
                            f"condition 3: missing rule {rule} from {inf}"
                        )
    return report
