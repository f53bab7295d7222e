"""Fair saturation loop and the post-hoc saturatedness verifier.

Saturation is by a priori ordered resolution alone (every factoring
inference is redundant, see resolution.py).  The loop and the verifier
walk the same inferences (ClauseIndex.pairs), split them by the same
cases in the same order, and settle redundancy with one test
(ClauseIndex.redundancy): a live clause subsumes the conclusion, or the
conclusion is locally provable within its frozen reach set.

The split rests on the paper's lemma: during saturation, a non-redundant
a priori inference is also an a posteriori one.  An inference that fails
the a posteriori conditions has an atom in its conclusion that equals or
beats the resolved instance Aσ; once the rules harvested from its premise
instances are in the system, that atom rewrites to Aσ, so both premise
instances, frozen with the conclusion, are instances of live clauses
inside the conclusion's reach set and refute its negation.  So such an
inference only harvests its rules, and is never tested for redundancy:
the loop stores those rules, and the verifier checks that they are there.

Input clauses and discovered conclusions are stored by one rule: a clause
that a live clause subsumes is not stored, a variant included, and a
stored clause deletes every live clause that it subsumes (backward
subsumption).  The callers of SaturationState.add_clause apply the first
half, each clause once: saturate checks an input clause with the forward
scan, and the redundancy test checks a conclusion; add_clause applies the
second.  The redundancy test first looks the conclusion up in the set of
live clauses: an equal clause subsumes it.  A variant under other variable
names misses the set and goes on to the same forward scan.  A deleted
clause leaves the set even while an equal live clause stays; that clause
then costs only the scan.  The subsumer gives a local proof wherever the
deleted clause did, so the live clauses prove what all the stored ones
did, and rules, once harvested, stay.  The index holds the live clauses
only: a deleted clause leaves it whole, and a pair with a deleted clause
is skipped.

The loop is a given-clause loop (Otter's, McCune and Wos 1997) over
clause numbers, which keep the storing order (ClauseIndex.pairs).  Clause
k becomes the given clause after every clause stored before it, and is
resolved, in both directions, against each live partner i <= k in
increasing order; a pair is skipped if a discovery has deleted either of
its clauses meanwhile.  A clause numbered below k that is live when k is
given was live when k was stored, so these are the pairs of the all-pairs
FIFO loop, in its order, minus those with a dead clause.  When no live
pair is left, every inference among the live clauses has been considered:
the state is saturated.

Clauses are prepared for resolution as they enter the index (their
variables and eligible atoms are kept, and renamed-apart copies are kept
once made, all in one record per clause) and posted under their eligible
predicates, so only the clause pairs that can resolve are tried.  Each
pair of resolved atoms is unified once per index, and each atom's image
under that unifier is substituted once (ClauseIndex._unifiers).
Subsumption is pre-tested in both directions by the same features, each
side's symbols (_features), and both directions scan the live clauses in
number order: forward subsumption tries those whose features are among the
new clause's, and backward subsumption those whose features hold the new
clause's.

A local proof is handed only the live clauses whose symbols, both sides'
_features, lie within the conclusion's own symbols and the symbols of the
rules' right sides (RewriteSystem.right_symbols).  A rewrite step takes an
atom A by a rule l -> r to rσ, and σ maps r's variables to subterms of A,
so every atom that the frozen conclusion reaches has only those symbols
and frozen constants.  No live clause holds a frozen constant (the reader
rejects '#'), and an instance keeps every symbol of its clause, so a
clause left out has no instance in the reach set: the filter changes no
verdict.  On the 12-step chain, which has no rules, it leaves no clause at
all.  Handed no clause, a local proof has no instance to use, so the
frozen conclusion is provable exactly when it is a tautology (an atom on
both sides), and the test answers that without the proof.  Queries
(query.entails) still hand every clause of the state to decide_local,
whose enumeration skips those with a predicate outside the universe.  The
same filter speeds queries up, but the benchmark keeps every query
latency, so more queries read there as more memory; queries wait for a
bounded latency sample.

Each a priori inference is classified by the first matching case:
non-maximality (harvest rules from the unified premise instances),
redundancy (under the live clauses and rules), discovery (store the
conclusion and harvest its rules; it is given in its turn).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .entailment import clause_redundant, subsumes
from .orderings import Ordering
from .resolution import Inference, a_priori_resolvents, eligible_atoms
from .resolution import is_a_posteriori, renamed_apart
# The benchmark's layer tracer (bench/tracing.py) is the only reader of this
# name here; nothing in satloc factors.
from .resolution import a_priori_factors  # noqa: F401
from .rewriting import RewriteSystem, rules_of
from .terms import Atom, Clause, Var, atom_symbols, vars_in_order

SATURATED = "saturated"
LIMIT_REACHED = "limit_reached"
RUNNING = "running"


@dataclass(frozen=True)
class Limits:
    """Bounds on a saturation run, both checked at one place: before each
    inference.  The run stops there, with that inference and every later
    one unconsidered, once it has considered max_steps inferences, or once
    a discovery has been stored while max_clauses or more clauses were
    live.  So a run considers at most max_steps inferences, and a run with
    no inference left is saturated whatever the limits."""

    max_clauses: int | None = None
    max_steps: int | None = None


@dataclass
class SaturationStats:
    """What a saturation run did.  items_processed counts the pairs of live
    clauses (ClauseIndex.pairs) all of whose inferences were considered;
    inferences_considered counts the inferences, each settled by one case:
    non_maximality, redundant (redundant_by_subsumption of them settled by
    subsumption) or discovered.  deleted counts the stored clauses that a
    later stored clause subsumed."""

    items_processed: int = 0
    inferences_considered: int = 0
    non_maximality: int = 0
    redundant: int = 0
    redundant_by_subsumption: int = 0
    discovered: int = 0
    deleted: int = 0

    def summary(self) -> str:
        return (
            f"{self.items_processed} items processed,"
            f" {self.inferences_considered} inferences"
            f" (non-maximality {self.non_maximality},"
            f" redundant {self.redundant} (by subsumption {self.redundant_by_subsumption}),"
            f" discovered {self.discovered}, deleted {self.deleted})"
        )


def _features(c: Clause) -> tuple[frozenset[str], frozenset[str]]:
    """For c's antecedent and for its succedent: the predicate and function
    symbols.  A substitution keeps every symbol and may add more, so if d
    subsumes c, each side of d has no symbol that the same side of c lacks:
    the pre-test of both subsumption directions."""
    return (
        frozenset().union(*map(atom_symbols, c.antecedent)),
        frozenset().union(*map(atom_symbols, c.succedent)),
    )


class _Record:
    """What the index keeps for one live clause: the clause and what is
    worked out from it alone when it is added (its variables, its eligible
    atoms and eligible predicates per side (antecedent, succedent), its
    posting keys (side, predicate), one per eligible predicate, and its
    _features), its renamed-apart copies as a second premise, with their
    eligible antecedent atoms, keyed by the first premise's variables that
    it lacks."""

    __slots__ = ("clause", "vars", "atoms", "eligible", "features", "keys", "renamed")

    def __init__(self, ordering: Ordering, c: Clause):
        self.clause = c
        self.vars = frozenset(vars_in_order(c))
        self.atoms = eligible_atoms(ordering, c)
        self.eligible = tuple(frozenset([a.pred for a in side]) for side in self.atoms)
        self.keys = [(side, p) for side, preds in enumerate(self.eligible) for p in preds]
        self.features = _features(c)
        self.renamed: dict[frozenset[Var], tuple[Clause, tuple[Atom, ...]]] = {}


class ClauseIndex:
    """The live clauses, each prepared for resolution and subsumption, and
    one posting map over them.

    A clause is numbered when it is added (`added` counts the numbers handed
    out), and numbers are never reused, so they keep the order of adding;
    pairs() walks the live pairs by them.  `live` maps the number of each live
    clause to its record (_Record); deleting a clause drops its record and
    its number from every posting set, so nothing of it remains but the
    `_unifiers` entries of its atoms (below).

    What a clause needs as a premise is worked out once, when it is added:
    its variables, the eligible (maximal) atoms of each side, and their
    predicates.  As a second premise it is renamed apart from the first
    premise's variables.  The renaming reads them only by the names that
    the clause does not have itself (terms.renaming), and variables are
    interned by name, so its record keeps each renamed copy and the copy's
    eligible antecedent atoms per set of first-premise variables that the
    clause lacks; maximality is invariant under renaming.  Its
    _features are worked out once too, for subsumption.

    What a pair of resolved atoms needs is worked out once for the index's
    lifetime: `_unifiers` maps each (first-premise succedent atom, renamed
    second-premise antecedent atom) pair to the images of atoms under its
    mgu (resolution._Images, whose alpha is the mgu, None included), filled
    on first use (a_priori_resolvents).  Atoms are interned, so the pair is
    an exact key, and it stays valid when either clause is deleted: the
    images depend on the atoms alone.  On the 12-step chain the 442
    inferences of a pass resolve on 48 pairs.

    The posting map takes each key (side, predicate) to the numbers of the
    live clauses with that eligible predicate on that side, so the
    resolution partners of a clause are read off it.  Subsumption uses no
    postings: both directions scan `live` in number order with the same
    per-side symbol test (_features).  The filters are necessary conditions,
    so they change no verdict: clause i resolves into clause j (i's
    succedent atom against j's antecedent atom) only if an eligible
    succedent predicate of i is an eligible antecedent predicate of j; d
    subsumes c only if each side's symbols of d are among those of c's side.
    Atom counts are no such condition: clauses are atom sets, and a
    substitution can merge two atoms of d into one of c.

    Redundancy questions look a clause up in `_clauses`, the set of the
    live clauses, before they scan: an equal clause subsumes it.  A variant
    under other variable names misses and is found by the scan.  Deleting a
    clause takes it from the set even when an equal live clause stays; the
    scan then finds that one.  The saturation loop never leaves such a
    pair, as it stores no clause that a live clause subsumes.
    """

    def __init__(self, ordering: Ordering, clauses=()):
        self.ordering = ordering
        self.live: dict[int, _Record] = {}
        self._postings: dict[tuple, set[int]] = {}
        self._clauses: set[Clause] = set()
        self._unifiers: dict = {}  # a_priori_resolvents' table
        self.added = 0
        for c in clauses:
            self.add(c)

    def add(self, c: Clause) -> int:
        """Index c as a live clause and return its number.  Whether c should
        be stored (no live clause subsumes it) is the caller's question."""
        k = self.added
        self.added += 1
        record = self.live[k] = _Record(self.ordering, c)
        for key in record.keys:
            self._postings.setdefault(key, set()).add(k)
        self._clauses.add(c)
        return k

    def delete(self, k: int) -> None:
        """Drop clause k and its posting keys, and take it from the set."""
        record = self.live.pop(k)
        for key in record.keys:
            postings = self._postings[key]
            postings.remove(k)
            if not postings:
                del self._postings[key]
        self._clauses.discard(record.clause)

    def resolvents(self, i: int, j: int) -> list[Inference]:
        """The a priori resolution inferences of clause i into clause j, from
        the kept eligible atoms, renamed copies and table of unifiers; none
        unless an eligible succedent predicate of i is an eligible
        antecedent predicate of j."""
        first, second = self.live[i], self.live[j]
        if first.eligible[1].isdisjoint(second.eligible[0]):
            return []
        forbidden = first.vars - second.vars
        renamed = second.renamed.get(forbidden)
        if renamed is None:
            renamed = renamed_apart(second.clause, second.atoms[0], forbidden)
            second.renamed[forbidden] = renamed
        return a_priori_resolvents(first.clause, first.atoms[1], *renamed, self._unifiers)

    def partners(self, k: int) -> list[int]:
        """Every live i such that clauses i and k resolve in some
        direction, in increasing order."""
        found: set[int] = set()
        for side, preds in enumerate(self.live[k].eligible):
            for p in preds:
                found.update(self._postings.get((1 - side, p), ()))
        return sorted(found)

    def pairs(self):
        """The given-clause walk: for each clause number k in turn, those
        added during the walk included, the pairs (i, k) of live partners
        i <= k in increasing order, each yielded as the list of its
        inferences: i into k, then k into i when i != k.  A pair is reached
        only if both of its clauses are live then, and both directions are
        built when it is reached, before the caller considers any of them,
        so the discoveries of i into k cannot delete k before k into i is
        built."""
        k = 0
        while k < self.added:
            if k in self.live:
                for i in self.partners(k):
                    if i > k or k not in self.live:
                        break
                    if i in self.live:
                        yield self.resolvents(i, k) + (self.resolvents(k, i) if i != k else [])
            k += 1

    def subsumed(self, c: Clause, features=None) -> bool:
        """Does a live clause subsume c?  Tried in number order, on the
        clauses whose features on each side are among c's (`features`, if
        the caller has worked them out)."""
        ant, suc = features or _features(c)
        for d in self.live.values():
            d_ant, d_suc = d.features
            if d_ant <= ant and d_suc <= suc and subsumes(d.clause, c):
                return True
        return False

    def subsumed_by(self, k: int) -> list[int]:
        """The other live clauses that clause k subsumes, in number order:
        tried on the clauses whose features on each side hold clause k's."""
        d = self.live[k]
        ant, suc = d.features
        return [
            m
            for m, c in self.live.items()
            if m != k and ant <= c.features[0] and suc <= c.features[1]
            and subsumes(d.clause, c.clause)
        ]

    def redundancy(self, rules: RewriteSystem, c: Clause) -> str | None:
        """How c is redundant with respect to the live clauses and `rules`:
        "subsumption" if a live clause subsumes it (an equal one found in the
        set, else one found by the forward scan), else "local proof" if its
        frozen instance is locally provable, else None.  Subsumption implies
        a local proof, so it only saves time.

        The local proof is handed only the live clauses, in number order,
        whose symbols on both sides (_features) lie within c's own symbols
        and the right sides' (rules.right_symbols).  Every atom of the
        frozen c's reach set has only those symbols and frozen constants
        (RewriteSystem.right_symbols), no live clause holds a frozen
        constant (the reader rejects them), and an instance keeps every
        symbol of its clause: so a clause left out has no instance in the
        reach set, and the verdict is the same.  With no clause left, the
        frozen c's negated units are unsatisfiable exactly when an atom lies
        on both sides, so a tautology is the one local proof, and none is
        searched.
        """
        if c in self._clauses:
            return "subsumption"
        features = _features(c)
        if self.subsumed(c, features):
            return "subsumption"
        allowed = rules.right_symbols.union(*features)
        clauses = [
            d.clause
            for d in self.live.values()
            if d.features[0] <= allowed and d.features[1] <= allowed
        ]
        if not clauses:
            return None if set(c.antecedent).isdisjoint(c.succedent) else "local proof"
        return "local proof" if clause_redundant(clauses, rules, c) else None


@dataclass
class SaturationState:
    """Clauses and the rewrite system harvested with them.  `rules` holds
    the rules of `clauses` (rules_of): saturate and parse_state keep that,
    so a state file need not list them, and entails relies on it, as every
    reach set walks `rules` alone."""

    ordering: Ordering
    clauses: list[Clause] = field(default_factory=list)
    rules: RewriteSystem = field(default_factory=RewriteSystem)
    stats: SaturationStats = field(default_factory=SaturationStats)
    status: str = RUNNING

    @cached_property
    def index(self) -> ClauseIndex:
        """The index of `clauses`, built on first use.  Only add_clause
        extends it, so once built, clauses enter through it, and `clauses`
        holds its live clauses in order."""
        return ClauseIndex(self.ordering, self.clauses)

    def add_clause(self, c: Clause) -> None:
        """Store c, which the caller has found no live clause to subsume,
        and delete every live clause that c subsumes.  c's pairs are tried
        when it becomes the given clause (ClauseIndex.pairs)."""
        index = self.index
        k = index.add(c)
        self.clauses.append(c)
        deleted = index.subsumed_by(k)
        if deleted:
            for m in deleted:
                index.delete(m)
            self.clauses[:] = [d.clause for d in index.live.values()]
            self.stats.deleted += len(deleted)


def saturate(ordering: Ordering, clauses, limits: Limits = Limits()) -> SaturationState:
    """Run the saturation loop to a fixed point or a limit.

    The inferences of each pair of live clauses of the given-clause walk
    (ClauseIndex.pairs) are considered in turn, each by the first matching
    case: non-maximality, redundancy, discovery.  The limits are checked
    before each inference (Limits).  Returns the final state; status is
    "saturated" iff every inference of the walk was considered, else
    "limit_reached": an inference was left unconsidered, and the state is
    still usable but carries no completeness guarantee.  Either way its
    clauses are the live ones, in the order they were stored, and its rules
    start from those of every input clause.
    """
    clauses = list(clauses)
    state = SaturationState(ordering)
    for c in clauses:
        if not state.index.subsumed(c):
            state.add_clause(c)
    state.rules = rules_of(ordering, clauses)
    index = state.index
    steps = limits.max_steps
    full = False  # a discovery was stored while max_clauses or more were live
    for inferences in index.pairs():
        for inf in inferences:
            if full or (steps is not None and state.stats.inferences_considered >= steps):
                state.status = LIMIT_REACHED
                return state
            state.stats.inferences_considered += 1
            if not is_a_posteriori(ordering, inf):
                state.rules = state.rules | rules_of(ordering, inf.premise_instances)
                state.stats.non_maximality += 1
            elif how := index.redundancy(state.rules, inf.conclusion):
                state.stats.redundant += 1
                if how == "subsumption":
                    state.stats.redundant_by_subsumption += 1
            else:  # no live clause subsumes the conclusion: store it
                state.stats.discovered += 1
                full = limits.max_clauses is not None and len(state.clauses) >= limits.max_clauses
                state.add_clause(inf.conclusion)
                state.rules = state.rules | rules_of(ordering, [inf.conclusion])
        state.stats.items_processed += 1
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

    The inferences are those of the loop's given-clause walk over the
    clauses (ClauseIndex.pairs), in its order, and each is checked by the
    loop's case split, so the violations come in the walk's order:
    (3) an inference failing the a posteriori conditions contributed the
    rules of its premise instances, which must be in the system; (1) every
    other inference has a redundant conclusion, by the loop's test:
    subsumed by a clause, or locally provable within its frozen reach set.
    By the lemma (module docstring), an inference of the first kind whose
    rules are in the system has a redundant conclusion too, so it is not
    tested, and a missing rule is reported once, as condition 3.

    The system checked is `rules` with the rules the clauses give
    (rules_of), as parse_state loads it.  So the condition that the system
    holds the clauses' own rules, condition 2, holds by construction and is
    not checked; the other two keep their numbers.
    """
    clauses = list(clauses)
    rules = rules | rules_of(ordering, clauses)
    index = ClauseIndex(ordering, clauses)
    report = VerifyReport()
    for inferences in index.pairs():
        for inf in inferences:
            if not is_a_posteriori(ordering, inf):
                harvested = rules_of(ordering, inf.premise_instances)
                for rule in sorted(harvested.rules - rules.rules, key=str):
                    report.violations.append(f"condition 3: missing rule {rule} from {inf}")
            elif not index.redundancy(rules, inf.conclusion):
                report.violations.append(f"condition 1: not redundant: {inf}")
    return report
