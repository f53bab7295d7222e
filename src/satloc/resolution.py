"""A priori ordered resolution and its a posteriori check.

A priori rules test maximality on the premises before unification; the
a posteriori check re-tests on the unified premise instances, at the level
of atom occurrences (an occurrence that collapses onto the resolved atom
defeats strict maximality).

A clause's eligible atoms (the maximal ones of each side) belong to the
clause, not to a pair of premises, and maximality is invariant under
variable renaming.  So a_priori_resolvents takes its premises prepared:
the first premise with its eligible succedent atoms, and a renamed-apart
copy of the second with the images of its eligible antecedent atoms
(renamed_apart).  The saturation index keeps both in each live clause's
record, so nothing is worked out again for every pair.

Atoms are interned, so a pair of them is an exact and cheap key.  The
unifier of a resolved pair depends on the two atoms alone, and so does the
image of any atom under it.  a_priori_resolvents therefore takes a table
from (A, A') to the pair's mgu (None included) and a dict of atom images
under it, both filled on first use, and unifies each pair and substitutes
into each atom once per table.  The saturation index keeps one table for
its lifetime; a table is never module state, so nothing outlives its
owner.  The inferences on a pair share its unifier, and later calls share
its images, so neither may be mutated.

Saturation uses resolution alone.  Clauses are atom sets, so a factor's
frozen conclusion is a ground instance of its own premise inside its own
reach set: every factoring inference is redundant.  a_priori_factors is
kept only for the test of exactly that and for the benchmark's tracer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .orderings import Ordering
from .terms import Atom, Clause, Subst, mgu, renaming, substitute

RESOLUTION = "resolution"
FACTORING = "factoring"


@dataclass(eq=False, slots=True)
class Inference:
    """One resolution or factoring step with everything redundancy checks need.

    premises are the renamed-apart clauses actually used; resolved holds the
    pre-unification atom occurrences (A in the first premise's succedent and
    A' in the second premise's antecedent for resolution; the kept and the
    dropped succedent atom for factoring).  For resolution, siblings holds
    the other atom occurrences of each premise under the unifier, one list
    per premise, antecedent first: the conclusion's atoms before
    deduplication, and what is_a_posteriori compares the resolved atom with.

    The fields are read-only by contract, not frozen (a frozen dataclass
    costs twice as much to build): a resolution's unifier is the one that
    a_priori_resolvents' table holds for its resolved pair, shared by every
    inference on that pair.
    """

    kind: str
    premises: tuple[Clause, ...]
    unifier: Subst
    resolved: tuple[Atom, ...]
    resolved_atom: Atom
    conclusion: Clause
    siblings: tuple[list[Atom], list[Atom]] | None

    @property
    def premise_instances(self) -> tuple[Clause, ...]:
        """The premises under the unifier.  Built on each read: only the
        non-maximality case and the verifier's condition 3 read them."""
        return tuple(substitute(self.unifier, p) for p in self.premises)

    def __str__(self) -> str:
        prem = " ; ".join(str(p) for p in self.premises)
        return f"[{self.kind}] {prem} => {self.conclusion} (on {self.resolved_atom})"


def eligible_atoms(ordering: Ordering, c: Clause) -> tuple[tuple[Atom, ...], ...]:
    """The maximal atoms of c's antecedent and of its succedent, each in
    clause order: the atoms the a priori rule may resolve on."""
    atoms = c.antecedent + c.succedent  # an atom on both sides is no greater than itself
    maximal = ordering.is_maximal
    return (
        tuple([a for a in c.antecedent if maximal(a, atoms)]),
        tuple([a for a in c.succedent if maximal(a, atoms)]),
    )


def renamed_apart(
    c: Clause, eligible_antecedent: tuple[Atom, ...], forbidden
) -> tuple[Clause, tuple[Atom, ...]]:
    """A variant of c whose variables avoid the forbidden set, and the
    images of c's eligible antecedent atoms in the copy's order, which are
    the copy's eligible antecedent atoms since renaming keeps maximality."""
    rho = renaming(c, forbidden)
    if not rho:
        return c, eligible_antecedent
    copy = substitute(rho, c)
    images = {substitute(rho, a) for a in eligible_antecedent}
    return copy, tuple(a for a in copy.antecedent if a in images)


def a_priori_resolvents(
    c1: Clause,
    eligible1: tuple[Atom, ...],
    c2r: Clause,
    eligible2: tuple[Atom, ...],
    unifiers: dict[tuple[Atom, Atom], tuple[Subst | None, dict[Atom, Atom]]],
) -> list[Inference]:
    """Resolution inferences whose premise-side maximality conditions hold:
    c1's eligible succedent atoms eligible1 against eligible2, the eligible
    antecedent atoms of c2r, a second premise already renamed apart from c1.
    Enumeration follows the canonical atom order, so the output is
    deterministic.

    unifiers is the table of resolved pairs (A, A'), each with its mgu and
    the images of atoms under it, read and filled here: an entry is worked
    out on the pair's first use and reused by every later pair of premises
    that resolves on the same two atoms.  Its entries must not be mutated;
    a fresh {} works everything out for this one call.
    """
    out: list[Inference] = []
    for a in eligible1:
        for ap in eligible2:
            entry = unifiers.get((a, ap))
            if entry is None:
                alpha = mgu(a, ap)
                entry = unifiers[a, ap] = (alpha, _Images(alpha))
            alpha, images = entry
            if alpha is None:
                continue
            ant1 = [images[x] for x in c1.antecedent]
            ant2 = [images[x] for x in c2r.antecedent if x != ap]
            suc1 = [images[x] for x in c1.succedent if x != a]
            suc2 = [images[x] for x in c2r.succedent]
            out.append(
                Inference(
                    kind=RESOLUTION,
                    premises=(c1, c2r),
                    unifier=alpha,
                    resolved=(a, ap),
                    resolved_atom=images[a],
                    conclusion=Clause(ant1 + ant2, suc1 + suc2),
                    siblings=(ant1 + suc1, ant2 + suc2),
                )
            )
    return out


class _Images(dict):
    """The images of atoms under one unifier, each worked out on its first
    lookup."""

    __slots__ = ("alpha",)

    def __init__(self, alpha: Subst | None):
        self.alpha = alpha

    def __missing__(self, x: Atom) -> Atom:
        y = self[x] = substitute(self.alpha, x)
        return y


def a_priori_factors(ordering: Ordering, c: Clause) -> list[Inference]:
    """Factoring inferences: one per unifiable pair of succedent atoms with a
    maximal member (the maximal one is kept)."""
    atoms = c.antecedent + c.succedent
    succ = c.succedent
    out: list[Inference] = []
    for i, a in enumerate(succ):
        for ap in succ[i + 1:]:
            alpha = mgu(a, ap)
            if alpha is None:
                continue
            if ordering.is_maximal(a, atoms):
                kept, dropped = a, ap
            elif ordering.is_maximal(ap, atoms):
                kept, dropped = ap, a
            else:
                continue
            conclusion = substitute(
                alpha,
                Clause(c.antecedent, tuple(x for x in succ if x != dropped)),
            )
            out.append(
                Inference(
                    kind=FACTORING,
                    premises=(c,),
                    unifier=alpha,
                    resolved=(kept, dropped),
                    resolved_atom=substitute(alpha, kept),
                    conclusion=conclusion,
                    siblings=None,
                )
            )
    return out


def is_a_posteriori(ordering: Ordering, inf: Inference) -> bool:
    """Re-test maximality on the unified premise instances of a resolution.

    Occurrence-level: each premise atom other than the resolved occurrence is
    instantiated separately (inf.siblings), so a sibling collapsing onto the
    resolved atom blocks strict maximality.
    """
    others1, others2 = inf.siblings
    a_inst = inf.resolved_atom
    return ordering.is_strictly_maximal(a_inst, others1) and ordering.is_maximal(
        a_inst, others2
    )
