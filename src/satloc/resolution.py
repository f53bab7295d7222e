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
from (A, A') to a dict of atom images under the pair's mgu (_Images, whose
alpha is None when the pair does not unify), filled on first use, and
unifies each pair and substitutes into each atom once per table.  The
saturation index keeps one table for its lifetime; a table is never module
state, so nothing outlives its owner.  An inference keeps the images of its
premises' atoms in lists of its own (Inference.sides), and no field of it
is an object that the table holds.

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

    premises are the renamed-apart clauses actually used, the first
    premise's succedent atom A resolved against the second premise's
    antecedent atom A'; a factor has its one premise.  resolved_atom is the
    image of A (and of A', or of the dropped factored atom) under the
    unifier.  sides holds, for each premise, the images of its antecedent
    atoms and of its succedent atoms, each in clause order and leaving out
    the resolved occurrence (A in the first premise, A' in the second, the
    dropped atom in a factor): the conclusion's atoms before deduplication,
    and what is_a_posteriori compares the resolved atom with.

    Not frozen: a frozen dataclass costs twice as much to build.
    """

    kind: str
    premises: tuple[Clause, ...]
    resolved_atom: Atom
    conclusion: Clause
    sides: tuple[tuple[list[Atom], list[Atom]], ...]

    @property
    def premise_instances(self) -> tuple[Clause, ...]:
        """The premises under the unifier, put back together from sides:
        clauses are atom sets, so an atom that collapses onto the resolved
        atom is the same one.  Built on each read: only the non-maximality
        case and the verifier's condition 3 read them."""
        a = self.resolved_atom
        (ant1, suc1), *rest = self.sides
        return (Clause(ant1, suc1 + [a]), *(Clause(ant2 + [a], suc2) for ant2, suc2 in rest))

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
    unifiers: dict[tuple[Atom, Atom], _Images],
) -> list[Inference]:
    """Resolution inferences whose premise-side maximality conditions hold:
    c1's eligible succedent atoms eligible1 against eligible2, the eligible
    antecedent atoms of c2r, a second premise already renamed apart from c1.
    Enumeration follows the canonical atom order, so the output is
    deterministic.

    unifiers is the table of resolved pairs (A, A'), each with the images
    of atoms under its mgu, read and filled here: an entry is worked out on
    the pair's first use and reused by every later pair of premises that
    resolves on the same two atoms.  A fresh {} works everything out for
    this one call.
    """
    out: list[Inference] = []
    for a in eligible1:
        for ap in eligible2:
            images = unifiers.get((a, ap))
            if images is None:
                images = unifiers[a, ap] = _Images(mgu(a, ap))
            if images.alpha is None:
                continue
            ant1 = [images[x] for x in c1.antecedent]
            ant2 = [images[x] for x in c2r.antecedent if x != ap]
            suc1 = [images[x] for x in c1.succedent if x != a]
            suc2 = [images[x] for x in c2r.succedent]
            out.append(
                Inference(
                    kind=RESOLUTION,
                    premises=(c1, c2r),
                    resolved_atom=images[a],
                    conclusion=Clause(ant1 + ant2, suc1 + suc2),
                    sides=((ant1, suc1), (ant2, suc2)),
                )
            )
    return out


class _Images(dict):
    """The images of atoms under one unifier, alpha, each worked out on its
    first lookup; alpha is None for a pair that does not unify."""

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
            ant = [substitute(alpha, x) for x in c.antecedent]
            suc = [substitute(alpha, x) for x in succ if x != dropped]
            out.append(
                Inference(
                    kind=FACTORING,
                    premises=(c,),
                    resolved_atom=substitute(alpha, kept),
                    conclusion=Clause(ant, suc),
                    sides=((ant, suc),),
                )
            )
    return out


def is_a_posteriori(ordering: Ordering, inf: Inference) -> bool:
    """Re-test maximality on the unified premise instances of a resolution.

    Occurrence-level: each premise atom other than the resolved occurrence is
    instantiated separately (inf.sides), so an atom collapsing onto the
    resolved atom blocks strict maximality.
    """
    (ant1, suc1), (ant2, suc2) = inf.sides
    a_inst = inf.resolved_atom
    return ordering.is_strictly_maximal(a_inst, ant1 + suc1) and ordering.is_maximal(
        a_inst, ant2 + suc2
    )
