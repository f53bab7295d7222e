"""Local entailment: ground instances inside a finite atom universe + SAT.

A clause is provable from S inside a universe of ground atoms iff the
ground instances of S whose atoms stay inside the universe, together with
the negated goal units, are propositionally unsatisfiable.  Redundancy of a
non-ground clause, like a query with variables, is decided on a single
generic instance obtained by freezing its variables to fresh constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Iterator

from .rewriting import RewriteSystem, reach_clause
from .terms import (
    Atom,
    Clause,
    Subst,
    Var,
    atom_key,
    freeze,
    match_onto,
    substitute,
    vars_of,
)


def negated_units(c: Clause) -> set[Clause]:
    """The unit clauses asserting the negation of a clause."""
    out = {Clause((), (a,)) for a in c.antecedent}
    out |= {Clause((b,), ()) for b in c.succedent}
    return out


@dataclass(frozen=True, eq=False)
class LocalCertificate:
    """Witness for a local proof: everything needed to re-check it."""

    atom_universe: frozenset[Atom]
    instances: frozenset[Clause]
    negated_goal: frozenset[Clause]

    def validate(self) -> bool:
        """Re-check both certificate invariants."""
        for c in self.instances | self.negated_goal:
            if not c.atom_set() <= self.atom_universe:
                return False
        return ground_sat(self.instances | self.negated_goal) is None


def enumerate_local_instances(clauses: Iterable[Clause], universe: set[Atom]) -> set[Clause]:
    """All ground instances of the clauses whose atoms lie in the universe.

    The universe is indexed by predicate once per call.  Each distinct atom
    of a clause (an atom on both sides counts once) is a goal of
    _embeddings: its targets are the universe and its candidates the members
    with its predicate, so each pattern is matched onto each candidate once,
    and the search branches on the atom with the fewest matches left.  A
    clause with a predicate absent from the universe has no instance and is
    skipped.  Every clause variable occurs in some atom, so the embeddings
    give ground instances.  The cost follows the matches the universe
    admits, not |universe| to the power of the clause's atoms.
    """
    by_pred: dict[str, list[Atom]] = {}
    for a in universe:
        if not a.ground:
            raise ValueError(f"universe must be ground, got {a}")
        by_pred.setdefault(a.name, []).append(a)
    out: set[Clause] = set()
    for d in clauses:
        atoms = d.antecedent + d.succedent
        if any(a.name not in by_pred for a in atoms):
            continue
        goals = _goals((a, universe, by_pred[a.name]) for a in dict.fromkeys(atoms))
        for sigma in _embeddings(goals):
            out.add(substitute(sigma, d))
    return out


def ground_sat(clauses: Iterable[Clause]) -> dict[Atom, bool] | None:
    """Satisfying assignment for a set of ground clauses, or None if unsat.

    Atoms are numbered from 1 in atom_key order, and the clauses become
    literal sets, tautologies dropped, sorted by their sorted literals.  The
    DPLL search follows that numbering and order, so the verdict and model
    are deterministic; atoms the search leaves unassigned are false.
    """
    atoms: set[Atom] = set()
    clause_list = []
    for c in clauses:
        if not c.ground:
            raise ValueError(f"ground_sat requires ground clauses, got {c}")
        atoms |= c.atom_set()
        clause_list.append(c)
    index = {a: i + 1 for i, a in enumerate(sorted(atoms, key=atom_key))}
    cnf: set[frozenset[int]] = set()
    for c in clause_list:
        lits = frozenset(
            {-index[a] for a in c.antecedent} | {index[b] for b in c.succedent}
        )
        if any(-lit in lits for lit in lits):
            continue  # tautologous row, satisfied everywhere
        cnf.add(lits)
    model = _dpll(sorted(cnf, key=sorted))
    if model is None:
        return None
    by_atom = {a: model.get(i, False) for a, i in index.items()}
    return by_atom


def _dpll(cnf) -> dict[int, bool] | None:
    """Iterative DPLL over integer literals: unit propagation, branching on
    the lowest variable of a clause not yet satisfied (false first),
    chronological backtracking; the verdict and model are deterministic.

    Only the assignment (the set of true literals), the trail and the
    decision stack change during the search: a clause's state is read off
    the assignment whenever the clause is visited.
    """
    clauses = [frozenset(lits) for lits in cnf]
    occurs: dict[int, list[int]] = {}
    for i, lits in enumerate(clauses):
        for lit in lits:
            occurs.setdefault(abs(lit), []).append(i)
    variables = sorted(occurs)
    true: set[int] = set()
    trail: list[int] = []
    decisions: list[tuple[int, int, bool]] = []  # (trail mark, var, tried True)

    def assign(lit: int) -> None:
        true.add(lit)
        trail.append(lit)

    def unassign(lit: int) -> None:
        true.remove(lit)

    def propagate(todo) -> bool:
        """Visit the clauses in todo, then the clauses of each variable
        assigned meanwhile, in that order; a clause with no true literal
        and one free literal assigns it.  False when a visited clause has
        every literal false."""
        todo = list(todo)
        for i in todo:  # the list grows while it is walked
            if not true.isdisjoint(clauses[i]):
                continue
            free = [lit for lit in clauses[i] if -lit not in true]
            if not free:
                return False
            if len(free) == 1:
                assign(free[0])
                todo += occurs[abs(free[0])]
        return True

    ok = propagate(range(len(clauses)))
    while True:
        if ok:
            var = next(
                (v for v in variables
                 if v not in true and -v not in true
                 and any(true.isdisjoint(clauses[i]) for i in occurs[v])),
                None,
            )
            if var is None:
                return {abs(lit): lit > 0 for lit in trail}
            decisions.append((len(trail), var, False))
        else:
            # undo exhausted decisions, then flip the newest untried one
            while decisions and decisions[-1][2]:
                mark = decisions.pop()[0]
                while len(trail) > mark:
                    unassign(trail.pop())
            if not decisions:
                return None
            mark, var, _ = decisions[-1]
            while len(trail) > mark:
                unassign(trail.pop())
            decisions[-1] = (mark, var, True)
        assign(var if decisions[-1][2] else -var)
        ok = propagate(occurs[var])


def decide_local(
    clauses: Iterable[Clause], universe: set[Atom], goal: Clause
) -> LocalCertificate | None:
    """Certificate for a local proof of the goal from the clauses, or None.

    The goal must be ground with all its atoms inside the universe.
    """
    if not goal.ground:
        raise ValueError(f"decide_local requires a ground goal, got {goal}")
    if not goal.atom_set() <= universe:
        raise ValueError("goal atoms must lie inside the universe")
    instances = enumerate_local_instances(clauses, universe)
    negated = negated_units(goal)
    if ground_sat(instances | negated) is None:
        return LocalCertificate(
            atom_universe=frozenset(universe),
            instances=frozenset(instances),
            negated_goal=frozenset(negated),
        )
    return None


def clause_redundant(clauses: Iterable[Clause], rules: RewriteSystem, c: Clause) -> bool:
    """Redundancy of a clause via its frozen generic instance.

    A local proof of the frozen clause maps to one for every ground instance
    (matching, rewriting and propositional refutation are all stable under
    replacing the frozen constants), so this under-approximates safely.
    """
    frozen_c, _ = freeze(c)
    universe = reach_clause(rules, frozen_c)
    return decide_local(clauses, universe, frozen_c) is not None


# A goal: a pattern atom, its variables, the atoms it may land on, and its
# matches onto the candidates among those atoms.
Goal = tuple[Atom, set[Var], Collection[Atom], list[Subst]]


def _goals(patterns: Iterable[tuple[Atom, Collection[Atom], Iterable[Atom]]]) -> list[Goal]:
    """The goal of each (pattern, targets, candidates), up to the first whose
    pattern has no match.  A non-ground pattern is matched onto each of its
    candidates once; a ground one is looked up in its targets."""
    goals: list[Goal] = []
    for pattern, targets, candidates in patterns:
        variables = vars_of(pattern)
        if variables:
            matches = [m for m in (match_onto(pattern, t) for t in candidates) if m is not None]
        else:
            matches = [{}] if pattern in targets else []
        goals.append((pattern, variables, targets, matches))
        if not matches:
            break
    return goals


def _embeddings(goals: list[Goal]) -> Iterator[Subst]:
    """Each union of one match per goal that agrees on shared variables.

    The search binds one goal at a time.  A goal whose variables are all
    bound is settled by looking its instance up in its targets; every other
    goal keeps the matches that agree with the bindings so far.  The search
    fails as soon as a goal has none left and branches on the goal with the
    fewest (fail-first).  The matches bind only pattern variables, so the
    targets' variables stay fixed even where their names clash with the
    patterns', and no renaming apart is needed.

    The search is one loop over an explicit stack of branch points, each
    the goals left, the bindings and an iterator over the chosen goal's
    matches, so no frame is taken per goal; the embeddings come in
    depth-first order.
    """
    stack: list[tuple[list[Goal], Subst, Iterator[Subst]]] = []
    todo, sigma = goals, {}
    while True:
        open_goals: list[Goal] = []
        for pattern, variables, targets, matches in todo:
            if variables <= sigma.keys():
                if substitute(sigma, pattern) not in targets:
                    break
                continue
            if sigma:
                matches = [m for m in matches if all(sigma.get(v, t) is t for v, t in m.items())]
            if not matches:
                break
            open_goals.append((pattern, variables, targets, matches))
        else:
            if open_goals:
                best = min(range(len(open_goals)), key=lambda i: len(open_goals[i][3]))
                rest = open_goals[:best] + open_goals[best + 1 :]
                stack.append((rest, sigma, iter(open_goals[best][3])))
            else:
                yield sigma
        while stack:
            rest, bound, branches = stack[-1]
            m = next(branches, None)
            if m is not None:
                todo, sigma = rest, {**bound, **m}
                break
            stack.pop()
        else:
            return


def _side_goals(d: Clause, c: Clause) -> list[Goal]:
    """Goals sending each side of d onto the same side of c."""
    return _goals(
        (p, targets, targets)
        for pats, targets in ((d.antecedent, c.antecedent), (d.succedent, c.succedent))
        for p in pats
    )


def subsumes(d: Clause, c: Clause) -> bool:
    """True iff some substitution embeds d's sides into c's sides."""
    return next(_embeddings(_side_goals(d, c)), None) is not None
