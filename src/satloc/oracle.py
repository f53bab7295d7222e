"""Brute-force bounded-Herbrand entailment oracle for differential testing.

Instantiates every clause over all ground terms up to a height bound (seeded
with the subterms of the query) and hands the result to the propositional
checker.  Sound but incomplete: "entailed" is always right, "unknown" only
means the bound or budget was too small.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .entailment import ground_sat, negated_units
from .terms import Clause, Fn, Signature, Term, Var, _preorder, fresh_names, freeze
from .terms import sorted_vars, substitute, subterms

ENTAILED = "entailed"
UNKNOWN = "unknown"

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class HerbrandBound:
    depth: int

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError("depth must be non-negative")


@dataclass
class OracleResult:
    verdict: str
    reason: str | None = None  # "depth" or "budget" when unknown


def herbrand_terms(
    signature: Signature, bound: HerbrandBound, seeds=(), too_many=None
) -> set[Term] | None:
    """Ground terms built from the constants and the ground `seeds` by at
    most `depth` function layers.

    A default constant is injected when the signature has none and no seeds
    are given.  None as soon as too_many holds for a lower bound on the next
    layer's size (each function on each argument tuple, all distinct).  With
    no function of arity >= 1 the seeds are closed, so no layer is built,
    whatever the depth.
    """
    seeds = {Fn(name) for name in signature.constants()} | set(seeds)
    if not seeds:
        taken = set(signature.functions) | set(signature.predicates)
        seeds = {Fn(fresh_names(taken, 1, prefix="c")[0])}
    functions = sorted(
        (name, k) for name, k in signature.functions.items() if k > 0
    )
    terms = set(seeds)
    for _ in range(bound.depth if functions else 0):
        if too_many is not None and too_many(sum(len(terms) ** k for _, k in functions)):
            return None
        layer = set(terms)
        for name, k in functions:
            for args in itertools.product(terms, repeat=k):
                layer.add(Fn(name, args))
        terms = layer
    return terms


def _total_size(terms) -> int:
    """The symbols of the ground `terms` together, each term counted as a
    tree.  Sizes are stored per term, so a shared subterm is walked once."""
    size: dict[Term, int] = {}
    for t in terms:
        stack = [t]
        while stack:
            u = stack.pop()
            if u not in size:
                todo = [a for a in u.args if a not in size]
                if todo:
                    stack += [u, *todo]
                else:
                    size[u] = 1 + sum(size[a] for a in u.args)
    return sum(size[t] for t in terms)


def _shape(c: Clause) -> tuple[int, int, int]:
    """(variables, symbols, variable occurrences) of c: its instance with
    each variable bound to a term of s symbols has `symbols` + s *
    `occurrences` symbols."""
    atoms = c.antecedent + c.succedent
    terms = list(_preorder(tuple(t for a in atoms for t in a.args)))
    occurrences = sum(type(t) is Var for t in terms)
    return len(sorted_vars(c)), len(atoms) + len(terms) - occurrences, occurrences


def oracle_entails(
    clauses,
    goal: Clause,
    bound: HerbrandBound,
    budget: int = DEFAULT_BUDGET,
) -> OracleResult:
    """Semi-decide entailment of a clause by exhaustive instantiation,
    within `budget` symbols over all instances together (checked before each
    term layer is built, and before the instances are).  The goal's
    variables are frozen to fresh constants first, which then seed the terms
    like any other constant."""
    goal, _ = freeze(goal)
    clauses = list(clauses)
    signature = Signature.scan(clauses + [goal])
    harvested: set[Term] = set()
    for atom in goal.antecedent + goal.succedent:
        for t in atom.args:
            harvested |= subterms(t)
    shapes = [_shape(c) for c in clauses]

    def too_many(n: int, total: int) -> bool:
        """More symbols than the budget in the instances over n terms of
        `total` symbols together?  Each binding of a variable to a term
        appears in n ** (w - 1) of a clause's n ** w instances."""
        return sum(
            s * n**w + (o * total * n ** (w - 1) if w else 0) for w, s, o in shapes
        ) > budget

    # only clauses with variables need terms; a term has at least one symbol
    if any(w for w, _, _ in shapes):
        terms = herbrand_terms(signature, bound, harvested, lambda n: too_many(n, n))
    else:
        terms = set()
    if terms is None or too_many(len(terms), _total_size(terms)):
        return OracleResult(UNKNOWN, "budget")
    instances: set[Clause] = set()
    for c in clauses:
        variables = sorted_vars(c)
        for values in itertools.product(terms, repeat=len(variables)):
            instances.add(substitute(dict(zip(variables, values)), c))
    if ground_sat(instances | negated_units(goal)) is None:
        return OracleResult(ENTAILED)
    return OracleResult(UNKNOWN, "depth")
