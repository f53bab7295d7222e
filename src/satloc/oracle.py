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
from .terms import Clause, Fn, Signature, Term, fresh_names, sorted_vars, substitute, subterms

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
    layer's size (each function on each argument tuple, all distinct).
    """
    seeds = {Fn(name) for name in signature.constants()} | set(seeds)
    if not seeds:
        taken = set(signature.functions) | set(signature.predicates)
        seeds = {Fn(fresh_names(taken, 1, prefix="c")[0])}
    functions = sorted(
        (name, k) for name, k in signature.functions.items() if k > 0
    )
    terms = set(seeds)
    for _ in range(bound.depth):
        if too_many is not None and too_many(sum(len(terms) ** k for _, k in functions)):
            return None
        layer = set(terms)
        for name, k in functions:
            for args in itertools.product(terms, repeat=k):
                layer.add(Fn(name, args))
        terms = layer
    return terms


def oracle_entails(
    clauses,
    goal: Clause,
    bound: HerbrandBound,
    budget: int = DEFAULT_BUDGET,
) -> OracleResult:
    """Semi-decide entailment of a ground clause by exhaustive instantiation,
    within `budget` instances (checked before each term layer is built)."""
    if not goal.ground:
        raise ValueError(f"oracle queries must be ground, got {goal}")
    clauses = list(clauses)
    signature = Signature.scan(clauses + [goal])
    harvested: set[Term] = set()
    for atom in goal.antecedent + goal.succedent:
        for t in atom.args:
            harvested |= subterms(t)
    widths = [len(sorted_vars(c)) for c in clauses]

    def too_many(n: int) -> bool:  # more instances over n terms than the budget?
        return sum(n ** w for w in widths) > budget

    # only clauses with variables need terms
    terms = herbrand_terms(signature, bound, harvested, too_many) if any(widths) else set()
    if terms is None or too_many(len(terms)):
        return OracleResult(UNKNOWN, "budget")
    instances: set[Clause] = set()
    for c in clauses:
        variables = sorted_vars(c)
        for values in itertools.product(terms, repeat=len(variables)):
            instances.add(substitute(dict(zip(variables, values)), c))
    if ground_sat(instances | negated_units(goal)) is None:
        return OracleResult(ENTAILED)
    return OracleResult(UNKNOWN, "depth")
