"""Atom rewriting systems: extraction from clauses, reachability, derived order.

A rule rewrites a whole atom to a strictly smaller atom (argumentwise, under
the atom ordering).  Reachability from a ground atom is finite because rules
only descend and each step is a matched instance of finitely many rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .orderings import Ordering
from .terms import (
    Atom,
    Clause,
    atom_key,
    atom_symbols,
    canonical_renaming,
    match_onto,
    substitute,
    vars_in_order,
    vars_of,
)


@dataclass(frozen=True)
class RewriteRule:
    lhs: Atom
    rhs: Atom

    def __post_init__(self) -> None:
        if self.lhs == self.rhs:
            raise ValueError("identity rewrite rules are excluded")
        if not vars_of(self.rhs) <= vars_of(self.lhs):
            raise ValueError(f"rule {self} introduces variables on the right")

    def __str__(self) -> str:
        return f"{self.lhs} -> {self.rhs}"


def rule_key(r: RewriteRule):
    return (atom_key(r.lhs), atom_key(r.rhs))


def canonical_rule(lhs: Atom, rhs: Atom) -> RewriteRule:
    """Rule with variables renamed V0, V1, ... in first occurrence order."""
    rho = canonical_renaming(vars_in_order(lhs) | vars_in_order(rhs))
    return RewriteRule(substitute(rho, lhs), substitute(rho, rhs))


@dataclass(frozen=True)
class RewriteSystem:
    """Immutable set of rewrite rules, deduplicated modulo renaming."""

    rules: frozenset[RewriteRule] = frozenset()

    @classmethod
    def of(cls, ordering: Ordering, pairs: Iterable[tuple[Atom, Atom]]) -> "RewriteSystem":
        """Build from (lhs, rhs) pairs, checking the ordering orientation."""
        out = set()
        for lhs, rhs in pairs:
            if not ordering.atom_greater(lhs, rhs):
                raise ValueError(f"rule {lhs} -> {rhs} is not ordered")
            out.add(canonical_rule(lhs, rhs))
        return cls(frozenset(out))

    def __or__(self, other: "RewriteSystem") -> "RewriteSystem":
        if other.rules <= self.rules:
            return self  # keeps the rule index already built
        return RewriteSystem(self.rules | other.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def sorted_rules(self) -> list[RewriteRule]:
        return sorted(self.rules, key=rule_key)

    @cached_property
    def by_predicate(self) -> dict[str, tuple[RewriteRule, ...]]:
        """Rules grouped by the predicate of their left side, built on first use.

        The system is immutable, so the index never goes stale; building it
        twice from two threads yields equal values.
        """
        index: dict[str, list[RewriteRule]] = {}
        for rule in self.rules:
            index.setdefault(rule.lhs.pred, []).append(rule)
        return {pred: tuple(rules) for pred, rules in index.items()}

    @cached_property
    def right_symbols(self) -> frozenset[str]:
        """The predicate and function symbols of every rule's right side,
        worked out on first use.

        A step rewrites a ground atom A by a rule l -> r to rσ, where σ maps
        r's variables (all of them l's) to subterms of A.  So every atom
        reachable from a ground clause has only the clause's symbols and
        these: a clause with a symbol outside both has no instance in the
        reach set, and a local proof need not try it.
        """
        return frozenset().union(*(atom_symbols(rule.rhs) for rule in self.rules))


def rules_of(ordering: Ordering, clauses: Iterable[Clause]) -> RewriteSystem:
    """All ordered pairs of distinct atoms within single clauses."""
    rules = set()
    for c in clauses:
        atoms = c.antecedent + c.succedent
        for lhs in atoms:
            for rhs in atoms:
                if lhs != rhs and ordering.atom_greater(lhs, rhs):
                    rules.add(canonical_rule(lhs, rhs))
    return RewriteSystem(frozenset(rules))


def rewrite_one(system: RewriteSystem, a: Atom) -> set[Atom]:
    """All single-step rewrites of an atom.

    Only rules whose left side has the atom's predicate can match, so just
    that bucket of the system's predicate index is tried.
    """
    out: set[Atom] = set()
    for rule in system.by_predicate.get(a.pred, ()):
        sigma = match_onto(rule.lhs, a)
        if sigma is not None:
            out.add(substitute(sigma, rule.rhs))
    return out


def reach(system: RewriteSystem, *atoms: Atom) -> set[Atom]:
    """Atoms reachable from ground atoms, including the atoms themselves;
    one search, so each atom is rewritten once."""
    for a in atoms:
        if not a.ground:
            raise ValueError(f"reach requires a ground atom, got {a}")
    seen: set[Atom] = set(atoms)
    frontier: list[Atom] = list(seen)
    while frontier:
        current = frontier.pop()
        for nxt in rewrite_one(system, current):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def reach_clause(system: RewriteSystem, c: Clause) -> set[Atom]:
    """Union of the reach sets of a ground clause's atoms."""
    return reach(system, *c.antecedent, *c.succedent)
