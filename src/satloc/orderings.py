"""Lexicographic path ordering and the induced atom and set orderings.

The atom ordering compares argument terms only: A is greater than B when
every argument of B sits strictly below some argument of A under the LPO.
Predicate symbols never participate, so many atom pairs are incomparable;
that is fine because nothing here requires totality on atoms.
"""

from __future__ import annotations

from typing import Iterable

from .terms import Atom, Term, Var, is_frozen_symbol, vars_of


class Ordering:
    """Total strict precedence on function symbols plus the derived orders.

    Symbols are ranked by position in the construction sequence, highest
    first; `_rank` maps each symbol, in that order, to minus its position.
    Frozen constants (`#` names) are refused: frozen clauses are only read
    by reach and the local decision, which never consult the ordering.

    The precedence never changes once an ordering is built (symbols are
    appended only while it is being constructed; `extended` builds a new
    ordering), so each atom comparison is answered once and remembered, for
    the ordering's lifetime, in a dict keyed on the pair of interned atoms.
    A store is one dict assignment of an equal value, so any number of
    threads may share an ordering.
    """

    def __init__(self, symbols: Iterable[str] = ()):
        self._rank: dict[str, int] = {}
        self._atom_memo: dict[tuple[Atom, Atom], bool] = {}
        for name in symbols:
            self._append(name)

    def _append(self, name: str) -> None:
        if is_frozen_symbol(name):
            raise ValueError(f"frozen constant '{name}' cannot be ranked explicitly")
        if name in self._rank:
            raise ValueError(f"duplicate symbol '{name}' in precedence")
        self._rank[name] = -len(self._rank) - 1

    def extended(self, names: Iterable[str]) -> "Ordering":
        """New ordering with unseen names appended below the ranked ones."""
        out = Ordering(self._rank)
        for n in names:
            if n not in out._rank:
                out._append(n)
        return out

    def symbols(self) -> list[str]:
        """Ranked symbols, greatest first."""
        return list(self._rank)

    def __eq__(self, other) -> bool:
        return isinstance(other, Ordering) and self._rank == other._rank

    def __repr__(self) -> str:
        return f"Ordering({' > '.join(self._rank)})"

    def sym_key(self, name: str):
        try:
            return self._rank[name]
        except KeyError:
            raise KeyError(f"symbol '{name}' is not in the precedence") from None

    def lpo_greater(self, s: Term, t: Term) -> bool:
        """Standard lexicographic path ordering on terms.

        Written with plain loops so that it takes one stack frame per
        nesting level it descends.
        """
        if s is t or isinstance(s, Var):
            return False
        if isinstance(t, Var):
            return t in vars_of(s)
        # s = f(s1..sm), t = g(t1..tn)
        for a in s.args:
            if a is t or self.lpo_greater(a, t):
                return True
        ks = self.sym_key(s.name)
        kt = self.sym_key(t.name)
        if ks > kt:
            rest = t.args
        elif ks == kt:
            # same symbol: lexicographic on arguments, remainder below s
            for i, (a, b) in enumerate(zip(s.args, t.args)):
                if a is b:
                    continue
                if not self.lpo_greater(a, b):
                    return False
                rest = t.args[i + 1:]
                break
            else:
                return False
        else:
            return False
        for b in rest:
            if not self.lpo_greater(s, b):
                return False
        return True

    def atom_greater(self, a: Atom, b: Atom) -> bool:
        """True iff a is strictly above b in the argumentwise atom ordering.

        Holds when a != b, a has at least one argument, and every argument
        of b is strictly below some argument of a.  Distinct 0-ary atoms
        are incomparable.  The answer is remembered; an unranked symbol
        raises KeyError and leaves nothing behind.
        """
        key = (a, b)
        result = self._atom_memo.get(key)
        if result is not None:
            return result
        if a is b or not a.args:
            result = False
        else:
            result = all(any(self.lpo_greater(t, s) for t in a.args) for s in b.args)
            # standing hypothesis: greater atoms carry at least the variables
            assert not result or vars_of(b) <= vars_of(a)
        self._atom_memo[key] = result
        return result

    def is_maximal(self, a: Atom, others: Iterable[Atom]) -> bool:
        return not any(self.atom_greater(e, a) for e in others)

    def is_strictly_maximal(self, a: Atom, others: Iterable[Atom]) -> bool:
        return not any(e == a or self.atom_greater(e, a) for e in others)
