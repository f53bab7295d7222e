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

        Each comparison is a generator (`_lpo_steps`) that yields the
        sub-comparisons it needs and is sent their answers; this loop runs
        them from a stack, so no frame is taken per nesting level.
        """
        stack = [self._lpo_steps(s, t)]
        answer = None
        while stack:
            try:
                pair = stack[-1].send(answer)
            except StopIteration as done:
                stack.pop()
                answer = done.value
            else:
                stack.append(self._lpo_steps(*pair))
                answer = None
        return answer

    def _lpo_steps(self, s: Term, t: Term):
        """s > t, as a generator of the sub-comparisons (s', t') it needs;
        each is sent back its answer.

        The cases are tried in Löchner's order ("Things to know when
        implementing LPO", 2006), in which one case decides:
        - equal heads: the first differing argument pair decides; if s's
          argument is greater, s must be above t's remaining arguments,
          otherwise one of s's remaining arguments must be at least t;
        - a greater head: s must be above every argument of t;
        - a smaller head: some argument of s must be at least t.
        The subterm case is not tried on its own: an argument of s that is
        at least t puts s above every argument of t, and s's arguments up
        to the differing pair cannot be at least t.  Trying it first made
        f^n(a) against f^n(b) take about 1.75^n comparisons; this order
        takes n + 1.  A symbol used with two arities compares the common
        prefix of its argument lists; when that is all equal, one of s's
        later arguments must be at least t.
        """
        if s is t or type(s) is Var:
            return False
        if type(t) is Var:
            return t in vars_of(s)
        above = None  # s must be above each of these; else some of reach must be >= t
        if s.name == t.name:
            n = min(len(s.args), len(t.args))
            i = 0
            while i < n and s.args[i] is t.args[i]:
                i += 1
            if i < n:
                if (yield s.args[i], t.args[i]):
                    above = t.args[i + 1:]
                i += 1
            reach = s.args[i:]
        elif self.sym_key(s.name) > self.sym_key(t.name):
            above = t.args
        else:
            reach = s.args
        if above is not None:
            for b in above:
                if not (yield s, b):
                    return False
            return True
        for a in reach:
            if a is t or (yield a, t):
                return True
        return False

    def atom_greater(self, a: Atom, b: Atom) -> bool:
        """True iff a is strictly above b in the argumentwise atom ordering.

        Holds when a != b, a has at least one argument, and every argument
        of b is strictly below some argument of a.  Distinct 0-ary atoms
        are incomparable.  The answer is remembered; an unranked symbol
        raises KeyError and leaves nothing behind.

        An atom is not above itself, and if b has a variable that a lacks,
        a is not above b either: s > t in the LPO implies Var(t) <= Var(s),
        the atom ordering's standing hypothesis.  Both answers are False at
        once, with no LPO step and nothing remembered, so the n atoms of a
        clause on pairwise distinct variables leave no n^2 memo entries.
        """
        key = (a, b)
        result = self._atom_memo.get(key)
        if result is not None:
            return result
        if a is b or not b.ground and not vars_of(b) <= vars_of(a):
            return False
        result = bool(a.args) and all(any(self.lpo_greater(t, s) for t in a.args) for s in b.args)
        self._atom_memo[key] = result
        return result

    def is_maximal(self, a: Atom, others: Iterable[Atom]) -> bool:
        return not any(self.atom_greater(e, a) for e in others)

    def is_strictly_maximal(self, a: Atom, others: Iterable[Atom]) -> bool:
        return not any(e == a or self.atom_greater(e, a) for e in others)
