"""First-order terms, atoms, clauses and substitutions.

Clauses are pairs of atom *sets* (antecedent -> succedent), stored in a
canonical deduplicated, sorted form so that structural equality is clause
equality.  Substitutions are plain dicts from Var to Term and are kept
idempotent (no bound variable occurs in any range term).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

FROZEN_PREFIX = "#"


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Fn:
    """Function application; constants are 0-ary functions."""

    name: str
    args: tuple["Term", ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({','.join(str(a) for a in self.args)})"


Term = Union[Var, Fn]


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(str(a) for a in self.args)})"


def atom_key(a: Atom) -> tuple:
    """Total syntactic order key; variables sort before applications.

    A flat preorder tuple: the predicate, then (0, name) for each variable
    and (1, name, arity) for each application, arguments after their head.
    The arity keeps distinct atoms apart whatever the signature.  With one
    arity per symbol (the parser enforces it) the arity never decides a
    comparison and each term's encoding is prefix-free, so this orders
    atoms exactly like the nested key (pred, ((tag, name, (args...)), ...))
    while comparing in time linear in the atoms' size instead of quadratic
    in their depth.
    """
    out: list = [a.pred]
    stack = list(a.args[::-1])
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out += (0, t.name)
        else:
            args = t.args
            out += (1, t.name, len(args))
            if args:
                stack += args[::-1]
    return tuple(out)


@dataclass(frozen=True, init=False)
class Clause:
    """Canonical clause: each side deduplicated and sorted syntactically."""

    antecedent: tuple[Atom, ...]
    succedent: tuple[Atom, ...]

    def __init__(self, antecedent: Iterable[Atom] = (), succedent: Iterable[Atom] = ()):
        object.__setattr__(self, "antecedent", tuple(sorted(set(antecedent), key=atom_key)))
        object.__setattr__(self, "succedent", tuple(sorted(set(succedent), key=atom_key)))

    def atoms(self) -> tuple[Atom, ...]:
        """All atoms of the clause in canonical order, without duplicates."""
        return tuple(sorted(set(self.antecedent) | set(self.succedent), key=atom_key))

    def atom_set(self) -> frozenset[Atom]:
        return frozenset(self.antecedent) | frozenset(self.succedent)

    def is_ground(self) -> bool:
        return not vars_in_order(self)

    def is_empty(self) -> bool:
        return not self.antecedent and not self.succedent

    def __str__(self) -> str:
        ant = ", ".join(str(a) for a in self.antecedent)
        suc = ", ".join(str(a) for a in self.succedent)
        if ant and suc:
            return f"{ant} -> {suc}"
        if ant:
            return f"{ant} ->"
        if suc:
            return f"-> {suc}"
        return "->"


def clause_key(c: Clause):
    return (
        tuple(atom_key(a) for a in c.antecedent),
        tuple(atom_key(a) for a in c.succedent),
    )


Subst = dict[Var, Term]


def vars_in_order(e) -> dict[Var, None]:
    """The variables of a term, atom or clause, as the keys of a dict, in
    left-to-right preorder of first occurrence (a clause: antecedent, then
    succedent).

    This order numbers frozen constants and renames rule variables.  The
    walk descends into first arguments in a loop and stacks the others, so
    term depth does not meet the recursion limit.
    """
    seen: dict[Var, None] = {}
    stack: list = []
    while True:
        kind = type(e)
        if kind is Var:
            seen[e] = None
        elif kind is Fn or kind is Atom:
            args = e.args
            if args:
                if len(args) > 1:
                    stack += args[:0:-1]
                e = args[0]
                continue
        elif kind is Clause:
            stack += (e.antecedent + e.succedent)[::-1]
        else:
            raise TypeError(f"cannot collect variables from {e!r}")
        if not stack:
            return seen
        e = stack.pop()


def vars_of(e) -> set[Var]:
    """Variables occurring in a term, atom or clause."""
    return set(vars_in_order(e))


def sorted_vars(e) -> list[Var]:
    """Variables of e sorted by name (for deterministic enumeration)."""
    return sorted(vars_of(e), key=lambda v: v.name)


def subterms(t: Term) -> set[Term]:
    """The subterm set Sub(t), including t itself."""
    out: set[Term] = {t}
    if isinstance(t, Fn):
        for a in t.args:
            out |= subterms(a)
    return out


def is_ground(e) -> bool:
    return not vars_in_order(e)


def substitute(sigma: Subst, e):
    """Apply an idempotent substitution; one simultaneous pass, no chasing."""
    if isinstance(e, Var):
        return sigma.get(e, e)
    if isinstance(e, Fn):
        if not e.args:
            return e
        return Fn(e.name, tuple(substitute(sigma, a) for a in e.args))
    if isinstance(e, Atom):
        return Atom(e.pred, tuple(substitute(sigma, a) for a in e.args))
    if isinstance(e, Clause):
        return Clause(
            (substitute(sigma, a) for a in e.antecedent),
            (substitute(sigma, a) for a in e.succedent),
        )
    raise TypeError(f"cannot substitute into {e!r}")


def _decompose(e1, e2) -> list[tuple[Term, Term]] | None:
    """Initial pair list for unification/matching; None on head clash."""
    if isinstance(e1, Atom) and isinstance(e2, Atom):
        if e1.pred != e2.pred or len(e1.args) != len(e2.args):
            return None
        return list(zip(e1.args, e2.args))
    if isinstance(e1, Atom) or isinstance(e2, Atom):
        raise TypeError("cannot unify an atom with a term")
    return [(e1, e2)]


def mgu(e1, e2) -> Subst | None:
    """Most general unifier of two terms or two atoms, or None.

    Deterministic: pairs are processed left to right, and a variable-variable
    pair binds the variable with the syntactically smaller name.
    """
    pairs = _decompose(e1, e2)
    if pairs is None:
        return None
    sigma: Subst = {}
    while pairs:
        s, t = pairs.pop(0)
        s = substitute(sigma, s)
        t = substitute(sigma, t)
        if s == t:
            continue
        if isinstance(s, Var) and isinstance(t, Var):
            v, u = (s, t) if s.name < t.name else (t, s)
            sigma = _bind(sigma, v, u)
        elif isinstance(s, Var):
            if s in vars_of(t):
                return None
            sigma = _bind(sigma, s, t)
        elif isinstance(t, Var):
            if t in vars_of(s):
                return None
            sigma = _bind(sigma, t, s)
        else:
            if s.name != t.name or len(s.args) != len(t.args):
                return None
            pairs[0:0] = list(zip(s.args, t.args))
    return sigma


def _bind(sigma: Subst, v: Var, t: Term) -> Subst:
    one = {v: t}
    out = {x: substitute(one, u) for x, u in sigma.items()}
    out[v] = t
    return out


def match_onto(pattern, target) -> Subst | None:
    """Substitution sigma with substitute(sigma, pattern) == target, or None.

    One-sided: only variables of the pattern are bound; the unique such
    substitution is returned when it exists.
    """
    pairs = _decompose(pattern, target)
    if pairs is None:
        return None
    sigma: Subst = {}
    while pairs:
        p, t = pairs.pop(0)
        if isinstance(p, Var):
            if p in sigma:
                if sigma[p] != t:
                    return None
            else:
                sigma[p] = t
        elif isinstance(t, Fn) and p.name == t.name and len(p.args) == len(t.args):
            pairs[0:0] = list(zip(p.args, t.args))
        else:
            return None
    return sigma


def fresh_names(used: set[str], count: int, prefix: str = "V") -> list[str]:
    """Deterministic fresh variable names prefix0, prefix1, ... skipping used."""
    out: list[str] = []
    i = 0
    while len(out) < count:
        name = f"{prefix}{i}"
        if name not in used:
            out.append(name)
        i += 1
    return out


def rename_apart(c: Clause, forbidden: Iterable[Var]) -> Clause:
    """Variant of c whose variables avoid the forbidden set; always systematic."""
    own = sorted(vars_of(c), key=lambda v: v.name)
    if not own:
        return c
    used = {v.name for v in forbidden} | {v.name for v in own}
    names = fresh_names(used, len(own))
    rho: Subst = {v: Var(n) for v, n in zip(own, names)}
    return substitute(rho, c)


FreezeMap = dict[Var, Fn]


def frozen_constant(index: int) -> Fn:
    return Fn(f"{FROZEN_PREFIX}{index}")


def is_frozen_symbol(name: str) -> bool:
    return name.startswith(FROZEN_PREFIX)


def freeze(c: Clause) -> tuple[Clause, FreezeMap]:
    """Replace each variable by a distinct fresh frozen constant.

    The result is ground; the returned map inverts the replacement.  Frozen
    constants are numbered by first occurrence in the canonical clause form.
    """
    mapping: FreezeMap = {v: frozen_constant(i) for i, v in enumerate(vars_in_order(c), 1)}
    return substitute(mapping, c), mapping


class ArityError(ValueError):
    pass


class Signature:
    """Function and predicate symbols with arities, consistency-checked."""

    def __init__(self) -> None:
        self.functions: dict[str, int] = {}
        self.predicates: dict[str, int] = {}

    def note_function(self, name: str, arity: int) -> None:
        if name in self.predicates:
            raise ArityError(f"symbol '{name}' used both as predicate and function")
        old = self.functions.setdefault(name, arity)
        if old != arity:
            raise ArityError(f"function '{name}' used with arities {old} and {arity}")

    def note_predicate(self, name: str, arity: int) -> None:
        if name in self.functions:
            raise ArityError(f"symbol '{name}' used both as predicate and function")
        old = self.predicates.setdefault(name, arity)
        if old != arity:
            raise ArityError(f"predicate '{name}' used with arities {old} and {arity}")

    def scan_term(self, t: Term) -> None:
        if isinstance(t, Fn):
            self.note_function(t.name, len(t.args))
            for a in t.args:
                self.scan_term(a)

    def scan_atom(self, a: Atom) -> None:
        self.note_predicate(a.pred, len(a.args))
        for t in a.args:
            self.scan_term(t)

    def scan_clause(self, c: Clause) -> None:
        for a in c.antecedent + c.succedent:
            self.scan_atom(a)

    @classmethod
    def scan(cls, clauses: Iterable[Clause]) -> "Signature":
        sig = cls()
        for c in clauses:
            sig.scan_clause(c)
        return sig

    def constants(self) -> list[str]:
        return sorted(n for n, k in self.functions.items() if k == 0)
