"""First-order terms, atoms, clauses and substitutions.

Terms and atoms are hash-consed: each of Var, Fn and Atom keeps one table
from its fields to the single object with those fields, so equal terms are
the same object, and equality and hashing are object identity, in constant
time whatever the depth.  The tables are plain dicts that keep every
distinct term the process builds, for the life of the process.  Inserting
with dict.setdefault makes construction thread-safe: two threads that build
the same term get the same object.

Clauses are pairs of atom *sets* (antecedent -> succedent), stored in a
canonical deduplicated, sorted form so that structural equality is clause
equality.  Substitutions are plain dicts from Var to Term.  Those that the
functions here return are idempotent (no bound variable occurs in any range
term); `mgu` keeps its working map in triangular form and resolves it once,
at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

FROZEN_PREFIX = "#"

_set = object.__setattr__


class _Interned:
    """Base of the hash-consed classes.  Fields are set once, in __new__;
    no __eq__ or __hash__ is defined, so both are object identity."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __str__(self) -> str:
        return _text(self)


class Var(_Interned):
    __slots__ = ("name",)
    ground = False
    _table: dict[str, Var] = {}

    def __new__(cls, name: str) -> Var:
        v = Var._table.get(name)
        if v is None:
            v = object.__new__(cls)
            _set(v, "name", name)
            v = Var._table.setdefault(name, v)
        return v

    def __reduce__(self):
        return Var, (self.name,)

    def __repr__(self) -> str:
        return f"Var(name={self.name!r})"


class Fn(_Interned):
    """Function application; constants are 0-ary functions.

    `ground` (no variable occurs) is computed at construction from the
    arguments' flags.
    """

    __slots__ = ("name", "args", "ground")
    _table: dict[tuple, Fn] = {}

    def __new__(cls, name: str, args: Iterable[Term] = ()) -> Fn:
        args = tuple(args)
        key = (name, args)
        t = Fn._table.get(key)
        if t is None:
            t = object.__new__(cls)
            _set(t, "name", name)
            _set(t, "args", args)
            _set(t, "ground", all(a.ground for a in args))
            t = Fn._table.setdefault(key, t)
        return t

    def __reduce__(self):
        return Fn, (self.name, self.args)

    def __repr__(self) -> str:
        return f"Fn(name={self.name!r}, args={self.args!r})"


Term = Union[Var, Fn]


class Atom(_Interned):
    """Predicate application.  `ground` is stored as in Fn; the atom_key and
    the symbol set (atom_symbols) of the atom are stored on their first
    use."""

    __slots__ = ("pred", "args", "ground", "_key", "_symbols")
    _table: dict[tuple, Atom] = {}

    def __new__(cls, pred: str, args: Iterable[Term] = ()) -> Atom:
        args = tuple(args)
        key = (pred, args)
        a = Atom._table.get(key)
        if a is None:
            a = object.__new__(cls)
            _set(a, "pred", pred)
            _set(a, "args", args)
            _set(a, "ground", all(t.ground for t in args))
            _set(a, "_key", None)
            _set(a, "_symbols", None)
            a = Atom._table.setdefault(key, a)
        return a

    def __reduce__(self):
        return Atom, (self.pred, self.args)

    def __repr__(self) -> str:
        return f"Atom(pred={self.pred!r}, args={self.args!r})"


def _text(e: Term | Atom) -> str:
    """`name(arg,...)` for a term or atom, built with an explicit stack so
    that any term that can be constructed can be printed.

    The loop is its own rather than a use of `_preorder`, because a preorder
    does not say where an argument list ends, and the text must close its
    parentheses there.  A generator that also yields the parentheses and
    commas made `serialize_state` 9-22 % slower on the three benchmark
    workloads (shared 2-core VM, 40 interleaved rounds).
    """
    parts: list[str] = []
    stack: list = [e]
    while stack:
        e = stack.pop()
        kind = type(e)
        if kind is str:
            parts.append(e)
        elif kind is Var:
            parts.append(e.name)
        else:
            parts.append(e.pred if kind is Atom else e.name)
            args = e.args
            if args:
                parts.append("(")
                stack.append(")")
                for a in args[:0:-1]:
                    stack += (a, ",")
                stack.append(args[0])
    return "".join(parts)


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

    The key is built once per atom and stored on it.  Two threads may both
    build it; they store equal tuples, so either write is correct.
    """
    key = a._key
    if key is None:
        key = _flat_key(a)
        _set(a, "_key", key)
    return key


def _preorder(terms: tuple[Term, ...]):
    """Each of the terms and each of their subterms, in left-to-right
    preorder: a term before its arguments, an argument before the next one.
    A term that occurs twice is yielded twice.  Walked with a stack, so term
    depth does not meet the recursion limit."""
    stack = list(terms[::-1])
    while stack:
        t = stack.pop()
        yield t
        if type(t) is Fn and t.args:
            stack += t.args[::-1]


def _flat_key(a: Atom) -> tuple:
    out: list = [a.pred]
    for t in _preorder(a.args):
        if type(t) is Var:
            out += (0, t.name)
        else:
            out += (1, t.name, len(t.args))
    return tuple(out)


def atom_symbols(a: Atom) -> frozenset[str]:
    """The predicate and function symbols of an atom.  Worked out once per
    atom and stored on it; two threads may both store it, with equal
    values."""
    symbols = a._symbols
    if symbols is None:
        symbols = frozenset([a.pred, *(t.name for t in _preorder(a.args) if type(t) is Fn)])
        _set(a, "_symbols", symbols)
    return symbols


@dataclass(frozen=True, init=False)
class Clause:
    """Canonical clause: each side deduplicated and sorted syntactically.

    Its atoms are walked as `antecedent + succedent`, which repeats an atom
    that occurs on both sides; `atom_set()` has each atom once.  `ground`
    holds when every atom is ground, as on terms and atoms.
    """

    antecedent: tuple[Atom, ...]
    succedent: tuple[Atom, ...]

    def __init__(self, antecedent: Iterable[Atom] = (), succedent: Iterable[Atom] = ()):
        object.__setattr__(self, "antecedent", tuple(sorted(set(antecedent), key=atom_key)))
        object.__setattr__(self, "succedent", tuple(sorted(set(succedent), key=atom_key)))

    def atom_set(self) -> frozenset[Atom]:
        return frozenset(self.antecedent) | frozenset(self.succedent)

    @property
    def ground(self) -> bool:
        return all(a.ground for a in self.antecedent) and all(a.ground for a in self.succedent)

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
    walk skips ground subterms, descends into first arguments in a loop and
    stacks the others, so term depth does not meet the recursion limit.  It
    keeps this loop of its own rather than filtering `_preorder`, because it
    runs on the hot path of every inference and `_preorder` cannot skip a
    ground subterm: built on `_preorder`, saturate plus verify ran 9-18 %
    slower on the three benchmark workloads (shared 2-core VM, 40
    interleaved rounds).
    """
    seen: dict[Var, None] = {}
    stack: list = []
    while True:
        kind = type(e)
        if kind is Var:
            seen[e] = None
        elif kind is Fn or kind is Atom:
            args = e.args
            if not e.ground:
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
    """The subterm set Sub(t), including t itself.  t is walked as written,
    so the cost is its printed size, not its number of distinct subterms."""
    return set(_preorder((t,)))


def substitute(sigma: Subst, e):
    """Apply an idempotent substitution; one simultaneous pass, no chasing.
    Ground terms and atoms are returned as they are.

    One loop, with no frame per nesting level: `args` iterates over the
    arguments of the innermost application still open (at first, over e's
    arguments or the clause's atoms), `done` holds their images so far, and
    `stack` holds the same of the applications around it, each with the
    application.  Variables and ground arguments are replaced inline; only a
    non-ground application is pushed.
    """
    kind = type(e)
    if kind is Var:
        return sigma.get(e, e)
    if kind is Clause:
        args = iter(e.antecedent + e.succedent)
    elif kind is Fn or kind is Atom:
        if e.ground:
            return e
        args = iter(e.args)
    else:
        raise TypeError(f"cannot substitute into {e!r}")
    stack = []
    done = []
    while True:
        for a in args:
            if type(a) is Var:
                done.append(sigma.get(a, a))
            elif a.ground:
                done.append(a)
            else:
                stack.append((args, done, a))
                args, done = iter(a.args), []
                break
        else:
            if not stack:
                break
            image = done
            args, done, a = stack.pop()
            done.append(Atom(a.pred, image) if type(a) is Atom else Fn(a.name, image))
    if kind is Clause:
        n = len(e.antecedent)
        return Clause(done[:n], done[n:])
    return kind(e.pred if kind is Atom else e.name, done)


def _decompose(e1, e2) -> list[tuple[Term, Term]] | None:
    """Starting pair list for unification and matching, last pair first,
    so that popping from the end walks the arguments left to right; None on
    a head clash."""
    if isinstance(e1, Atom) and isinstance(e2, Atom):
        if e1.pred != e2.pred or len(e1.args) != len(e2.args):
            return None
        return list(zip(e1.args, e2.args))[::-1]
    if isinstance(e1, Atom) or isinstance(e2, Atom):
        raise TypeError("cannot unify an atom with a term")
    return [(e1, e2)]


def mgu(e1, e2) -> Subst | None:
    """Most general unifier of two terms or two atoms, or None.

    Deterministic: pairs are processed left to right, and a variable-variable
    pair binds the variable with the syntactically smaller name.  Two ground
    terms, or two ground atoms, unify iff they are the same interned object.

    Solved in triangular form (Martelli and Montanari, 1982): a popped pair
    is not substituted.  A variable in it is followed through the bindings
    at its top only, the two sides are compared by identity, and two
    applications are taken apart as written, so unifying two n-deep terms
    builds no term.  A variable is bound to its term as written, with no
    occurs check: the bindings may close a cycle, and the walk still ends,
    as it takes each pair of applications apart at most once.  After the
    walk, each binding is resolved once and in place, after the bindings
    that its term holds; a binding met again on its own path is a cycle,
    and then there is no unifier.  So n chained bindings cost n
    substitutions, and the occurs check walks each binding once, not once
    for each later binding.  The result is idempotent, and its bindings,
    and their order, are those that substituting both sides of each pair
    would give.
    """
    if e1.ground and e2.ground and type(e1) is type(e2):
        return {} if e1 is e2 else None
    pairs = _decompose(e1, e2)
    if pairs is None:
        return None
    sigma: Subst = {}
    apart: set[tuple[Fn, Fn]] = set()  # the pairs of applications taken apart
    while pairs:
        s, t = pairs.pop()
        while s in sigma or t in sigma:  # only a variable is a key
            s, t = sigma.get(s, s), sigma.get(t, t)
        if s is t:
            continue
        # the variable to bind first: of two variables, the smaller name
        if type(t) is Var and (type(s) is not Var or t.name < s.name):
            s, t = t, s
        if type(s) is Var:
            sigma[s] = t
        elif s.name != t.name or len(s.args) != len(t.args):
            return None
        elif (s, t) not in apart:
            apart.add((s, t))
            pairs += zip(s.args[::-1], t.args[::-1])
    # post-order over the bindings: a variable is resolved once every bound
    # variable of its term is; an open one (None) met again closes a cycle
    resolved: dict[Var, Term | None] = {}
    stack = list(sigma)
    while stack:
        v = stack.pop()
        if v not in resolved:
            resolved[v] = None
            held = [u for u in vars_in_order(sigma[v]) if u in sigma]
            if any(u in resolved and resolved[u] is None for u in held):
                return None
            stack += [v, *(u for u in held if u not in resolved)]
        elif resolved[v] is None:
            resolved[v] = sigma[v] = substitute(sigma, sigma[v])
    return sigma


def match_onto(pattern, target) -> Subst | None:
    """Substitution sigma with substitute(sigma, pattern) == target, or None.

    One-sided: only variables of the pattern are bound; the unique such
    substitution is returned when it exists.  Pairs are walked as in `mgu`,
    popped from the end.  A pattern variable is bound once and must meet
    that very term again; any other pattern subterm that is ground, faces a
    variable or clashes in its head must be the target subterm itself.
    """
    pairs = _decompose(pattern, target)
    if pairs is None:
        return None
    sigma: Subst = {}
    while pairs:
        p, t = pairs.pop()
        if type(p) is Var:
            if sigma.setdefault(p, t) is not t:
                return None
        elif p.ground or type(t) is Var or p.name != t.name or len(p.args) != len(t.args):
            if p is not t:
                return None
        else:
            pairs += zip(p.args[::-1], t.args[::-1])
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


def canonical_renaming(variables: Iterable[Var]) -> Subst:
    """The variables, in the given order, to V0, V1, ...: the names of rule
    variables."""
    return {v: Var(f"V{i}") for i, v in enumerate(variables)}


def renaming(c: Clause, forbidden: Iterable[Var]) -> Subst:
    """The substitution that renames c apart from the forbidden variables:
    c's variables, by name, to the first fresh names that avoid the
    forbidden set and c's own."""
    own = sorted_vars(c)
    used = {v.name for v in forbidden} | {v.name for v in own}
    return {v: Var(n) for v, n in zip(own, fresh_names(used, len(own)))}


FreezeMap = dict[Var, Fn]


def frozen_constant(index: int) -> Fn:
    return Fn(f"{FROZEN_PREFIX}{index}")


def is_frozen_symbol(name: str) -> bool:
    return name.startswith(FROZEN_PREFIX)


def freeze(c: Clause) -> tuple[Clause, FreezeMap]:
    """Replace each variable by a distinct fresh frozen constant.

    The result is ground; the returned map inverts the replacement.  Frozen
    constants are numbered by first occurrence in the canonical clause form.
    A ground clause is returned as it is, with an empty map.
    """
    mapping: FreezeMap = {v: frozen_constant(i) for i, v in enumerate(vars_in_order(c), 1)}
    return (substitute(mapping, c) if mapping else c), mapping


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

    def scan_atom(self, a: Atom) -> None:
        """Note a's symbols in left-to-right preorder, so the first arity
        conflict met is the leftmost."""
        self.note_predicate(a.pred, len(a.args))
        for t in _preorder(a.args):
            if type(t) is Fn:
                self.note_function(t.name, len(t.args))

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
