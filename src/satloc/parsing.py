"""Line-oriented problem and state files: parsing and canonical serialization.

Grammar (one declaration per line, `%` starts a comment):

    order: sym (> sym)*
    clause: [atomlist] -> [atomlist]
    query: [atomlist] -> [atomlist]
    rule: atom -> atom

with atom = `pred` or `pred(term,...)`, term = variable or `sym` or
`sym(term,...)`; variables match [A-Z][A-Za-z0-9_]*, function and predicate
symbols match [a-z][A-Za-z0-9_]*.  Undeclared function symbols are ranked
after the declared ones in first occurrence order.  The `#` namespace is
reserved for internal frozen constants and rejected everywhere.  Problem
files, state files and query text go through one reader, so a state file
gets the same symbol checks as a problem file (consistent arities, no
symbol both a function and a predicate, no predicate in the order).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .orderings import Ordering
from .rewriting import RewriteRule, RewriteSystem
from .saturation import LIMIT_REACHED, SATURATED, SaturationState
from .terms import ArityError, Atom, Clause, Fn, Signature, Term, Var, atom_key, clause_key


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# group 1: a token; group 2: a comment; otherwise one stray character
_TOKEN_RE = re.compile(r"(->|[>(),:]|[A-Za-z][A-Za-z0-9_]*)|(%)|\S")


class _Line:
    """The tokens of one line, each a (text, column) pair, and a read position."""

    def __init__(self, text: str, lineno: int):
        self.lineno = lineno
        self.end_col = len(text) + 1
        self.col = 1  # column of the token taken last
        self.pos = 0
        self.tokens: list[tuple[str, int]] = []
        for m in _TOKEN_RE.finditer(text):
            token, comment = m.groups()
            if token:
                self.tokens.append((token, m.start() + 1))
            elif comment:
                break
            else:
                self.col = m.start() + 1
                if m.group() == "#":
                    raise self.error("'#' is reserved for internal frozen constants")
                raise self.error(f"unexpected character {m.group()!r}")

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.lineno, self.col)

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def accept(self, text: str) -> bool:
        if self.peek() != text:
            return False
        self.col = self.tokens[self.pos][1]
        self.pos += 1
        return True

    def take(self, what: str, want: str | None = None) -> str:
        """The next token: `want` itself, or an identifier when `want` is None."""
        if self.pos == len(self.tokens):
            raise ParseError(f"expected {what} at end of line", self.lineno, self.end_col)
        text, self.col = self.tokens[self.pos]
        if (text != want) if want else not text[0].isalpha():
            raise self.error(f"expected {what}, found {text!r}")
        self.pos += 1
        return text

    def require_end(self) -> None:
        if self.pos < len(self.tokens):
            text, col = self.tokens[self.pos]
            raise ParseError(f"unexpected {text!r}", self.lineno, col)


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _Line(raw, lineno)
        if line.tokens:
            yield line


def _declarations(text: str):
    """(keyword, line) for each declaration, the line positioned after the colon."""
    for line in _lines(text):
        keyword = line.take("a declaration keyword")
        line.take("':'", ":")
        yield keyword, line


def _too_deep(lineno: int) -> ParseError:
    """The reader's `_args` recurses once per nesting level (and a rule's
    sides are compared by the recursive path ordering), so a term nested
    past the interpreter's recursion limit surfaces as a RecursionError."""
    return ParseError("input nested too deeply", lineno, 1)


class _Reader:
    """Parses declaration bodies into one signature, whose functions are
    kept in order of first occurrence, and records the order declaration."""

    def __init__(self):
        self.sig = Signature()
        self.declared: list[str] | None = None
        self.declared_line = 0

    def _args(self, line: _Line) -> tuple[Term, ...]:
        """The parenthesised arguments after a symbol, if any.  Terms are read
        here, not in a method of their own, so each nesting level costs one frame."""
        if not line.accept("("):
            return ()
        args: list[Term] = []
        while not args or line.accept(","):
            name = line.take("a term")
            col = line.col
            if name[0].isupper():
                if line.accept("("):
                    raise line.error(f"variable {name!r} cannot take arguments")
                args.append(Var(name))
                continue
            sub = self._args(line)
            try:
                self.sig.note_function(name, len(sub))
            except ArityError as exc:
                raise ParseError(str(exc), line.lineno, col) from None
            args.append(Fn(name, sub))
        line.take("')'", ")")
        return tuple(args)

    def _atom(self, line: _Line) -> Atom:
        name = line.take("a predicate symbol")
        col = line.col
        if name[0].isupper():
            raise line.error(f"predicate symbols must start lowercase, found {name!r}")
        try:
            args = self._args(line)
        except RecursionError:
            raise _too_deep(line.lineno) from None
        try:
            self.sig.note_predicate(name, len(args))
        except ArityError as exc:
            raise ParseError(str(exc), line.lineno, col) from None
        return Atom(name, args)

    def _atoms(self, line: _Line, stop: str | None) -> list[Atom]:
        """Comma-separated atoms up to `stop` (None: the end of the line)."""
        atoms: list[Atom] = []
        while line.peek() != stop and (not atoms or line.accept(",")):
            atoms.append(self._atom(line))
        return atoms

    def clause(self, line: _Line) -> Clause:
        antecedent = self._atoms(line, "->")
        line.take("'->'", "->")
        succedent = self._atoms(line, None)
        line.require_end()
        return Clause(antecedent, succedent)

    def rule(self, line: _Line) -> tuple[Atom, Atom]:
        lhs = self._atom(line)
        line.take("'->'", "->")
        rhs = self._atom(line)
        line.require_end()
        return lhs, rhs

    def order(self, line: _Line) -> None:
        if self.declared is not None:
            raise ParseError("duplicate order declaration", line.lineno, 1)
        names: dict[str, None] = {}
        while line.peek() is not None:
            if names:
                line.take("'>'", ">")
            name = line.take("a function symbol")
            if name[0].isupper():
                raise line.error("variables cannot be ordered")
            if name in names:
                raise line.error(f"duplicate symbol {name!r} in order")
            names[name] = None
        self.declared, self.declared_line = list(names), line.lineno

    def ordering(self) -> Ordering:
        """The declared order, then the undeclared symbols as they occurred."""
        declared = self.declared or []
        for name in declared:
            if name in self.sig.predicates:
                message = f"symbol {name!r} is declared in the order but used as a predicate"
                raise ParseError(message, self.declared_line, 1)
        return Ordering(declared).extended(self.sig.functions)


@dataclass
class Problem:
    ordering: Ordering
    clauses: list[Clause] = field(default_factory=list)
    queries: list[Clause] = field(default_factory=list)
    signature: Signature = field(default_factory=Signature, compare=False)


def parse_problem(text: str) -> Problem:
    reader = _Reader()
    clauses: list[Clause] = []
    queries: list[Clause] = []
    for keyword, line in _declarations(text):
        if keyword == "order":
            reader.order(line)
        elif keyword == "clause":
            clauses.append(reader.clause(line))
        elif keyword == "query":
            queries.append(reader.clause(line))
        else:
            raise ParseError(f"unexpected declaration {keyword!r} in problem file", line.lineno, 1)
    return Problem(reader.ordering(), clauses, queries, reader.sig)


def parse_clause_text(text: str, sig: Signature | None = None) -> Clause:
    """Parse a bare clause body such as "p(a), q(b) -> r(c)".

    The clause's symbols are noted in `sig` only if it parses, so text that
    fails leaves the caller's signature as it was.
    """
    lines = list(_lines(text))
    if len(lines) != 1:
        raise ParseError("expected exactly one clause", 1, 1)
    reader = _Reader()
    if sig is not None:
        reader.sig.functions, reader.sig.predicates = dict(sig.functions), dict(sig.predicates)
    clause = reader.clause(lines[0])
    if sig is not None:
        sig.functions, sig.predicates = reader.sig.functions, reader.sig.predicates
    return clause


def serialize_state(state: SaturationState) -> str:
    """Canonical text form: header, full precedence, sorted clauses and rules."""
    lines = ["saturated: true" if state.status == SATURATED else "saturated: limit"]
    lines.append(
        "order: " + " > ".join(state.ordering.symbols()) if state.ordering.symbols() else "order:"
    )
    for c in sorted(state.clauses, key=clause_key):
        lines.append(f"clause: {c}")
    for r in state.rules.sorted_rules():
        lines.append(f"rule: {r}")
    return "\n".join(lines) + "\n"


_STATUS = {"true": SATURATED, "limit": LIMIT_REACHED}


def parse_state(text: str) -> SaturationState:
    reader = _Reader()
    status: str | None = None
    clauses: list[Clause] = []
    rule_lines: list[tuple[Atom, Atom, int]] = []
    for keyword, line in _declarations(text):
        if status is None:
            if keyword != "saturated":
                raise ParseError(
                    "state files start with a 'saturated: true|limit' header", line.lineno, 1
                )
            value = line.take("'true' or 'limit'")
            if value not in _STATUS:
                raise line.error(f"expected 'true' or 'limit', found {value!r}")
            status = _STATUS[value]
            line.require_end()
        elif keyword == "order":
            reader.order(line)
        elif keyword == "clause":
            clauses.append(reader.clause(line))
        elif keyword == "rule":
            rule_lines.append((*reader.rule(line), line.lineno))
        else:
            raise ParseError(f"unexpected declaration {keyword!r} in state file", line.lineno, 1)
    if status is None:
        raise ParseError("empty state file: missing 'saturated:' header", 1, 1)
    if reader.declared is None:
        raise ParseError("state file missing its 'order:' line", 1, 1)
    ordering = reader.ordering()
    rules: set[RewriteRule] = set()
    for lhs, rhs, lineno in rule_lines:
        try:
            rules |= RewriteSystem.of(ordering, [(lhs, rhs)]).rules
        except RecursionError:
            raise _too_deep(lineno) from None
        except (ValueError, KeyError) as exc:
            raise ParseError(f"invalid rule: {exc}", lineno, 1) from None
    return SaturationState(ordering, clauses, RewriteSystem(frozenset(rules)), status=status)


def serialize_certificate(cert) -> str:
    """Text block: universe atoms, instance clauses, negated-goal units."""
    lines = []
    for a in sorted(cert.atom_universe, key=atom_key):
        lines.append(f"atom: {a}")
    for c in sorted(cert.instances, key=clause_key):
        lines.append(f"instance: {c}")
    for c in sorted(cert.negated_goal, key=clause_key):
        lines.append(f"goal-unit: {c}")
    return "\n".join(lines) + "\n"
