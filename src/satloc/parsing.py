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

import itertools
import re
from dataclasses import dataclass, field

from .orderings import Ordering
from .rewriting import RewriteRule, RewriteSystem, canonical_rule, rule_key, rules_of
from .saturation import LIMIT_REACHED, SATURATED, SaturationState
from .terms import ArityError, Atom, Clause, Fn, Signature, Term, Var, atom_key, clause_key


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# a token; any other character before the comment that is not blank is a
# stray one, which _STRAY_RE finds as a match without group 1
_TOKEN = r"->|[>(),:]|[A-Za-z][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(_TOKEN)
_STRAY_RE = re.compile(rf"({_TOKEN})|\S")


class _Line:
    """The token strings of one line, up to its `%` comment, and a read
    position.  Columns are not kept: an error rescans the line for the
    column of the token it is raised at, or of the stray character."""

    def __init__(self, text: str, lineno: int):
        self.text = text
        self.lineno = lineno
        self.pos = 0
        code = text.partition("%")[0]
        self.tokens: list[str] = _TOKEN_RE.findall(code)
        if "".join(self.tokens) != "".join(code.split()):
            stray = next(m for m in _STRAY_RE.finditer(code) if not m.group(1))
            if stray.group() == "#":
                message = "'#' is reserved for internal frozen constants"
            else:
                message = f"unexpected character {stray.group()!r}"
            raise ParseError(message, lineno, stray.start() + 1)

    def error(self, message: str, index: int | None = None) -> ParseError:
        """An error at token `index` (by default the token taken last); past
        the last token, at the end of the line."""
        if index is None:
            index = self.pos - 1
        if index < len(self.tokens):
            col = next(itertools.islice(_TOKEN_RE.finditer(self.text), index, None)).start() + 1
        else:
            col = len(self.text) + 1
        return ParseError(message, self.lineno, col)

    def expected(self, what: str, index: int) -> ParseError:
        if index == len(self.tokens):
            return self.error(f"expected {what} at end of line", index)
        return self.error(f"expected {what}, found {self.tokens[index]!r}", index)

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def accept(self, text: str) -> bool:
        if self.peek() != text:
            return False
        self.pos += 1
        return True

    def take(self, what: str, want: str | None = None) -> str:
        """The next token: `want` itself, or an identifier when `want` is None."""
        text = self.peek()
        if text is None or ((text != want) if want else not text[0].isalpha()):
            raise self.expected(what, self.pos)
        self.pos += 1
        return text

    def require_end(self) -> None:
        if self.pos < len(self.tokens):
            raise self.error(f"unexpected {self.tokens[self.pos]!r}", self.pos)


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


class _Reader:
    """Parses declaration bodies into one signature, whose functions are
    kept in order of first occurrence, and records the order declaration."""

    def __init__(self):
        self.sig = Signature()
        self.declared: list[str] | None = None
        self.declared_line = 0

    def _note(self, line: _Line, note, name: str, arity: int, index: int) -> None:
        try:
            note(name, arity)
        except ArityError as exc:
            raise line.error(str(exc), index) from None

    def _atom(self, line: _Line) -> Atom:
        """One atom, read in one loop.  `name`, `at` and `args` are the symbol,
        token index and arguments read so far of the innermost argument list
        still open, and `outer` holds those of the lists around it.  A
        function symbol is noted when its list closes, so the innermost
        first, and a constant when it is read."""
        name = line.take("a predicate symbol")
        if name[0].isupper():
            raise line.error(f"predicate symbols must start lowercase, found {name!r}")
        tokens, end = line.tokens, len(line.tokens)
        i = line.pos
        at, args = i - 1, []
        if i < end and tokens[i] == "(":
            note = self.sig.note_function
            outer: list[tuple[str, int, list[Term]]] = []
            i += 1
            while True:
                if i == end or not tokens[i][0].isalpha():
                    raise line.expected("a term", i)
                term = tokens[i]
                i += 1
                token = tokens[i] if i < end else None
                if term[0].isupper():
                    if token == "(":
                        raise line.error(f"variable {term!r} cannot take arguments", i)
                    args.append(Var(term))
                elif token == "(":
                    outer.append((name, at, args))
                    name, at, args = term, i - 1, []
                    i += 1
                    continue
                else:
                    self._note(line, note, term, 0, i - 1)
                    args.append(Fn(term))
                while token == ")" and outer:
                    self._note(line, note, name, len(args), at)
                    t = Fn(name, args)
                    name, at, args = outer.pop()
                    args.append(t)
                    i += 1
                    token = tokens[i] if i < end else None
                if token != ",":
                    break
                i += 1
            if token != ")":
                raise line.expected("')'", i)
            i += 1
        line.pos = i
        self._note(line, self.sig.note_predicate, name, len(args), at)
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
    """Canonical text form: header, full precedence, sorted clauses, then the
    sorted rules that the clauses do not give (rules_of); parse_state adds
    those back."""
    lines = ["saturated: true" if state.status == SATURATED else "saturated: limit"]
    lines.append(
        "order: " + " > ".join(state.ordering.symbols()) if state.ordering.symbols() else "order:"
    )
    for c in sorted(state.clauses, key=clause_key):
        lines.append(f"clause: {c}")
    given = rules_of(state.ordering, state.clauses).rules
    for r in sorted(state.rules.rules - given, key=rule_key):
        lines.append(f"rule: {r}")
    return "\n".join(lines) + "\n"


_STATUS = {"true": SATURATED, "limit": LIMIT_REACHED}


def parse_state(text: str) -> SaturationState:
    """The state a file describes.  Its rules are the rule lines and the
    rules its clauses give (rules_of), so a file that lists those too reads
    the same."""
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
    rules: set[RewriteRule] = set(rules_of(ordering, clauses).rules)
    for lhs, rhs, lineno in rule_lines:
        if not ordering.atom_greater(lhs, rhs):
            # the sides are not echoed: either may be as long as the line
            message = "invalid rule: the left side is not above the right side"
            raise ParseError(message, lineno, 1)
        rules.add(canonical_rule(lhs, rhs))
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
