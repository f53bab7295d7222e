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
reserved for internal frozen constants and rejected everywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .orderings import Ordering
from .rewriting import RewriteSystem
from .saturation import LIMIT_REACHED, SATURATED, SaturationState
from .terms import (
    ArityError,
    Atom,
    Clause,
    Fn,
    Signature,
    Term,
    Var,
    atom_key,
    clause_key,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# token kinds: IDENT, ARROW, GT, LPAREN, RPAREN, COMMA, COLON


@dataclass
class _Token:
    kind: str
    value: str
    line: int
    col: int


def _tokenize(text_line: str, lineno: int) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text_line):
        ch = text_line[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "%":
            break
        col = i + 1
        if text_line.startswith("->", i):
            tokens.append(_Token("ARROW", "->", lineno, col))
            i += 2
            continue
        if ch == ">":
            tokens.append(_Token("GT", ">", lineno, col))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("LPAREN", ch, lineno, col))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("RPAREN", ch, lineno, col))
            i += 1
            continue
        if ch == ",":
            tokens.append(_Token("COMMA", ch, lineno, col))
            i += 1
            continue
        if ch == ":":
            tokens.append(_Token("COLON", ch, lineno, col))
            i += 1
            continue
        if ch == "#":
            raise ParseError("'#' is reserved for internal frozen constants", lineno, col)
        m = _IDENT_RE.match(text_line, i)
        if m:
            tokens.append(_Token("IDENT", m.group(0), lineno, col))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", lineno, col)
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token], lineno: int, line_len: int):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno
        self.end_col = line_len + 1

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok is None:
            raise ParseError(f"expected {what} at end of line", self.lineno, self.end_col)
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.value!r}", tok.line, tok.col)
        return tok

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def require_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.value!r}", tok.line, tok.col)


def _note(sig: Signature, kind: str, name: str, arity: int, tok: _Token) -> None:
    try:
        if kind == "function":
            sig.note_function(name, arity)
        else:
            sig.note_predicate(name, arity)
    except ArityError as exc:
        raise ParseError(str(exc), tok.line, tok.col) from None


def _parse_term(cur: _Cursor, sig: Signature, occurrence: list[str]) -> Term:
    tok = cur.expect("IDENT", "a term")
    if tok.value[0].isupper():
        nxt = cur.peek()
        if nxt is not None and nxt.kind == "LPAREN":
            raise ParseError(f"variable {tok.value!r} cannot take arguments", nxt.line, nxt.col)
        return Var(tok.value)
    args: list[Term] = []
    if cur.peek() is not None and cur.peek().kind == "LPAREN":
        cur.next()
        args.append(_parse_term(cur, sig, occurrence))
        while cur.peek() is not None and cur.peek().kind == "COMMA":
            cur.next()
            args.append(_parse_term(cur, sig, occurrence))
        cur.expect("RPAREN", "')'")
    _note(sig, "function", tok.value, len(args), tok)
    if tok.value not in occurrence:
        occurrence.append(tok.value)
    return Fn(tok.value, tuple(args))


def _parse_atom(cur: _Cursor, sig: Signature, occurrence: list[str]) -> Atom:
    tok = cur.expect("IDENT", "a predicate symbol")
    if tok.value[0].isupper():
        raise ParseError(
            f"predicate symbols must start lowercase, found {tok.value!r}", tok.line, tok.col
        )
    args: list[Term] = []
    if cur.peek() is not None and cur.peek().kind == "LPAREN":
        cur.next()
        args.append(_parse_term(cur, sig, occurrence))
        while cur.peek() is not None and cur.peek().kind == "COMMA":
            cur.next()
            args.append(_parse_term(cur, sig, occurrence))
        cur.expect("RPAREN", "')'")
    _note(sig, "predicate", tok.value, len(args), tok)
    return Atom(tok.value, tuple(args))


def _parse_atom_list_until_arrow(cur: _Cursor, sig: Signature, occurrence: list[str]) -> list[Atom]:
    atoms: list[Atom] = []
    if cur.peek() is not None and cur.peek().kind == "ARROW":
        return atoms
    atoms.append(_parse_atom(cur, sig, occurrence))
    while cur.peek() is not None and cur.peek().kind == "COMMA":
        cur.next()
        atoms.append(_parse_atom(cur, sig, occurrence))
    return atoms


def _too_deep(lineno: int) -> ParseError:
    """Terms are parsed (and hashed, and ordered) recursively, so a term nested
    past the interpreter's recursion limit surfaces as a RecursionError."""
    return ParseError("input nested too deeply", lineno, 1)


def _parse_clause_body(cur: _Cursor, sig: Signature, occurrence: list[str]) -> Clause:
    try:
        antecedent = _parse_atom_list_until_arrow(cur, sig, occurrence)
        cur.expect("ARROW", "'->'")
        succedent: list[Atom] = []
        if not cur.at_end():
            succedent.append(_parse_atom(cur, sig, occurrence))
            while cur.peek() is not None and cur.peek().kind == "COMMA":
                cur.next()
                succedent.append(_parse_atom(cur, sig, occurrence))
        cur.require_end()
        return Clause(antecedent, succedent)
    except RecursionError:
        raise _too_deep(cur.lineno) from None


def _parse_rule_body(cur: _Cursor, sig: Signature, occurrence: list[str]) -> tuple[Atom, Atom]:
    try:
        lhs = _parse_atom(cur, sig, occurrence)
        cur.expect("ARROW", "'->'")
        rhs = _parse_atom(cur, sig, occurrence)
    except RecursionError:
        raise _too_deep(cur.lineno) from None
    cur.require_end()
    return lhs, rhs


@dataclass
class Problem:
    ordering: Ordering
    clauses: list[Clause] = field(default_factory=list)
    queries: list[Clause] = field(default_factory=list)
    signature: Signature = field(default_factory=Signature)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Problem)
            and self.ordering == other.ordering
            and self.clauses == other.clauses
            and self.queries == other.queries
        )


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, lineno)
        if tokens:
            yield _Cursor(tokens, lineno, len(raw))


def _parse_keyword(cur: _Cursor) -> str:
    tok = cur.expect("IDENT", "a declaration keyword")
    cur.expect("COLON", "':'")
    return tok.value


def _parse_order_symbols(cur: _Cursor) -> list[str]:
    names: list[str] = []
    if cur.at_end():
        return names
    tok = cur.expect("IDENT", "a function symbol")
    if tok.value[0].isupper():
        raise ParseError("variables cannot be ordered", tok.line, tok.col)
    names.append(tok.value)
    while cur.peek() is not None:
        cur.expect("GT", "'>'")
        tok = cur.expect("IDENT", "a function symbol")
        if tok.value[0].isupper():
            raise ParseError("variables cannot be ordered", tok.line, tok.col)
        if tok.value in names:
            raise ParseError(f"duplicate symbol {tok.value!r} in order", tok.line, tok.col)
        names.append(tok.value)
    return names


def parse_problem(text: str) -> Problem:
    sig = Signature()
    occurrence: list[str] = []
    declared: list[str] | None = None
    declared_line = 0
    clauses: list[Clause] = []
    queries: list[Clause] = []
    for cur in _logical_lines(text):
        keyword = _parse_keyword(cur)
        if keyword == "order":
            if declared is not None:
                raise ParseError("duplicate order declaration", cur.lineno, 1)
            declared = _parse_order_symbols(cur)
            declared_line = cur.lineno
        elif keyword == "clause":
            clauses.append(_parse_clause_body(cur, sig, occurrence))
        elif keyword == "query":
            queries.append(_parse_clause_body(cur, sig, occurrence))
        else:
            raise ParseError(
                f"unexpected declaration {keyword!r} in problem file", cur.lineno, 1
            )
    declared = declared or []
    for name in declared:
        if name in sig.predicates:
            raise ParseError(
                f"symbol {name!r} is declared in the order but used as a predicate",
                declared_line,
                1,
            )
    ordering = Ordering(declared).extended(occurrence)
    return Problem(ordering=ordering, clauses=clauses, queries=queries, signature=sig)


def parse_clause_text(text: str, sig: Signature | None = None) -> Clause:
    """Parse a bare clause body such as "p(a), q(b) -> r(c)"."""
    sig = sig if sig is not None else Signature()
    cursors = list(_logical_lines(text))
    if len(cursors) != 1:
        raise ParseError("expected exactly one clause", 1, 1)
    return _parse_clause_body(cursors[0], sig, [])


def serialize_problem(problem: Problem) -> str:
    lines = []
    if problem.ordering.symbols():
        lines.append("order: " + " > ".join(problem.ordering.symbols()))
    for c in problem.clauses:
        lines.append(f"clause: {c}")
    for q in problem.queries:
        lines.append(f"query: {q}")
    return "\n".join(lines) + "\n"


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


def parse_state(text: str) -> SaturationState:
    sig = Signature()
    occurrence: list[str] = []
    status: str | None = None
    declared: list[str] | None = None
    clauses: list[Clause] = []
    rule_pairs: list[tuple[Atom, Atom, int]] = []
    for cur in _logical_lines(text):
        keyword = _parse_keyword(cur)
        if status is None:
            if keyword != "saturated":
                raise ParseError(
                    "state files start with a 'saturated: true|limit' header", cur.lineno, 1
                )
            tok = cur.expect("IDENT", "'true' or 'limit'")
            if tok.value == "true":
                status = SATURATED
            elif tok.value == "limit":
                status = LIMIT_REACHED
            else:
                raise ParseError(
                    f"expected 'true' or 'limit', found {tok.value!r}", tok.line, tok.col
                )
            cur.require_end()
            continue
        if keyword == "order":
            if declared is not None:
                raise ParseError("duplicate order declaration", cur.lineno, 1)
            declared = _parse_order_symbols(cur)
        elif keyword == "clause":
            clauses.append(_parse_clause_body(cur, sig, occurrence))
        elif keyword == "rule":
            lhs, rhs = _parse_rule_body(cur, sig, occurrence)
            rule_pairs.append((lhs, rhs, cur.lineno))
        else:
            raise ParseError(f"unexpected declaration {keyword!r} in state file", cur.lineno, 1)
    if status is None:
        raise ParseError("empty state file: missing 'saturated:' header", 1, 1)
    if declared is None:
        raise ParseError("state file missing its 'order:' line", 1, 1)
    ordering = Ordering(declared).extended(occurrence)
    rules = RewriteSystem()
    for lhs, rhs, lineno in rule_pairs:
        try:
            rules = rules | RewriteSystem.of(ordering, [(lhs, rhs)])
        except RecursionError:
            raise _too_deep(lineno) from None
        except (ValueError, KeyError) as exc:
            raise ParseError(f"invalid rule: {exc}", lineno, 1) from None
    return SaturationState(ordering=ordering, clauses=clauses, rules=rules, status=status)


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
