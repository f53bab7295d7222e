"""Problem/state grammar, error positions, and round-trips."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    SIG_CONSTS,
    SIG_FUNCS,
    bench_workloads,
    cl,
    generated_problems,
    rand_atom,
    rand_clause,
    reference_reader,
    serialize_problem,
    sig_ordering,
)
from satloc import (
    Clause,
    Limits,
    Ordering,
    ParseError,
    SaturationState,
    Signature,
    parse_clause_text,
    parse_problem,
    parse_state,
    saturate,
    serialize_state,
)
from satloc.rewriting import rules_of
from satloc.terms import Atom, Fn


def test_parse_problem_example():
    text = "order: f > g > a\nclause: -> p(g(W,W))\nclause: p(g(X,Y)), q(f(Y),X) ->\n"
    problem = parse_problem(text)
    assert len(problem.clauses) == 2
    assert problem.ordering == Ordering(["f", "g", "a"])
    assert parse_problem(serialize_problem(problem)) == problem


def test_parse_problem_with_queries_and_comments():
    text = """
% a comment line
order: f > a   % trailing comment
clause: -> p(a)

query: p(a) ->
query: ->
"""
    problem = parse_problem(text)
    assert problem.clauses == [cl("-> p(a)")]
    assert problem.queries == [cl("p(a) ->"), Clause()]
    assert parse_problem(serialize_problem(problem)) == problem


def test_empty_problem():
    problem = parse_problem("")
    assert problem.clauses == [] and problem.queries == []
    assert problem.ordering == Ordering([])


def test_undeclared_symbols_appended_in_occurrence_order():
    problem = parse_problem("order: f\nclause: p(b), q(f(a),c) -> r(d)")
    assert problem.ordering.symbols() == ["f", "b", "a", "c", "d"]


def test_arity_conflict_reported_with_position():
    with pytest.raises(ParseError) as exc:
        parse_problem("clause: p(X) -> p(X,X)")
    assert "arities" in str(exc.value)
    assert "line 1" in str(exc.value)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_problem("clause: p(X -> q(X)")
    assert exc.value.line == 1 and exc.value.col > 1
    with pytest.raises(ParseError):
        parse_problem("clause: p(X))")
    with pytest.raises(ParseError):
        parse_problem("huh: p(X)")
    with pytest.raises(ParseError):
        parse_problem("clause p(X) ->")
    with pytest.raises(ParseError):
        parse_problem("order: f > f")
    with pytest.raises(ParseError):
        parse_problem("order: X")
    with pytest.raises(ParseError):
        parse_problem("order: f\norder: g")
    with pytest.raises(ParseError):
        parse_problem("clause: P(a) ->")  # predicates are lowercase
    with pytest.raises(ParseError):
        parse_problem("clause: p(X(a)) ->")  # variables take no arguments
    with pytest.raises(ParseError):
        parse_problem("rule: p(a) -> q(a)")  # rules live in state files


def test_frozen_namespace_rejected():
    with pytest.raises(ParseError) as exc:
        parse_problem("clause: p(#1) ->")
    assert "frozen" in str(exc.value)
    with pytest.raises(ParseError):
        parse_clause_text("-> p(#2)")


def test_order_conflicts_with_predicate_use():
    with pytest.raises(ParseError):
        parse_problem("order: p\nclause: p(a) ->")


def test_parse_clause_text():
    assert parse_clause_text("->") == Clause()
    assert parse_clause_text("p(a) -> q(a,a)") == cl("p(a) -> q(a,a)")
    with pytest.raises(ParseError):
        parse_clause_text("p(a)")  # missing arrow
    with pytest.raises(ParseError):
        parse_clause_text("p(a) -> q(a) r(a)")


def test_failed_clause_text_leaves_the_signature_unchanged():
    sig = parse_problem("clause: -> p(a)\n").signature
    with pytest.raises(ParseError):
        parse_clause_text("p(g(a)) -> p(", sig)
    assert sig.functions == {"a": 0}
    assert parse_clause_text("-> p(g)", sig) == cl("-> p(g)")
    assert sig.functions == {"a": 0, "g": 0}
    with pytest.raises(ParseError, match="arities 0 and 1"):
        parse_clause_text("-> p(g(a))", sig)


def test_state_roundtrip():
    problem = parse_problem(
        "order: f > g > a\nclause: -> p(g(W,W))\nclause: p(g(X,Y)), q(f(Y),X) ->"
    )
    state = saturate(problem.ordering, problem.clauses)
    text = serialize_state(state)
    back = parse_state(text)
    assert back.status == state.status
    assert back.ordering == state.ordering
    assert set(back.clauses) == set(state.clauses)
    assert back.rules.rules == state.rules.rules
    assert serialize_state(back) == text


def test_state_files_list_only_the_rules_their_clauses_do_not_give():
    # over the corpus, generated problems and each workload at seed 1: the
    # reader adds the clauses' rules back, so the state round-trips, and a
    # file that lists them too reads the same
    corpus = sorted((Path(__file__).parent / "corpus").glob("*.p"))
    problems = [parse_problem(path.read_text(encoding="utf-8")) for path in corpus]
    problems += generated_problems(60, seed=5)
    for generate in bench_workloads().GENERATORS.values():
        problems += [parse_problem(p.text) for p in generate(1).problems]
    omitted = 0
    for problem in problems:
        state = saturate(problem.ordering, problem.clauses, Limits(400, 40000))
        text = serialize_state(state)
        back = parse_state(text)
        assert back.rules == state.rules
        assert serialize_state(back) == text
        given = {f"rule: {r}" for r in rules_of(state.ordering, state.clauses).rules}
        lines = text.splitlines()
        assert given.isdisjoint(lines)
        # the format that listed every rule
        every_rule = [line for line in lines if not line.startswith("rule: ")]
        every_rule += [f"rule: {r}" for r in state.rules.sorted_rules()]
        assert parse_state("\n".join(every_rule) + "\n") == back
        omitted += len(given)
    assert len(problems) == 169 and omitted > 800, (len(problems), omitted)


def test_state_header_and_rule_validation():
    with pytest.raises(ParseError):
        parse_state("clause: p(a) ->")
    with pytest.raises(ParseError):
        parse_state("saturated: maybe\norder:")
    with pytest.raises(ParseError):
        parse_state("")
    with pytest.raises(ParseError):
        parse_state("saturated: true\nclause: p(a) ->")  # missing order line
    # rules must be oriented under the declared precedence
    with pytest.raises(ParseError) as exc:
        parse_state("saturated: true\norder: f > a\nrule: p(a) -> q(f(a),a)")
    assert "rule" in str(exc.value)
    # the order may name function symbols only, as in problem files
    with pytest.raises(ParseError, match="declared in the order but used as a predicate") as exc:
        parse_state("saturated: true\norder: p > a\nclause: -> p(a)")
    assert (exc.value.line, exc.value.col) == (2, 1)


def test_state_limit_header():
    state = parse_state("saturated: limit\norder: a\nclause: -> p(a)")
    assert state.status == "limit_reached"
    text = serialize_state(state)
    assert text.startswith("saturated: limit\n")
    assert parse_state(text).status == "limit_reached"


def test_deep_nesting_parses_and_deep_rules_orient():
    # neither the reader nor the path ordering takes a frame per nesting
    # level, so clauses 5 000 deep parse and round-trip, and rules that
    # deep are oriented
    deep = "f(" * 5000 + "a" + ")" * 5000
    term = Fn("a")
    for _ in range(5000):
        term = Fn("f", (term,))
    clauses = [
        parse_problem(f"order: f > a\nclause: -> p({deep})\n").clauses[0],
        parse_problem(f"query: p({deep}) ->\n").queries[0],
        parse_problem(f"order: f > a\nclause: -> q(a)\nclause: q(f(a)) -> q(a), p({deep})\n").clauses[1],
        parse_clause_text(f"-> p({deep})"),
    ]
    assert clauses[0] == clauses[3] == Clause((), (Atom("p", (term,)),))
    assert clauses[1] == Clause((Atom("p", (term,)),), ())
    for c in clauses:
        text = serialize_state(SaturationState(Ordering(["f", "a"]), [c]))
        assert f"p({deep})" in text
        assert serialize_state(parse_state(text)) == text
    # p(f^5000(a)) -> p(f^5000(b)) descends all 5 000 levels to a > b
    deep_b = deep.replace("a", "b")
    for rule in (f"p({deep}) -> q(a)", f"p({deep}) -> p({deep_b})"):
        text = f"saturated: true\norder: f > a > b\nrule: {rule}\n"
        assert [str(r) for r in parse_state(text).rules.sorted_rules()] == [rule]
    # a deep right side under a shallow left one is refused at the top,
    # and the error does not echo the rule's 15 000 characters
    with pytest.raises(ParseError) as info:
        parse_state(f"saturated: true\norder: f > a\nrule: q(a) -> p({deep})\n")
    assert str(info.value) == "line 3, column 1: invalid rule: the left side is not above the right side"


# (entry point, text, line, column, message); the positions are part of the
# interface, since the CLI prints them for the user to find the error.
MALFORMED = [
    (parse_problem, 'clause: p(a,) ->', 1, 13, "expected a term, found ')'"),
    (parse_problem, 'order: f >', 1, 11, 'expected a function symbol at end of line'),
    (parse_state, 'saturated: true x', 1, 17, "unexpected 'x'"),
    (parse_problem, 'clause: p(a) @', 1, 14, "unexpected character '@'"),
    (parse_problem, 'clause: p(a) ->\nclause: q(p) ->',
     2, 11, "symbol 'p' used both as predicate and function"),
    (parse_problem, 'clause: p(X -> q(X)', 1, 13, "expected ')', found '->'"),
    (parse_problem, 'clause: p(X))', 1, 13, "expected '->', found ')'"),
    (parse_problem, 'huh: p(X)', 1, 1, "unexpected declaration 'huh' in problem file"),
    (parse_problem, 'clause p(X) ->', 1, 8, "expected ':', found 'p'"),
    (parse_problem, 'order: f > f', 1, 12, "duplicate symbol 'f' in order"),
    (parse_problem, 'order: X', 1, 8, 'variables cannot be ordered'),
    (parse_problem, 'order: f > X', 1, 12, 'variables cannot be ordered'),
    (parse_problem, 'order: f g', 1, 10, "expected '>', found 'g'"),
    (parse_problem, 'order: f\norder: g', 2, 1, 'duplicate order declaration'),
    (parse_problem, 'clause: P(a) ->', 1, 9, "predicate symbols must start lowercase, found 'P'"),
    (parse_problem, 'clause: p(X(a)) ->', 1, 12, "variable 'X' cannot take arguments"),
    (parse_problem, 'rule: p(a) -> q(a)', 1, 1, "unexpected declaration 'rule' in problem file"),
    (parse_problem, 'clause: p(#1) ->', 1, 11, "'#' is reserved for internal frozen constants"),
    (parse_problem, 'clause: p(X) -> p(X,X)', 1, 17, "predicate 'p' used with arities 1 and 2"),
    (parse_problem, 'clause: p(f(a)) -> q(f)', 1, 22, "function 'f' used with arities 1 and 0"),
    (parse_problem, 'clause: p(a) -> a', 1, 17, "symbol 'a' used both as predicate and function"),
    (parse_problem, 'order: p\nclause: p(a) ->',
     1, 1, "symbol 'p' is declared in the order but used as a predicate"),
    (parse_problem, 'clause: -> q(a)\norder: a > q\nclause: q(b) ->',
     2, 1, "symbol 'q' is declared in the order but used as a predicate"),
    (parse_problem, 'clause: p(a), -> q', 1, 15, "expected a predicate symbol, found '->'"),
    (parse_problem, 'clause: p(a) q(a) ->', 1, 14, "expected '->', found 'q'"),
    (parse_problem, 'clause: -> p(a),', 1, 17, 'expected a predicate symbol at end of line'),
    (parse_problem, 'clause: -> p(a) -> q(a)', 1, 17, "unexpected '->'"),
    (parse_problem, 'clause: -> p(a)\n  % comment\n\tclause: p(b) - q',
     3, 15, "unexpected character '-'"),
    (parse_problem, ': p(a) ->', 1, 1, "expected a declaration keyword, found ':'"),
    (parse_problem, 'clause', 1, 7, "expected ':' at end of line"),
    (parse_problem, 'clause: p(a', 1, 12, "expected ')' at end of line"),
    (parse_problem, 'clause: p(,a) ->', 1, 11, "expected a term, found ','"),
    (parse_problem, 'clause: 1p ->', 1, 9, "unexpected character '1'"),
    (parse_problem, 'clause: p(_) ->', 1, 11, "unexpected character '_'"),
    (parse_state, 'clause: p(a) ->',
     1, 1, "state files start with a 'saturated: true|limit' header"),
    (parse_state, 'saturated: maybe\norder:', 1, 12, "expected 'true' or 'limit', found 'maybe'"),
    (parse_state, 'saturated: ->', 1, 12, "expected 'true' or 'limit', found '->'"),
    (parse_state, 'saturated:', 1, 11, "expected 'true' or 'limit' at end of line"),
    (parse_state, '', 1, 1, "empty state file: missing 'saturated:' header"),
    (parse_state, '% only a comment\n', 1, 1, "empty state file: missing 'saturated:' header"),
    (parse_state, 'saturated: true\nclause: p(a) ->',
     1, 1, "state file missing its 'order:' line"),
    (parse_state, 'saturated: true\norder: f > a\nrule: p(a) -> q(f(a),a)',
     3, 1, 'invalid rule: the left side is not above the right side'),
    (parse_state, 'saturated: true\norder: a > b\nrule: p(a) -> p(a)',
     3, 1, 'invalid rule: the left side is not above the right side'),
    (parse_state, 'saturated: true\norder: a > b\nrule: p(a) -> p(X)',
     3, 1, 'invalid rule: the left side is not above the right side'),
    (parse_state, 'saturated: true\norder: a > b\nrule: p(a) -> p(b) p(a)',
     3, 20, "unexpected 'p'"),
    (parse_state, 'saturated: true\norder: a > b\nrule: p(a)',
     3, 11, "expected '->' at end of line"),
    (parse_state, 'saturated: true\norder: a\nquery: p(a) ->',
     3, 1, "unexpected declaration 'query' in state file"),
    (parse_state, 'saturated: true\nsaturated: true',
     2, 1, "unexpected declaration 'saturated' in state file"),
    (parse_state, 'saturated: true\norder: a\norder: a', 3, 1, 'duplicate order declaration'),
    (parse_clause_text, 'p(a)', 1, 5, "expected '->' at end of line"),
    (parse_clause_text, 'p(a) -> q(a) r(a)', 1, 14, "unexpected 'r'"),
    (parse_clause_text, '', 1, 1, 'expected exactly one clause'),
    (parse_clause_text, 'p(a) ->\nq(a) ->', 1, 1, 'expected exactly one clause'),
    (parse_clause_text, '-> p(#2)', 1, 6, "'#' is reserved for internal frozen constants"),
    (parse_clause_text, 'p(a) ->\n@', 2, 1, "unexpected character '@'"),
    (parse_clause_text, 'p(a) -> p(a,b)', 1, 9, "predicate 'p' used with arities 1 and 2"),
]


def test_malformed_inputs_report_message_line_and_column():
    assert len(MALFORMED) >= 30
    for parse, text, line, col, message in MALFORMED:
        with pytest.raises(ParseError) as info:
            parse(text)
        got = (info.value.line, info.value.col, str(info.value))
        assert got == (line, col, f"line {line}, column {col}: {message}"), (parse.__name__, text)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_clause_text_round_trips(seed):
    c = rand_clause(random.Random(seed), max_side=3, depth=3)
    assert parse_clause_text(str(c)) == c


def _spaced(rng: random.Random, text: str) -> str:
    """text with blanks after some punctuation and before some arrows, and
    sometimes a trailing comment, so that columns are not all packed."""
    out = []
    for ch in text:
        if ch == "-" and rng.random() < 0.3:
            out.append(rng.choice(" \t"))
        out.append(ch)
        if ch in "(),>:" and rng.random() < 0.2:
            out.append(rng.choice([" ", "  ", "\t"]))
    if rng.random() < 0.2:
        out.append(rng.choice(["%", " % x(", "\t%#"]))
    return "".join(out)


def _documents(rng: random.Random):
    """One valid problem text, state text and clause text."""
    symbols = [name for name, _ in SIG_FUNCS] + SIG_CONSTS
    rng.shuffle(symbols)
    order = "order: " + " > ".join(symbols[: rng.randint(0, len(symbols))])
    problem = [order] if rng.random() < 0.7 else []
    for _ in range(rng.randint(1, 4)):
        problem.append(f"{rng.choice(['clause', 'query'])}: {rand_clause(rng, 3, 3)}")
    ordering = sig_ordering()
    state = ["saturated: " + rng.choice(["true", "limit"]), "order: " + " > ".join(ordering.symbols())]
    for _ in range(rng.randint(0, 3)):
        state.append(f"clause: {rand_clause(rng, 3, 3)}")
    for _ in range(rng.randint(0, 2)):
        while True:
            lhs, rhs = rand_atom(rng, 3), rand_atom(rng, 2)
            if ordering.atom_greater(lhs, rhs):
                break
        state.append(f"rule: {lhs} -> {rhs}")
    return [
        (parse_problem, "\n".join(_spaced(rng, line) for line in problem)),
        (parse_state, "\n".join(_spaced(rng, line) for line in state)),
        (parse_clause_text, _spaced(rng, str(rand_clause(rng, 3, 3)))),
    ]


def _mutated(rng: random.Random, text: str) -> str:
    """text with one character put in, put in place of another, or dropped."""
    k = rng.randrange(len(text) + 1)
    ch = rng.choice(["(", ")", ",", ">", ":", "%", "#", rng.choice("aqxXZ"), ""])
    if ch and rng.random() < 0.5:
        return text[:k] + ch + text[k:]
    return text[:k] + ch + text[k + 1:]


def _read(parse, text: str):
    """What `parse` makes of text: its result and the symbols it noted, in
    their order, or the error's (line, column, message)."""
    sig = Signature()
    try:
        if parse is parse_clause_text:
            got = parse(text, sig)
        elif parse is parse_state:
            return ("state", serialize_state(parse(text)))
        else:
            got = parse(text)
            sig = got.signature
    except ParseError as exc:
        return ("error", exc.line, exc.col, str(exc))
    return ("read", got, list(sig.functions.items()), list(sig.predicates.items()))


def test_reader_agrees_with_the_recursive_reference():
    rng = random.Random(20260419)
    outcomes: dict[str, int] = {}
    messages = set()
    for _ in range(300):
        for parse, text in _documents(rng):
            for variant in [text] + [_mutated(rng, text) for _ in range(4)]:
                got = _read(parse, variant)
                with reference_reader():
                    want = _read(parse, variant)
                assert got == want, (parse.__name__, variant)
                outcomes[got[0]] = outcomes.get(got[0], 0) + 1
                if got[0] == "error":
                    messages.add(got[3].split(": ", 1)[1][:20])
    # both readers were asked about valid and broken text of many kinds
    assert min(outcomes.values()) >= 300, outcomes
    assert len(messages) >= 20, sorted(messages)
