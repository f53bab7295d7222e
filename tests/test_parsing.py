"""Problem/state grammar, error positions, and round-trips."""

import pytest

from helpers import cl
from satloc import (
    Clause,
    Ordering,
    ParseError,
    parse_clause_text,
    parse_problem,
    parse_state,
    saturate,
    serialize_state,
)
from satloc.parsing import serialize_problem


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


def test_state_limit_header():
    state = parse_state("saturated: limit\norder: a\nclause: -> p(a)")
    assert state.status == "limit_reached"
    text = serialize_state(state)
    assert text.startswith("saturated: limit\n")
    assert parse_state(text).status == "limit_reached"


def test_deep_nesting_is_a_parse_error():
    deep = "f(" * 600 + "a" + ")" * 600
    cases = [
        (parse_problem, f"order: f > a\nclause: -> p({deep})\n", 2),
        (parse_problem, f"query: p({deep}) ->\n", 1),
        (parse_state, f"saturated: true\norder: f > a\nclause: -> p({deep})\n", 3),
        (parse_state, f"saturated: true\norder: f > a\nrule: p({deep}) -> q(a)\n", 3),
        (parse_clause_text, f"-> p({deep})", 1),
    ]
    for parse, text, line in cases:
        with pytest.raises(ParseError, match="input nested too deeply") as info:
            parse(text)
        assert info.value.line == line
