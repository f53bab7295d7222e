"""CLI subcommands: verdict output, exit codes, deterministic files."""

from pathlib import Path

import pytest

from satloc import parse_state, serialize_state
from satloc.cli import main

WORKED = "order: f > g > a\nclause: -> p(g(W,W))\nclause: p(g(X,Y)), q(f(Y),X) ->\n"
RACE = "clause: -> p(X)\nclause: p(X) ->\n"


def write(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_saturate_to_stdout(tmp_path, capsys):
    problem = write(tmp_path, "demo.p", WORKED)
    assert main(["saturate", problem]) == 0
    out = capsys.readouterr().out
    assert out.startswith("saturated: true\n")
    assert "rule: q(f(V0),V0) -> p(g(V0,V0))" in out


def test_saturate_reports_items_and_subsumption_counters(tmp_path, capsys):
    chain = "clause: -> p0(a)\nclause: p0(X) -> p1(X)\nclause: p1(X) -> p2(X)\n"
    assert main(["saturate", write(tmp_path, "chain.p", chain)]) == 0
    err = capsys.readouterr().err
    # one item per resolving pair, none for factoring: 6 clauses, 4 pairs
    assert "4 items processed, 4 inferences" in err
    assert "redundant 1 (by subsumption 1), discovered 3, deleted 0)" in err
    # the second clause subsumes the first, which is deleted
    subsumed = "clause: q(b) -> p(f(a))\nclause: q(X) -> p(f(Y)), p(f(a))\n"
    assert main(["saturate", write(tmp_path, "subsumed.p", subsumed)]) == 0
    err = capsys.readouterr().err
    assert "saturated: 1 clauses" in err
    assert "discovered 0, deleted 1)" in err


def test_saturate_out_file_and_rerun_byte_identical(tmp_path, capsys):
    problem = write(tmp_path, "demo.p", WORKED)
    out1 = tmp_path / "a.state"
    out2 = tmp_path / "b.state"
    assert main(["saturate", problem, "--out", str(out1)]) == 0
    assert main(["saturate", problem, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_saturate_limit_exit(tmp_path, capsys):
    problem = write(tmp_path, "race.p", RACE)
    state = tmp_path / "race.state"
    assert main(["saturate", problem, "--max-steps", "0", "--out", str(state)]) == 2
    capsys.readouterr()
    assert state.read_text().startswith("saturated: limit\n")


def test_query_verdicts_and_certificate(tmp_path, capsys):
    problem = write(tmp_path, "demo.p", WORKED)
    state = write(tmp_path, "demo.state", "")
    assert main(["saturate", problem, "--out", state]) == 0
    capsys.readouterr()

    assert main(["query", state, "q(f(a),a) ->", "-> p(a)"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["entailed", "not-entailed"]

    assert main(["query", state, "q(f(a),a) ->", "--certificate"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "entailed"
    assert "atom: p(g(a,a))" in out
    assert "instance: p(g(a,a)), q(f(a),a) ->" in out
    assert "goal-unit: -> q(f(a),a)" in out


def test_query_from_file(tmp_path, capsys):
    problem = write(tmp_path, "demo.p", WORKED + "query: q(f(a),a) ->\nquery: -> p(a)\n")
    state = write(tmp_path, "demo.state", "")
    assert main(["saturate", problem, "--out", state]) == 0
    capsys.readouterr()
    assert main(["query", state, "--from", problem]) == 0
    assert capsys.readouterr().out.splitlines() == ["entailed", "not-entailed"]


def test_query_from_file_gets_the_state_symbol_checks(tmp_path, capsys):
    problem = write(tmp_path, "demo.p", "order: f > a\nclause: -> p(a)\nclause: p(X) -> q(f(X))\n")
    state = write(tmp_path, "demo.state", "")
    assert main(["saturate", problem, "--out", state]) == 0
    capsys.readouterr()
    assert main(["query", state, "-> p(a,b)"]) == 3
    assert "predicate 'p' used with arities 1 and 2" in capsys.readouterr().err
    queries = write(tmp_path, "queries.p", "query: -> q(f(a))\nquery: -> p(a,b)\n")
    assert main(["query", state, "--from", queries]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "predicate 'p' used with arities 1 and 2" in err
    # the file and the query are named, as a parse error gives its position
    assert err == f"error: {queries}: query -> p(a,b): predicate 'p' used with arities 1 and 2\n"


def test_query_options_and_clauses_interleave(tmp_path, capsys):
    # argparse filled the clause list, empty, before the option, so the
    # clause after it was refused as an unrecognized argument
    problem = write(tmp_path, "demo.p", "clause: -> p(a)\nclause: p(X) -> q(X)\n")
    state = write(tmp_path, "demo.state", "")
    assert main(["saturate", problem, "--out", state]) == 0
    capsys.readouterr()
    assert main(["query", state, "--certificate", "-> p(a)"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "entailed"
    assert "instance: -> p(a)" in lines and "goal-unit: p(a) ->" in lines
    assert main(["query", "--unsound-ok", state, "-> q(a)", "--certificate", "-> q(b)"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if ":" not in line] == ["entailed", "not-entailed"]
    assert main(["query", state, "-> q(a)", "--bogus", "-> q(b)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --bogus" in captured.err


def test_query_refuses_an_unsaturated_state_before_any_verdict(tmp_path, capsys):
    # the refusal is per state, so it comes before the first verdict; a
    # clause with variables is decided like any other, its variables frozen
    # to #1, #2, ...
    problem = write(tmp_path, "race.p", RACE)
    state = write(tmp_path, "race.state", "")
    assert main(["saturate", problem, "--max-steps", "0", "--out", state]) == 2
    capsys.readouterr()
    queries = write(tmp_path, "queries.p", "query: p(X) ->\nquery: -> q(X)\n")
    for command in (["query", state, "p(X) ->", "-> q(X)"], ["query", state, "--from", queries]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("refused: ")
        assert main(command + ["--unsound-ok"]) == 0
        assert capsys.readouterr().out.splitlines() == ["entailed", "locally-not-provable"]
    assert main(["query", state, "p(X) ->", "--unsound-ok", "--certificate"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "entailed",
        "atom: p(#1)",
        "instance: -> p(#1)",
        "instance: p(#1) ->",
        "goal-unit: -> p(#1)",
    ]


def test_query_refuses_limit_state(tmp_path, capsys):
    problem = write(tmp_path, "race.p", RACE)
    state = write(tmp_path, "race.state", "")
    assert main(["saturate", problem, "--max-steps", "0", "--out", state]) == 2
    capsys.readouterr()
    assert main(["query", state, "-> p(a)"]) == 2
    err = capsys.readouterr().err
    assert "refused" in err
    assert main(["query", state, "-> q(b,b)", "--unsound-ok"]) == 0
    assert capsys.readouterr().out.splitlines() == ["locally-not-provable"]
    assert main(["query", state, "-> p(a)", "--unsound-ok"]) == 0
    assert capsys.readouterr().out.splitlines() == ["entailed"]  # sound positives


def test_verify_exits(tmp_path, capsys):
    problem = write(tmp_path, "demo.p", WORKED)
    state = write(tmp_path, "demo.state", "")
    assert main(["saturate", problem, "--out", state]) == 0
    capsys.readouterr()
    assert main(["verify", state]) == 0
    assert capsys.readouterr().out.strip() == "ok"

    # the rule that the clause gives is read back from it
    unlisted = write(
        tmp_path,
        "unlisted.state",
        "saturated: true\norder: f > g\nclause: p(g(W,W)), q(f(W),W) ->\n",
    )
    assert main(["verify", unlisted]) == 0
    assert capsys.readouterr().out.strip() == "ok"

    # the empty clause is missing
    bad = write(
        tmp_path, "bad.state", "saturated: true\norder:\nclause: -> p(X)\nclause: p(X) ->\n"
    )
    assert main(["verify", bad]) == 4
    out = capsys.readouterr().out
    assert "condition 1: not redundant" in out


def test_oracle_command(tmp_path, capsys):
    problem = write(tmp_path, "demo.p", WORKED)
    assert main(["oracle", problem, "q(f(a),a) ->", "--depth", "2"]) == 0
    assert capsys.readouterr().out.strip() == "entailed"
    assert main(["oracle", problem, "-> p(a)", "--depth", "2"]) == 0
    assert capsys.readouterr().out.strip() == "unknown (depth)"
    chain = write(tmp_path, "chain.p", "clause: p(X) -> r(X)\nclause: r(Y) -> q(Y)\n")
    assert main(["oracle", chain, "p(X) -> q(X)", "--depth", "1"]) == 0
    assert capsys.readouterr().out.strip() == "entailed"
    # the frozen constant seeds the terms: depth 1 builds g(#1,#1)
    assert main(["oracle", problem, "q(f(X),X) ->", "--depth", "1"]) == 0
    assert capsys.readouterr().out.strip() == "entailed"
    assert main(["oracle", problem, "-> p(X)", "--depth", "1"]) == 0
    assert capsys.readouterr().out.strip() == "unknown (depth)"


def test_query_takes_clauses_without_a_space_after_the_arrow(tmp_path, capsys):
    # argparse reads an argument that starts with "-" and has no space as
    # an option, so "->p(a)" exited 3 with "unrecognized arguments"
    problem = write(tmp_path, "demo.p", WORKED)
    state = write(tmp_path, "demo.state", "")
    assert main(["saturate", problem, "--out", state]) == 0
    capsys.readouterr()
    assert main(["query", state, "->p(g(a,a))", "q(f(a),a)->", "->p(a)", "--certificate"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if ":" not in line] == ["entailed", "entailed", "not-entailed"]
    assert main(["query", state, "--", "->p(g(a,a))", "-> p(a)"]) == 0
    assert capsys.readouterr().out.splitlines() == ["entailed", "not-entailed"]
    assert main(["query", state, "->p(a"]) == 3
    assert "error: line 1" in capsys.readouterr().err
    assert main(["query", state, "-x"]) == 3  # options are still options
    assert "unrecognized arguments: -x" in capsys.readouterr().err


def test_oracle_takes_a_clause_without_a_space_after_the_arrow(tmp_path, capsys):
    # "->p(a)" was taken for an option: exit 3, "required: clause"
    problem = write(tmp_path, "demo.p", WORKED)
    assert main(["oracle", problem, "->p(g(a,a))", "--depth", "1"]) == 0
    assert capsys.readouterr().out.strip() == "entailed"
    assert main(["oracle", problem, "--depth", "1", "--", "->p(g(a,a))"]) == 0
    assert capsys.readouterr().out.strip() == "entailed"
    assert main(["oracle", problem, "->", "--depth", "1"]) == 0
    assert capsys.readouterr().out.strip() == "unknown (depth)"


def test_parse_errors_exit_3(tmp_path, capsys):
    # an error in a file names the file; a clause given on the command line
    # is an argument, and its errors give only the position
    bad = write(tmp_path, "bad.p", "clause: p(X) -> p(X,X)\n")
    expected = f"error: {bad}: line 1, column 17: predicate 'p' used with arities 1 and 2\n"
    for command in (["saturate", bad], ["oracle", bad, "-> p(a)", "--depth", "1"]):
        assert main(command) == 3
        assert capsys.readouterr().err == expected

    problem = write(tmp_path, "demo.p", WORKED)
    state = write(tmp_path, "demo.state", "")
    assert main(["saturate", problem, "--out", state]) == 0
    capsys.readouterr()
    queries = write(tmp_path, "q.p", "query: -> p(a\n")
    assert main(["query", state, "--from", queries]) == 3
    assert capsys.readouterr() == (
        "", f"error: {queries}: line 1, column 14: expected ')' at end of line\n"
    )
    text = Path(state).read_text(encoding="utf-8").splitlines()
    broken = write(tmp_path, "broken.state", "\n".join(text[:2] + ["clause: -> p(a"] + text[2:]))
    expected = f"error: {broken}: line 3, column 15: expected ')' at end of line\n"
    for command in (["query", broken, "-> p(a)"], ["verify", broken]):
        assert main(command) == 3
        assert capsys.readouterr().err == expected
    assert main(["query", state, "-> p(Z)"]) == 0  # a variable is read universally
    assert capsys.readouterr().out == "not-entailed\n"
    assert main(["query", state, "p(a"]) == 3
    capsys.readouterr()
    assert main(["saturate", str(tmp_path / "missing.p")]) == 3
    capsys.readouterr()


def test_usage_errors_exit_3_and_help_exits_0(tmp_path, capsys):
    problem = write(tmp_path, "demo.p", WORKED)
    assert main(["saturate", problem, "--max-steps", "abc"]) == 3
    assert "invalid int value: 'abc'" in capsys.readouterr().err
    assert main(["frobnicate"]) == 3
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err
    assert main(["oracle", problem, "-> p(a)"]) == 3  # --depth is required
    assert "--depth" in capsys.readouterr().err
    with pytest.raises(SystemExit) as help_exit:
        main(["query", "--help"])
    assert help_exit.value.code == 0
    assert "--certificate" in capsys.readouterr().out


def test_negative_limits_are_usage_errors_and_zero_is_a_limit(tmp_path, capsys):
    problem = write(tmp_path, "demo.p", WORKED)
    for option in ("--max-clauses", "--max-steps"):
        assert main(["saturate", problem, option, "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}: must not be negative, got -1" in captured.err
    for option, other in (("--budget", "--depth"), ("--depth", "--budget")):
        assert main(["oracle", problem, "q(f(a),a) ->", other, "1", option, "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}: must not be negative, got -1" in captured.err
    assert main(["saturate", problem, "--max-steps", "0"]) == 2
    assert "limit_reached: 2 clauses" in capsys.readouterr().err
    # WORKED discovers no clause, so a clause limit of 0 never stops it
    assert main(["saturate", problem, "--max-clauses", "0"]) == 0
    capsys.readouterr()
    assert main(["oracle", problem, "q(f(a),a) ->", "--depth", "1", "--budget", "0"]) == 0
    assert capsys.readouterr().out.strip() == "unknown (budget)"


def test_deep_and_wide_input_exits_0(tmp_path, capsys):
    # nothing recurses on term depth or clause size: a ground clause 5 000
    # deep saturates, verifies and answers, rules that deep orient and
    # verify, p(X) -> r(f^3000(X)) saturates, verifies and answers, and a
    # clause of 1 200 atoms answers; the oracle's budget refuses a goal
    # 5 000 deep
    deep = "f(" * 5000 + "a" + ")" * 5000
    problem = write(tmp_path, "deep.p", f"clause: -> p({deep})\n")
    state = str(tmp_path / "deep.state")
    assert main(["saturate", problem, "--out", state]) == 0
    assert main(["verify", state]) == 0
    capsys.readouterr()
    assert main(["query", state, f"-> p({deep})"]) == 0
    assert capsys.readouterr().out == "entailed\n"
    # the oracle's budget counts the symbols of the 5 001 instances
    problem = write(tmp_path, "copy.p", "clause: p(X) -> q(X)\n")
    assert main(["oracle", problem, f"p({deep}) -> q({deep})", "--depth", "0"]) == 0
    assert capsys.readouterr().out == "unknown (budget)\n"
    deep_b = deep.replace("a", "b")
    for rule in (f"p({deep}) -> q(a)", f"p({deep}) -> p({deep_b})"):
        path = write(tmp_path, "rule.state", f"saturated: true\norder: f > a > b\nrule: {rule}\n")
        assert main(["verify", path]) == 0
        assert capsys.readouterr().out == "ok\n"
    open_deep = "f(" * 3000 + "X" + ")" * 3000
    problem = write(tmp_path, "open.p", f"clause: -> p(a)\nclause: p(X) -> r({open_deep})\n")
    assert main(["saturate", problem, "--out", state]) == 0
    assert main(["verify", state]) == 0
    capsys.readouterr()
    assert main(["query", state, f"-> r({open_deep.replace('X', 'a')})"]) == 0
    assert capsys.readouterr().out == "entailed\n"
    # one clause of 1 200 atoms, no nesting: the matcher takes no frame per
    # goal
    atoms = ", ".join(f"p(X{i})" for i in range(1200))
    wide = write(tmp_path, "wide.state", f"saturated: true\norder:\nclause: {atoms} -> q\n")
    assert main(["query", wide, "p(a) -> q"]) == 0
    assert capsys.readouterr().out == "entailed\n"


def test_deep_ground_term_saturates_prints_and_answers(tmp_path, capsys):
    # 5 000 levels: substitution, the path ordering, hashing, printing and
    # the query path take no frame per level
    deep = "f(" * 5000 + "a" + ")" * 5000
    problem = write(tmp_path, "deep.p", f"order: f > a\nclause: -> p({deep})\nclause: p(X) -> q(X)\n")
    state = tmp_path / "deep.state"
    assert main(["saturate", problem, "--out", str(state)]) == 0
    text = state.read_text(encoding="utf-8")
    assert f"clause: -> q({deep})\n" in text
    assert serialize_state(parse_state(text)) == text
    capsys.readouterr()
    assert main(["query", "--certificate", str(state), f"-> q({deep})"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("entailed\n")
    assert f"instance: -> q({deep})\n" in out
    # non-ground: harvesting the rule p(X) -> r(f^5000(X)) substitutes into
    # the deep side, as do the inferences and the query's rewriting
    problem = write(tmp_path, "open.p", f"clause: -> p(a)\nclause: p(X) -> r({deep.replace('a', 'X')})\n")
    assert main(["saturate", problem, "--out", str(state)]) == 0
    assert main(["verify", str(state)]) == 0
    capsys.readouterr()
    assert main(["query", str(state), f"-> r({deep})"]) == 0
    assert capsys.readouterr().out == "entailed\n"


def test_deep_clause_atoms_are_compared_within_the_reader_limit(tmp_path, capsys):
    # the path ordering compares p(f^5000(a)) with q(a) from a stack of
    # generators, with no frame per level
    deep = "f(" * 5000 + "a" + ")" * 5000
    problem = write(tmp_path, "deep.p", f"order: f > a\nclause: p({deep}) -> q(a)\n")
    assert main(["saturate", problem]) == 0
    assert f"clause: p({deep}) -> q(a)\n" in capsys.readouterr().out
