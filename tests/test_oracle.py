"""Bounded-Herbrand brute-force oracle."""

from helpers import cl, tm
from satloc import HerbrandBound, Signature, oracle_entails, parse_problem
from satloc import oracle
from satloc.oracle import herbrand_terms
from satloc import terms as terms_module
from satloc.cli import main
from satloc.terms import Fn, substitute


def test_herbrand_terms_examples():
    sig = Signature()
    sig.note_function("a", 0)
    sig.note_function("f", 1)
    assert herbrand_terms(sig, HerbrandBound(1)) == {tm("a"), tm("f(a)")}

    sig2 = Signature()
    sig2.note_function("a", 0)
    sig2.note_function("b", 0)
    assert herbrand_terms(sig2, HerbrandBound(0)) == {tm("a"), tm("b")}

    sig3 = Signature()
    sig3.note_function("f", 1)
    got = herbrand_terms(sig3, HerbrandBound(1))
    assert got == {tm("c0"), tm("f(c0)")}  # injected default constant


def test_herbrand_terms_builds_no_layer_without_functions(tmp_path, capsys):
    # the constants are closed under no function, so no depth adds a term;
    # each layer asks too_many first, and 10**9 layers took about 20 minutes
    problem = parse_problem("clause: -> p(a)\nclause: p(X) -> q(X)")
    layers = 0

    def too_many(n: int) -> bool:
        nonlocal layers
        layers += 1
        assert layers <= 100, "a layer was built past the closed term set"
        return False

    signature = Signature.scan(problem.clauses)
    assert herbrand_terms(signature, HerbrandBound(10**9), (), too_many) == {tm("a")}
    assert layers == 0
    path = tmp_path / "constants.p"
    path.write_text("clause: -> p(a)\nclause: p(X) -> q(X)\n", encoding="utf-8")
    assert main(["oracle", str(path), "q(a) ->", "--depth", str(10**9)]) == 0
    assert capsys.readouterr().out == "unknown (depth)\n"


def test_oracle_examples():
    problem = parse_problem(
        "order: f > g > a\nclause: -> p(g(W,W))\nclause: p(g(X,Y)), q(f(Y),X) ->"
    )
    assert oracle_entails(problem.clauses, cl("q(f(a),a) ->"), HerbrandBound(2)).verdict == "entailed"
    assert oracle_entails([], cl("-> p(a)"), HerbrandBound(1)).verdict == "unknown"
    assert oracle_entails([cl("-> p(a)")], cl("-> p(a)"), HerbrandBound(0)).verdict == "entailed"


def test_oracle_monotone_in_depth():
    problem = parse_problem("clause: -> p(a)\nclause: p(X) -> q(X,X)")
    goal = cl("-> q(a,a)")
    verdicts = [
        oracle_entails(problem.clauses, goal, HerbrandBound(d)).verdict for d in range(3)
    ]
    assert verdicts[0] == "entailed"
    assert all(v == "entailed" for v in verdicts)


def test_oracle_budget():
    problem = parse_problem("clause: p(X), q(X,Y), r(Z) -> p(f(g(X,Y)))")
    result = oracle_entails(problem.clauses, cl("-> p(a)"), HerbrandBound(3), budget=100)
    assert result.verdict == "unknown"
    assert result.reason == "budget"


def test_oracle_freezes_a_nonground_goal():
    chain = [cl("p(X) -> r(X)"), cl("r(Y) -> q(Y)")]
    assert oracle_entails(chain, cl("p(Z) -> q(Z)"), HerbrandBound(0)).verdict == "entailed"
    assert oracle_entails([], cl("-> p(X)"), HerbrandBound(1)).verdict == "unknown"
    # the frozen constant is none of the problem's: p(a) is not p of every term
    assert oracle_entails([cl("-> p(a)")], cl("-> p(X)"), HerbrandBound(2)).verdict == "unknown"
    assert oracle_entails([cl("-> p(Y)")], cl("-> p(X)"), HerbrandBound(0)).verdict == "entailed"


def test_oracle_harvests_query_terms():
    # deep query terms are available even at depth 0
    problem = parse_problem("clause: p(X) -> q(X,X)\nclause: -> p(f(f(f(a))))")
    goal = cl("-> q(f(f(f(a))),f(f(f(a))))")
    assert oracle_entails(problem.clauses, goal, HerbrandBound(0)).verdict == "entailed"


def test_oracle_budget_bounds_term_generation(monkeypatch):
    # depth 4 has over 458 000 terms, so 2e11 instances of the second clause
    # to count against the budget: the answer comes before that layer is
    # built, from a few hundred terms
    problem = parse_problem("clause: -> p(a)\nclause: p(X), p(Y) -> p(f(X,Y))")
    built = 0

    def counted_fn(*args):
        nonlocal built
        built += 1
        assert built <= 10_000, "term generation ran past the budget"
        return Fn(*args)

    monkeypatch.setattr(oracle, "Fn", counted_fn)
    for depth in (4, 5, 8):
        result = oracle_entails(problem.clauses, cl("-> p(f(a,a))"), HerbrandBound(depth))
        assert (result.verdict, result.reason) == ("unknown", "budget")
    # without a clause variable no term is built at all
    built = 0
    ground = parse_problem("clause: -> p(f(a))\nclause: p(f(a)) -> q(a)")
    assert oracle_entails(ground.clauses, cl("-> q(a)"), HerbrandBound(50)).verdict == "entailed"
    assert built == 0


def test_oracle_prints_no_term_for_a_deep_goal(monkeypatch):
    # the term lists fed sets, so sorting them by text decided nothing: at
    # depth 50 it printed 103 terms (51 seeds, then 52 terms), each in time
    # linear in its depth
    printed = 0
    text = terms_module._text

    def counted(e):
        nonlocal printed
        printed += 1
        return text(e)

    deep = "f(" * 50 + "a" + ")" * 50
    problem = parse_problem(f"clause: -> p({deep})\nclause: p(X) -> q(X)")
    monkeypatch.setattr(terms_module, "_text", counted)
    result = oracle_entails(problem.clauses, cl(f"-> q({deep})"), HerbrandBound(1))
    assert result.verdict == "entailed"
    assert printed == 0


def test_oracle_budget_counts_term_size(monkeypatch):
    # p(X) -> q(X) has one instance per subterm of the goal, 5 001 of them,
    # but together they hold over 25 million symbols: the budget refuses them
    # before one is built, where a budget on instances let all be built
    built = 0

    def counted(*args):
        nonlocal built
        built += 1
        return substitute(*args)

    monkeypatch.setattr(oracle, "substitute", counted)
    clauses = parse_problem("clause: p(X) -> q(X)").clauses
    deep = "f(" * 5000 + "a" + ")" * 5000
    result = oracle_entails(clauses, cl(f"p({deep}) -> q({deep})"), HerbrandBound(0))
    assert (result.verdict, result.reason, built) == ("unknown", "budget", 0)
    # 50 deep: 51 terms of 1 326 symbols together; an instance has 2 atoms
    # and binds X twice, so the 51 instances hold 2 * 51 + 2 * 1 326 symbols
    shallow = "f(" * 50 + "a" + ")" * 50
    goal = cl(f"p({shallow}) -> q({shallow})")
    assert oracle_entails(clauses, goal, HerbrandBound(0), budget=2754).verdict == "entailed"
    assert built == 51
    result = oracle_entails(clauses, goal, HerbrandBound(0), budget=2753)
    assert (result.verdict, result.reason, built) == ("unknown", "budget", 51)
