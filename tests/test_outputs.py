"""One digest over what the pipeline prints for the corpus and the benchmark
workloads: states, counters, verify violations, query verdicts and
certificates.  A change that means to leave the outputs as they are keeps
this digest.

Re-pin OUTPUTS_SHA256 only under the gate of ROADMAP item 3, as for
STATE_SHA256 in test_corpus.py: every changed state verifies, query verdicts
are equal on the corpus, the four workloads and the make_corpus problems,
and the oracle agrees.
"""

import hashlib
from pathlib import Path

from helpers import bench_workloads
from satloc import (
    Limits,
    RewriteSystem,
    entails,
    parse_clause_text,
    parse_problem,
    parse_state,
    saturate,
    serialize_certificate,
    serialize_state,
    verify_saturated,
)
from satloc.cli import state_signature
from satloc.rewriting import rules_of

LIMITS = Limits(max_clauses=400, max_steps=40000)
OUTPUTS_SHA256 = "db3b5ecf6ebd2c8892d23fcc662a5a2f7fd0af977b9f2632c65cf44afac3c0bd"


def problems():
    """(name, problem text, query texts): the corpus, then each workload at
    seed 1."""
    for path in sorted((Path(__file__).parent / "corpus").glob("*.p")):
        yield path.name, path.read_text(encoding="utf-8"), None
    for name, generate in bench_workloads().GENERATORS.items():
        for k, p in enumerate(generate(1).problems):
            yield f"{name}/{k}", p.text, [q.text for q in p.queries]


def outputs(name: str, text: str, query_texts) -> list[str]:
    problem = parse_problem(text)
    state = saturate(problem.ordering, problem.clauses, LIMITS)
    state_text = serialize_state(state)
    out = [f"problem {name}", state_text, state.status, repr(state.stats)]
    state = parse_state(state_text)
    rules = state.rules.sorted_rules()
    # verify reads back the rules the clauses give, so the third triple
    # drops the first rule that they do not give
    given = rules_of(state.ordering, state.clauses).rules
    dropped = next((r for r in rules if r not in given), None)
    for clauses, kept in (
        (state.clauses, rules),
        (state.clauses[1:], rules),
        (state.clauses, [r for r in rules if r != dropped]),
    ):
        out += verify_saturated(state.ordering, clauses, RewriteSystem(frozenset(kept))).violations
    if query_texts is None:
        goals = problem.queries
    else:
        sig = state_signature(state)
        goals = [parse_clause_text(q, sig) for q in query_texts]
    for goal in goals:
        result = entails(state, goal, allow_unsaturated=True)
        out += [f"query {goal}", result.verdict, str(result.universe_size)]
        if result.certificate is not None:
            out.append(serialize_certificate(result.certificate))
    return out


def test_outputs_are_unchanged():
    digest = hashlib.sha256()
    problem_count = query_count = 0
    for name, text, query_texts in problems():
        for line in outputs(name, text, query_texts):
            digest.update(line.encode("utf-8") + b"\n")
            query_count += line.startswith("query ")
        problem_count += 1
    assert (problem_count, query_count) == (109, 440)
    assert digest.hexdigest() == OUTPUTS_SHA256
