"""Seeded input generators for the benchmark workloads.

Each generator returns problem texts and query texts decided by the seed
alone; no generator runs satloc, so later changes to the program cannot
change which inputs are run.  References come from the construction
(`chain`, `growth`), from a propositional check written here (`ground_mix`)
or are left to the bounded Herbrand oracle (`guarded_mix`, reference None
here).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

ENTAILED = "entailed"
NOT_ENTAILED = "not-entailed"


@dataclass
class Query:
    text: str
    expected: str | None  # None: the reference is computed by the oracle


@dataclass
class Problem:
    text: str
    queries: list[Query] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    problems: list[Problem]

    def query_count(self) -> int:
        return sum(len(p.queries) for p in self.problems)


def _nest(fn: str, n: int, inner: str) -> str:
    return f"{fn}(" * n + inner + ")" * n


def chain(seed: int, n: int = 12, repeats: int = 3) -> Workload:
    """Horn chain p0(a), p_i(X) -> p_{i+1}(X), p_N(f(X)) ->.

    `-> p_i(a)` and `p_i(f(a)) ->` are entailed for every i (the latter
    through p_N(f(a))); `-> p_i(f(a))` is not (make every p_i true on a
    only).  Each of these 3(N+1) queries is asked `repeats` times; the seed
    decides the order.  Three kinds of equal count keep the median and the
    90th percentile inside one kind's latency cluster, not between two.
    """
    rng = random.Random(seed)
    lines = ["order: f > a", "clause: -> p0(a)"]
    lines += [f"clause: p{i}(X) -> p{i + 1}(X)" for i in range(n)]
    lines.append(f"clause: p{n}(f(X)) ->")
    qs = []
    for i in range(n + 1):
        qs.append(Query(f"-> p{i}(a)", ENTAILED))
        qs.append(Query(f"-> p{i}(f(a))", NOT_ENTAILED))
        qs.append(Query(f"p{i}(f(a)) ->", ENTAILED))
    qs *= repeats
    rng.shuffle(qs)
    return Workload("chain", [Problem("\n".join(lines) + "\n", qs)])


def growth(seed: int, per_kind: int = 7, lo: int = 8, hi: int = 128) -> Workload:
    """Guarded growth: one tiny problem, deep ground queries.

    Depths n form a fixed log-spaced grid from lo to hi for each query kind,
    so the latency percentiles do not depend on the seed; the seed picks the
    second argument of q and the query order.  An odd number of queries per
    cycle (3 * 7) puts the median and the 90th percentile of whole cycles
    inside one query's cluster of repeated latencies, not between two.  With p(X) -> p(f(X)) and the
    body p(X), q(X,Y) of the g-clause, `-> p(f^n(a))` and
    `q(f^n(a),c) -> r(g(f^n(a),c))` are entailed, and `-> r(g(f^n(a),c))`
    is not (q is false everywhere in a model).
    """
    rng = random.Random(seed)
    text = (
        "order: g > f > a > b\n"
        "clause: -> p(a)\n"
        "clause: p(X) -> p(f(X))\n"
        "clause: p(X), q(X,Y) -> r(g(X,Y))\n"
    )
    kinds = [
        ("-> p({t})", ENTAILED),
        ("q({t},{c}) -> r(g({t},{c}))", ENTAILED),
        ("-> r(g({t},{c}))", NOT_ENTAILED),
    ]
    qs = []
    for template, expected in kinds:
        for i in range(per_kind):
            depth = round(lo * (hi / lo) ** (i / (per_kind - 1)))
            t = _nest("f", depth, "a")
            qs.append(Query(template.format(t=t, c=rng.choice("ab")), expected))
    rng.shuffle(qs)
    return Workload("growth", [Problem(text, qs)])


FAMILY_SEED = 0
UNARY = ["p0", "p1", "p2", "p3", "p4"]


def _guarded_clause(rng: random.Random) -> str:
    i, j, k = (rng.choice(UNARY) for _ in range(3))
    shape = rng.randrange(5)
    if shape == 0:
        return f"{i}(X) -> {j}(f(X))"
    if shape == 1:
        return f"{i}(f(X)) -> {j}(X)"
    if shape == 2:
        return f"{i}(X), {j}(X) -> {k}(X)"
    if shape == 3:
        return f"{i}(X) -> {j}(X), {k}(X)"
    return f"{i}(X), q(X,Y) -> r(g(X,Y))"


def _ground_term(rng: random.Random, height: int) -> str:
    if height == 0 or rng.random() < 0.3:
        return rng.choice(["a", "b"])
    if rng.random() < 0.7:
        return f"f({_ground_term(rng, height - 1)})"
    return f"g({_ground_term(rng, height - 1)},{_ground_term(rng, height - 1)})"


def _guarded_query(rng: random.Random, shape: int) -> str:
    t = _ground_term(rng, 1)
    i, j, k = (rng.choice(UNARY) for _ in range(3))
    if shape == 0:
        return f"-> {i}({_ground_term(rng, 2)})"
    if shape == 1:
        return f"{i}(f({t})), {j}({t}) -> {k}(f({t}))"
    c = rng.choice(["a", "b"])
    return f"{i}({t}), q({t},{c}) -> r(g({t},{c}))"


def guarded_mix(
    seed: int, problems: int = 25, clauses: int = 10, queries: int = 6
) -> Workload:
    """Random guarded problems: two ground facts plus `clauses` clauses of
    the five guarded shapes, with `queries` ground queries of height <= 2,
    the three query shapes in turn.

    The clause skeletons come from FAMILY_SEED; the seed renames the unary
    predicates of each problem and draws its queries.  Saturation cost per
    problem is heavy-tailed (coefficient of variation about 2.4 at 10
    clauses), so 25 skeletons drawn afresh per seed would move saturate_s
    and verify_s by about 30% between seeds.  No problem is filtered:
    states that `verify` rejects stay in the set.
    """
    family = random.Random(FAMILY_SEED)
    rng = random.Random(seed)
    out = []
    for _ in range(problems):
        body = [f"-> {family.choice(UNARY)}({family.choice(['a', 'b'])})" for _ in range(2)]
        body += [_guarded_clause(family) for _ in range(clauses)]
        names = dict(zip(UNARY, rng.sample(UNARY, len(UNARY))))
        lines = ["order: g > f > a > b"]
        lines += [f"clause: {re.sub(r'p[0-9]', lambda m: names[m[0]], c)}" for c in body]
        qs = [Query(_guarded_query(rng, j % 3), None) for j in range(queries)]
        out.append(Problem("\n".join(lines) + "\n", qs))
    return Workload("guarded_mix", out)


GROUND_TERMS = ["a", "b", "f(a)", "g(a,b)"]
GROUND_PREDICATES = ["p0", "p1", "p2"]
# (antecedent, succedent) sizes of the non-unit clauses, drawn uniformly
GROUND_SHAPES = [(1, 1), (1, 1), (2, 1), (2, 1), (1, 2), (2, 0)]

Ground = tuple[frozenset, frozenset]  # antecedent atoms, succedent atoms


def _ground_atom(rng: random.Random) -> str:
    if rng.random() < 0.2:
        return f"q({rng.choice('ab')},{rng.choice('ab')})"
    return f"{rng.choice(GROUND_PREDICATES)}({rng.choice(GROUND_TERMS)})"


def _ground_clause(rng: random.Random, neg: int, pos: int) -> Ground:
    return (
        frozenset(_ground_atom(rng) for _ in range(neg)),
        frozenset(_ground_atom(rng) for _ in range(pos)),
    )


def _ground_text(clause: Ground) -> str:
    neg, pos = clause
    return " ".join(filter(None, [", ".join(sorted(neg)), "->", ", ".join(sorted(pos))]))


def _satisfiable(clauses: list[Ground]) -> bool:
    """Propositional satisfiability: unit propagation, then a split on the
    least open atom of a clause not yet satisfied."""
    true: set = set()
    false: set = set()
    changed = True
    while changed:
        changed = False
        for neg, pos in clauses:
            if pos & true or neg & false:
                continue
            open_neg, open_pos = neg - true, pos - false
            if not open_neg and not open_pos:
                return False
            if len(open_neg) + len(open_pos) == 1:
                (true if open_pos else false).update(open_pos or open_neg)
                changed = True
    for neg, pos in clauses:
        if not (pos & true or neg & false):
            atom = frozenset([min((neg - true) | (pos - false))])
            return _satisfiable(clauses + [(frozenset(), atom)]) or _satisfiable(
                clauses + [(atom, frozenset())]
            )
    return True


def ground_entailed(clauses: list[Ground], goal: Ground) -> bool:
    """Whether the ground clauses entail the ground goal clause, decided by
    a propositional check that shares no code with satloc."""
    neg, pos = goal
    units = [(frozenset(), frozenset([a])) for a in neg]
    units += [(frozenset([a]), frozenset()) for a in pos]
    return not _satisfiable(clauses + units)


def ground_mix(seed: int, problems: int = 25, clauses: int = 16, queries: int = 6) -> Workload:
    """Random ground problems: two facts plus `clauses` - 2 clauses of
    GROUND_SHAPES over the atoms p_i(t), t in GROUND_TERMS, and q(c,d),
    c and d in {a, b}; with `queries` ground queries over the same atoms,
    whose antecedents have 0, 1 and 2 atoms in turn.

    Saturate and verify settle the inferences that subsumption does not by
    local proofs in frozen universes (reach, instance enumeration, DPLL),
    and harvest rewrite rules from every clause, so they run the local-proof
    and rule-harvesting layers; the Herbrand base is finite, so saturation
    ends on every seed.

    The clauses and queries come from FAMILY_SEED and the seed renames the
    unary predicates of each problem, so every seed gives the same work:
    problems drawn afresh would move the medians with the seed, as in
    guarded_mix.  Reference verdicts, both ways, come from ground_entailed.
    """
    family = random.Random(FAMILY_SEED)
    rng = random.Random(seed)
    out = []
    for _ in range(problems):
        shapes = [(0, 1)] * 2 + [family.choice(GROUND_SHAPES) for _ in range(clauses - 2)]
        names = dict(zip(GROUND_PREDICATES, rng.sample(GROUND_PREDICATES, len(GROUND_PREDICATES))))

        def rename(atoms: frozenset) -> frozenset:
            return frozenset(re.sub(r"p[0-9]", lambda m: names[m[0]], a) for a in atoms)

        body = [tuple(map(rename, _ground_clause(family, *shape))) for shape in shapes]
        lines = ["order: g > f > a > b"] + [f"clause: {_ground_text(c)}" for c in body]
        qs = []
        for j in range(queries):
            goal = tuple(map(rename, _ground_clause(family, j % 3, 1)))
            expected = ENTAILED if ground_entailed(body, goal) else NOT_ENTAILED
            qs.append(Query(_ground_text(goal), expected))
        out.append(Problem("\n".join(lines) + "\n", qs))
    return Workload("ground_mix", out)


GENERATORS = {"chain": chain, "growth": growth, "guarded_mix": guarded_mix, "ground_mix": ground_mix}
