"""Shared test helpers: parsing shorthands, test-only operations, reference
implementations used as independent oracles, and seeded random generators."""

from __future__ import annotations

import contextlib
import importlib.util
import itertools
import random
import re
import sys
from collections import deque
from pathlib import Path

import make_corpus
import satloc.entailment as entailment
import satloc.parsing as parsing
from satloc.entailment import clause_redundant, subsumes
from satloc.orderings import Ordering
from satloc.parsing import ParseError, Problem, parse_clause_text
from satloc.resolution import RESOLUTION, Inference, a_priori_resolvents, eligible_atoms
from satloc.resolution import is_a_posteriori
from satloc.rewriting import RewriteSystem, reach, rules_of
from satloc.saturation import LIMIT_REACHED, SATURATED, Limits, SaturationState, VerifyReport
from satloc.terms import (
    ArityError,
    Atom,
    Clause,
    FreezeMap,
    Fn,
    Subst,
    Term,
    Var,
    atom_key,
    match_onto,
    mgu,
    renaming,
    substitute,
    vars_of,
)


def bench_workloads():
    """bench/workloads.py, loaded read-only as a module of its own."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look the module up
    spec.loader.exec_module(workloads)
    return workloads


def generated_problems(count: int, seed: int) -> list[Problem]:
    """`count` problems from the corpus families (tests/make_corpus.py) in
    turn, drawn from one generator seeded with `seed`."""
    rng = random.Random(seed)
    families = [gen for _, gen, _ in make_corpus.FAMILIES]
    return [parsing.parse_problem(families[k % len(families)](rng)) for k in range(count)]


def cl(text: str) -> Clause:
    return parse_clause_text(text)


def at(text: str) -> Atom:
    c = parse_clause_text(f"-> {text}")
    assert len(c.succedent) == 1 and not c.antecedent
    return c.succedent[0]


def tm(text: str) -> Term:
    return at(f"scratch({text})").args[0]


def serialize_problem(problem: Problem) -> str:
    """Problem text that parse_problem reads back to an equal problem."""
    lines = []
    if problem.ordering.symbols():
        lines.append("order: " + " > ".join(problem.ordering.symbols()))
    for c in problem.clauses:
        lines.append(f"clause: {c}")
    for q in problem.queries:
        lines.append(f"query: {q}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# A recursive reader, the reference for the one-loop reader in
# `satloc.parsing`: a token is a (text, column) pair, every column is kept,
# and terms are read by `_args`, one frame per nesting level.
# `reference_reader()` swaps it into `satloc.parsing`, so the module's own
# entry points (`parse_problem`, `parse_state`, `parse_clause_text`) run on it.

# group 1: a token; group 2: a comment; otherwise one stray character
_REF_TOKEN_RE = re.compile(r"(->|[>(),:]|[A-Za-z][A-Za-z0-9_]*)|(%)|\S")


class RefLine:
    """The tokens of one line, each a (text, column) pair, and a read position."""

    def __init__(self, text: str, lineno: int):
        self.lineno = lineno
        self.end_col = len(text) + 1
        self.col = 1  # column of the token taken last
        self.pos = 0
        self.tokens: list[tuple[str, int]] = []
        for m in _REF_TOKEN_RE.finditer(text):
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


class RefReader(parsing._Reader):
    def _args(self, line: RefLine) -> tuple[Term, ...]:
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

    def _atom(self, line: RefLine) -> Atom:
        name = line.take("a predicate symbol")
        col = line.col
        if name[0].isupper():
            raise line.error(f"predicate symbols must start lowercase, found {name!r}")
        try:
            args = self._args(line)
        except RecursionError:
            raise ParseError("input nested too deeply", line.lineno, 1) from None
        try:
            self.sig.note_predicate(name, len(args))
        except ArityError as exc:
            raise ParseError(str(exc), line.lineno, col) from None
        return Atom(name, args)


@contextlib.contextmanager
def reference_reader():
    """`satloc.parsing` reads with RefLine and RefReader inside the block."""
    saved = parsing._Line, parsing._Reader
    parsing._Line, parsing._Reader = RefLine, RefReader
    try:
        yield
    finally:
        parsing._Line, parsing._Reader = saved


def is_empty(c: Clause) -> bool:
    return not c.antecedent and not c.succedent


# ---------------------------------------------------------------------------
# Test-only operations: composition, unfreezing, unordered resolution, the
# full inference redundancy test and the reach order.

def compose(s1: Subst, s2: Subst) -> Subst:
    """Substitution with substitute(compose(s1,s2), e) == substitute(s2, substitute(s1, e)).

    Identity bindings are dropped.  The result is idempotent whenever the
    sequential application admits an idempotent presentation (always the
    case for the unifier/matcher compositions used here).
    """
    out: Subst = {}
    for v, t in s1.items():
        t2 = substitute(s2, t)
        if t2 != v:
            out[v] = t2
    for v, t in s2.items():
        if v not in s1 and t != v:
            out[v] = t
    return out


def unfreeze(mapping: FreezeMap, e):
    """Invert a freeze map, turning its frozen constants back into variables."""
    inverse = {fn: v for v, fn in mapping.items()}

    def back(t: Term) -> Term:
        if isinstance(t, Var):
            return t
        if t in inverse:
            return inverse[t]
        return Fn(t.name, tuple(back(a) for a in t.args))

    if isinstance(e, Atom):
        return Atom(e.pred, tuple(back(t) for t in e.args))
    if isinstance(e, Clause):
        return Clause(
            (unfreeze(mapping, a) for a in e.antecedent),
            (unfreeze(mapping, a) for a in e.succedent),
        )
    return back(e)


def rename_apart(c: Clause, forbidden) -> Clause:
    """Variant of c whose variables avoid the forbidden set; always systematic."""
    rho = renaming(c, forbidden)
    return substitute(rho, c) if rho else c


def ref_a_priori_resolvents(ordering: Ordering, c1: Clause, c2: Clause) -> list[Inference]:
    """a_priori_resolvents with its premises prepared from scratch for this
    one pair: c2 renamed apart from c1, the eligible atoms of c1 and of the
    renamed copy tested here, and a fresh table of unifiers."""
    c2r = rename_apart(c2, vars_of(c1))
    return a_priori_resolvents(
        c1, eligible_atoms(ordering, c1)[1], c2r, eligible_atoms(ordering, c2r)[0], {}
    )


def unifying_pair(ordering: Ordering, inf: Inference) -> tuple[Atom, Atom] | None:
    """A pair (a, a') of inf's premise atoms that the a priori rule may act
    on, whose mgu α takes each premise p to its premise instance,
    substitute(α, p), and a to the resolved atom; None if there is none.
    For a resolution a is an eligible succedent atom of the first premise
    and a' an eligible antecedent atom of the second; for a factor a is an
    eligible succedent atom and a' another succedent atom."""
    if inf.kind == RESOLUTION:
        c1, c2 = inf.premises
        pairs = itertools.product(eligible_atoms(ordering, c1)[1], eligible_atoms(ordering, c2)[0])
    else:
        (c,) = inf.premises
        pairs = [(a, b) for a in eligible_atoms(ordering, c)[1] for b in c.succedent if b is not a]
    for a, ap in pairs:
        alpha = mgu(a, ap)
        if (
            alpha is not None
            and substitute(alpha, a) is inf.resolved_atom
            and inf.premise_instances == tuple(substitute(alpha, p) for p in inf.premises)
        ):
            return a, ap
    return None


class _NoOrdering(Ordering):
    """Every atom is maximal, so the a priori rule resolves every pair."""

    def is_maximal(self, a: Atom, others) -> bool:
        return True


def plain_resolvents(c1: Clause, c2: Clause) -> list[Inference]:
    """Standard resolution, no ordering conditions."""
    return ref_a_priori_resolvents(_NoOrdering(), c1, c2)


def inference_redundant(clauses, rules: RewriteSystem, inf: Inference) -> bool:
    """Full redundancy test: a redundant premise, or a locally provable conclusion."""
    clauses = list(clauses)
    if any(clause_redundant(clauses, rules, p) for p in inf.premises):
        return True
    return clause_redundant(clauses, rules, inf.conclusion)


def r_less(system: RewriteSystem, a: Atom, b: Atom) -> bool:
    """Derived finite-complexity order: a below b iff a reachable from b, a != b."""
    if not a.ground or not b.ground:
        raise ValueError("r_less requires ground atoms")
    return a != b and a in reach(system, b)


# ---------------------------------------------------------------------------
# Clause matching for tests: the variant check, built on satloc's one
# matcher, and its references, plain backtracking over the pattern atoms in
# clause order and variants as mutual variable-for-variable instances; the
# differential oracles of the single matcher behind subsumes, variant_equal
# and enumerate_local_instances (whose own oracle is below).  Exponential in
# the worst case, so for small clauses only.

def _renames(sigma: Subst) -> bool:
    """True iff sigma maps variables to distinct variables."""
    values = sigma.values()
    return all(isinstance(t, Var) for t in values) and len(set(values)) == len(sigma)


def variant_equal(c: Clause, d: Clause) -> bool:
    """Equality modulo variable renaming, by satloc's matcher.

    One direction suffices: an embedding of c into d that renames variables
    one-to-one and gives exactly d has an inverse that gives back c.  Such
    an embedding renames within each atom too, so the search is given only
    those matches, each binding v -> w also recorded as (w,) -> v: two
    matches sending different variables to w then disagree and are never
    combined.  The search is looked up on the entailment module, so a test
    can count its embeddings.
    """
    if len(c.antecedent) != len(d.antecedent) or len(c.succedent) != len(d.succedent):
        return False
    if c == d:
        return True
    renamings = [
        (p, vs, ts, [{**m, **{(w,): v for v, w in m.items()}} for m in found if _renames(m)])
        for p, vs, ts, found in entailment._side_goals(c, d)
    ]
    for both_ways in entailment._embeddings(renamings):
        sigma = {v: t for v, t in both_ways.items() if isinstance(v, Var)}
        if _renames(sigma) and substitute(sigma, c) == d:
            return True
    return False


def ref_subsumes(d: Clause, c: Clause) -> bool:
    goals = [(d.antecedent, c.antecedent), (d.succedent, c.succedent)]

    def bt(side: int, i: int, sigma: Subst) -> bool:
        if side == len(goals):
            return True
        pats, targets = goals[side]
        if i == len(pats):
            return bt(side + 1, 0, sigma)
        for target in targets:
            m = match_onto(pats[i], target)
            if m is None or any(sigma.get(v, t) != t for v, t in m.items()):
                continue
            if bt(side, i + 1, {**sigma, **m}):
                return True
        return False

    return bt(0, 0, {})


def ref_variant_equal(c: Clause, d: Clause) -> bool:
    return _maps_by_variables(c, d) and _maps_by_variables(d, c)


def _maps_by_variables(c: Clause, d: Clause) -> bool:
    """Is there a variable-for-variable substitution with c·sigma == d?"""
    goals = [(c.antecedent, d.antecedent), (c.succedent, d.succedent)]

    def bt(side: int, i: int, rho: Subst) -> bool:
        if side == len(goals):
            return substitute(rho, c) == d
        pats, targets = goals[side]
        if i == len(pats):
            return bt(side + 1, 0, rho)
        for target in targets:
            m = match_onto(pats[i], target)
            if m is None or not all(isinstance(t, Var) for t in m.values()):
                continue
            if any(rho.get(v, t) != t for v, t in m.items()):
                continue
            if bt(side, i + 1, {**rho, **m}):
                return True
        return False

    return bt(0, 0, {})


# ---------------------------------------------------------------------------
# Reference orderings: a direct, unoptimized transcription of the recursive
# definitions, kept separate from the implementation under test.

def ref_lpo_greater(rank: dict[str, int], s: Term, t: Term) -> bool:
    if isinstance(s, Var):
        return False
    if isinstance(t, Var):
        return s != t and _ref_occurs(t, s)
    case_subterm = any(a == t or ref_lpo_greater(rank, a, t) for a in s.args)
    case_greater_head = rank[s.name] > rank[t.name] and all(
        ref_lpo_greater(rank, s, b) for b in t.args
    )
    case_lex = False
    if s.name == t.name and len(s.args) == len(t.args) and s != t:
        pairs = list(zip(s.args, t.args))
        for i, (a, b) in enumerate(pairs):
            if a == b:
                continue
            case_lex = ref_lpo_greater(rank, a, b) and all(
                ref_lpo_greater(rank, s, b2) for _, b2 in pairs[i + 1 :]
            )
            break
    return case_subterm or case_greater_head or case_lex


def recursive_lpo_greater(ordering: Ordering, s: Term, t: Term) -> bool:
    """The path ordering as satloc once computed it, with one frame per
    nesting level and the subterm case tried before the precedence cases:
    exponential on f^n(a) against f^n(b).  The reference for the iterative
    `Ordering.lpo_greater`, including its answers on one symbol used with
    two arities."""
    if s is t or isinstance(s, Var):
        return False
    if isinstance(t, Var):
        return t in vars_of(s)
    for a in s.args:
        if a is t or recursive_lpo_greater(ordering, a, t):
            return True
    ks = ordering.sym_key(s.name)
    kt = ordering.sym_key(t.name)
    if ks > kt:
        rest = t.args
    elif ks == kt:
        # same symbol: lexicographic on arguments, remainder below s
        for i, (a, b) in enumerate(zip(s.args, t.args)):
            if a is b:
                continue
            if not recursive_lpo_greater(ordering, a, b):
                return False
            rest = t.args[i + 1:]
            break
        else:
            return False
    else:
        return False
    for b in rest:
        if not recursive_lpo_greater(ordering, s, b):
            return False
    return True


def _ref_occurs(v: Var, t: Term) -> bool:
    if isinstance(t, Var):
        return t == v
    return any(_ref_occurs(v, a) for a in t.args)


def ref_atom_greater(rank: dict[str, int], a: Atom, b: Atom) -> bool:
    if a == b or not a.args:
        return False
    return all(any(ref_lpo_greater(rank, t, s) for t in a.args) for s in b.args)


def rank_of(ordering: Ordering) -> dict[str, int]:
    chain = ordering.symbols()
    return {name: len(chain) - i for i, name in enumerate(chain)}


# ---------------------------------------------------------------------------
# Reference unification: the general algorithm, with no shortcut for ground
# input; the reference for mgu, which decides ground pairs by identity.

def ref_mgu(e1, e2) -> Subst | None:
    if isinstance(e1, Atom) != isinstance(e2, Atom):
        raise TypeError("cannot unify an atom with a term")
    if isinstance(e1, Atom):
        if e1.pred != e2.pred or len(e1.args) != len(e2.args):
            return None
        pairs = list(zip(e1.args, e2.args))
    else:
        pairs = [(e1, e2)]
    sigma: Subst = {}
    while pairs:
        s, t = pairs.pop(0)
        s, t = substitute(sigma, s), substitute(sigma, t)
        if s == t:
            continue
        if isinstance(s, Var) and isinstance(t, Var):
            v, u = (s, t) if s.name < t.name else (t, s)
        elif isinstance(s, Var) or isinstance(t, Var):
            v, u = (s, t) if isinstance(s, Var) else (t, s)
            if _ref_occurs(v, u):
                return None
        elif s.name != t.name or len(s.args) != len(t.args):
            return None
        else:
            pairs[0:0] = list(zip(s.args, t.args))
            continue
        sigma = {x: substitute({v: u}, w) for x, w in sigma.items()}
        sigma[v] = u
    return sigma


# Reference matching: pairs taken from the front of a list and the arguments
# of two applications spliced in there; the reference for match_onto, which
# pops its pairs from the end.

def ref_match_onto(pattern, target) -> Subst | None:
    if isinstance(pattern, Atom) != isinstance(target, Atom):
        raise TypeError("cannot unify an atom with a term")
    if isinstance(pattern, Atom):
        if pattern.pred != target.pred or len(pattern.args) != len(target.args):
            return None
        pairs = list(zip(pattern.args, target.args))
    else:
        pairs = [(pattern, target)]
    sigma: Subst = {}
    while pairs:
        p, t = pairs.pop(0)
        if isinstance(p, Var):
            if p in sigma:
                if sigma[p] != t:
                    return None
            else:
                sigma[p] = t
        elif p.ground:
            if p is not t:
                return None
        elif isinstance(t, Fn) and p.name == t.name and len(p.args) == len(t.args):
            pairs[0:0] = list(zip(p.args, t.args))
        else:
            return None
    return sigma


# ---------------------------------------------------------------------------
# Reference syntactic order: the nested key the flat atom_key must agree with.

def ref_term_key(t: Term):
    if isinstance(t, Var):
        return (0, t.name)
    return (1, t.name, tuple(ref_term_key(a) for a in t.args))


def ref_atom_key(a: Atom):
    return (a.pred, tuple(ref_term_key(t) for t in a.args))


# ---------------------------------------------------------------------------
# Reference local-instance enumeration: every clause atom is matched against
# every universe member, the indexed enumeration's differential oracle.

def ref_enumerate_local_instances(clauses, universe) -> set[Clause]:
    for a in universe:
        if not a.ground:
            raise ValueError(f"universe must be ground, got {a}")
    members = sorted(universe, key=atom_key)
    out: set[Clause] = set()
    for d in clauses:
        atoms = sorted(d.atom_set(), key=lambda a: (len(vars_of(a)), atom_key(a)))

        def join(i: int, sigma) -> None:
            if i == len(atoms):
                out.add(substitute(sigma, d))
                return
            pattern = substitute(sigma, atoms[i])
            for target in members:
                m = match_onto(pattern, target)
                if m is not None:
                    join(i + 1, compose(sigma, m))

        join(0, {})
    return out


# ---------------------------------------------------------------------------
# Reference saturation and verification: every clause pair is queued and
# tried in both directions, and forward and backward subsumption scan every
# live clause; the differential oracle of the indexed versions.  Deleted
# clauses keep their positions, and pairs with a deleted premise are
# skipped uncounted, as in saturate.  As there, the limits are checked
# before each inference, and a pair is counted once all its inferences
# have been considered.

def ref_saturate(ordering: Ordering, clauses, limits: Limits = Limits()) -> SaturationState:
    clauses = list(clauses)
    state = SaturationState(ordering)
    stored: list[Clause] = []  # every clause stored, by position
    live: list[int] = []  # positions of the clauses not deleted, in order
    queue: deque[tuple[int, int]] = deque()  # positions (i, j), i <= j

    def add(c: Clause) -> None:
        if any(subsumes(stored[m], c) for m in live):
            return
        deleted = [m for m in live if subsumes(c, stored[m])]
        live[:] = [m for m in live if m not in deleted]
        state.stats.deleted += len(deleted)
        k = len(stored)
        stored.append(c)
        live.append(k)
        queue.extend((i, k) for i in live)
        state.clauses = [stored[m] for m in live]

    def inferences(i, j):
        out = ref_a_priori_resolvents(ordering, stored[i], stored[j])
        if i != j:
            out += ref_a_priori_resolvents(ordering, stored[j], stored[i])
        return out

    for c in clauses:
        add(c)
    state.rules = rules_of(ordering, clauses)
    stats = state.stats
    full = False
    while queue:
        i, j = queue.popleft()
        if i not in live or j not in live:
            continue
        for inf in inferences(i, j):
            if full or (limits.max_steps is not None and stats.inferences_considered >= limits.max_steps):
                state.status = LIMIT_REACHED
                return state
            stats.inferences_considered += 1
            if not is_a_posteriori(ordering, inf):
                state.rules = state.rules | rules_of(ordering, inf.premise_instances)
                stats.non_maximality += 1
            elif any(subsumes(d, inf.conclusion) for d in state.clauses):
                stats.redundant += 1
                stats.redundant_by_subsumption += 1
            elif clause_redundant(state.clauses, state.rules, inf.conclusion):
                stats.redundant += 1
            else:
                stats.discovered += 1
                full = limits.max_clauses is not None and len(live) >= limits.max_clauses
                add(inf.conclusion)
                state.rules = state.rules | rules_of(ordering, [inf.conclusion])
        stats.items_processed += 1
    state.status = SATURATED
    return state


def ref_verify_saturated(ordering: Ordering, clauses, rules) -> VerifyReport:
    """verify_saturated by brute force: every pair of clauses in the
    all-pairs FIFO order (for each k, each i <= k: i into k, then k into
    i), with the loop's case split: an inference failing the a posteriori
    conditions needs its harvested rules (condition 3), any other a
    redundant conclusion (condition 1)."""
    clauses = list(clauses)
    rules = rules | rules_of(ordering, clauses)
    report = VerifyReport()
    for k in range(len(clauses)):
        for i in range(k + 1):
            inferences = ref_a_priori_resolvents(ordering, clauses[i], clauses[k])
            if i != k:
                inferences += ref_a_priori_resolvents(ordering, clauses[k], clauses[i])
            for inf in inferences:
                if not is_a_posteriori(ordering, inf):
                    harvested = rules_of(ordering, inf.premise_instances)
                    for rule in sorted(harvested.rules - rules.rules, key=str):
                        report.violations.append(
                            f"condition 3: missing rule {rule} from {inf}"
                        )
                elif not clause_redundant(clauses, rules, inf.conclusion):
                    report.violations.append(f"condition 1: not redundant: {inf}")
    return report


# ---------------------------------------------------------------------------
# Truth-table satisfiability and the counter-based DPLL, the references for
# the DPLL check.

def ref_dpll(cnf) -> dict[int, bool] | None:
    """Counter-based DPLL, the reference for satloc.entailment._dpll: the
    same search (unit propagation, lowest-variable branching with false
    first, chronological backtracking), with counts of free and true
    literals per clause kept in step with every assignment."""
    clauses = [tuple(sorted(lits, key=lambda l: (abs(l), l))) for lits in cnf]
    occurs: dict[int, list[tuple[int, bool]]] = {}
    for i, lits in enumerate(clauses):
        for lit in lits:
            occurs.setdefault(abs(lit), []).append((i, lit > 0))
    n_free = [len(lits) for lits in clauses]
    n_sat = [0] * len(clauses)
    open_clauses = set(range(len(clauses)))  # sat count still zero
    assignment: dict[int, bool] = {}
    trail: list[int] = []
    decisions: list[tuple[int, int, bool]] = []  # (trail mark, var, tried True)

    def assign(var: int, value: bool) -> None:
        assignment[var] = value
        trail.append(var)
        for i, positive in occurs.get(var, ()):
            n_free[i] -= 1
            if positive == value:
                n_sat[i] += 1
                if n_sat[i] == 1:
                    open_clauses.discard(i)

    def unassign(var: int) -> None:
        value = assignment.pop(var)
        for i, positive in occurs.get(var, ()):
            n_free[i] += 1
            if positive == value:
                n_sat[i] -= 1
                if n_sat[i] == 0:
                    open_clauses.add(i)

    def free_literal(i: int) -> int:
        for lit in clauses[i]:
            if abs(lit) not in assignment:
                return lit
        raise AssertionError("no free literal in a unit clause")

    def propagate(queue: list[int]) -> bool:
        qi = 0
        while qi < len(queue):
            var = queue[qi]
            qi += 1
            for i, _ in occurs.get(var, ()):
                if n_sat[i] > 0:
                    continue
                if n_free[i] == 0:
                    return False
                if n_free[i] == 1:
                    lit = free_literal(i)
                    assign(abs(lit), lit > 0)
                    queue.append(abs(lit))
        return True

    queue: list[int] = []
    for i, lits in enumerate(clauses):
        if n_sat[i] > 0 or n_free[i] > 1:
            continue
        if n_free[i] == 0:
            return None
        lit = free_literal(i)
        if abs(lit) not in assignment:
            assign(abs(lit), lit > 0)
            queue.append(abs(lit))
    ok = propagate(queue)
    while True:
        if not ok:
            # undo exhausted decisions, then flip the newest untried one
            while decisions and decisions[-1][2]:
                mark, _, _ = decisions.pop()
                while len(trail) > mark:
                    unassign(trail.pop())
            if not decisions:
                return None
            mark, var, _ = decisions[-1]
            while len(trail) > mark:
                unassign(trail.pop())
            decisions[-1] = (mark, var, True)
            assign(var, True)
            ok = propagate([var])
            continue
        # at a propagation fixpoint; branch on the lowest variable still open
        branch = None
        for i in open_clauses:
            for lit in clauses[i]:
                var = abs(lit)
                if var not in assignment and (branch is None or var < branch):
                    branch = var
        if branch is None:
            return dict(assignment)
        decisions.append((len(trail), branch, False))
        assign(branch, False)
        ok = propagate([branch])


def truth_table_satisfiable(clauses) -> bool:
    atoms = sorted({a for c in clauses for a in c.atom_set()}, key=str)
    assert len(atoms) <= 16, "truth table reference capped at 16 atoms"
    for bits in itertools.product([False, True], repeat=len(atoms)):
        model = dict(zip(atoms, bits))
        if all(_clause_true(c, model) for c in clauses):
            return True
    return False


def _clause_true(c: Clause, model: dict[Atom, bool]) -> bool:
    return any(not model[a] for a in c.antecedent) or any(
        model[b] for b in c.succedent
    )


# ---------------------------------------------------------------------------
# Random generators over a small fixed signature.

SIG_FUNCS = [("f", 1), ("h", 1), ("g", 2)]
SIG_CONSTS = ["a", "b", "c"]
SIG_PREDS = [("p", 1), ("q", 2), ("r", 1), ("s", 0)]
SIG_VARS = ["X", "Y", "Z"]


def sig_ordering(rng: random.Random | None = None) -> Ordering:
    names = [n for n, _ in SIG_FUNCS] + SIG_CONSTS
    if rng is not None:
        rng.shuffle(names)
    return Ordering(names)


def rand_term(rng: random.Random, depth: int, allow_vars: bool = True) -> Term:
    if depth <= 0 or rng.random() < 0.35:
        if allow_vars and rng.random() < 0.5:
            return Var(rng.choice(SIG_VARS))
        return Fn(rng.choice(SIG_CONSTS))
    name, arity = rng.choice(SIG_FUNCS)
    return Fn(name, tuple(rand_term(rng, depth - 1, allow_vars) for _ in range(arity)))


def rand_ground_term(rng: random.Random, depth: int) -> Term:
    return rand_term(rng, depth, allow_vars=False)


def rand_atom(rng: random.Random, depth: int = 2, allow_vars: bool = True) -> Atom:
    name, arity = rng.choice(SIG_PREDS)
    return Atom(name, tuple(rand_term(rng, depth, allow_vars) for _ in range(arity)))


def rand_ground_atom(rng: random.Random, depth: int = 2) -> Atom:
    return rand_atom(rng, depth, allow_vars=False)


def rand_clause(rng: random.Random, max_side: int = 2, depth: int = 2) -> Clause:
    n_ant = rng.randint(0, max_side)
    n_suc = rng.randint(0 if n_ant else 1, max_side)
    return Clause(
        [rand_atom(rng, depth) for _ in range(n_ant)],
        [rand_atom(rng, depth) for _ in range(n_suc)],
    )


def rand_ground_clause(rng: random.Random, max_side: int = 2, depth: int = 2) -> Clause:
    n_ant = rng.randint(0, max_side)
    n_suc = rng.randint(0 if n_ant else 1, max_side)
    return Clause(
        [rand_ground_atom(rng, depth) for _ in range(n_ant)],
        [rand_ground_atom(rng, depth) for _ in range(n_suc)],
    )


def rand_grounding(rng: random.Random, variables, depth: int = 1):
    return {v: rand_ground_term(rng, depth) for v in variables}


def ground_terms_up_to(depth: int, funcs=None, consts=None) -> list[Term]:
    """Every ground term of height <= depth over the given symbols."""
    funcs = SIG_FUNCS if funcs is None else funcs
    consts = SIG_CONSTS if consts is None else consts
    terms: set[Term] = {Fn(c) for c in consts}
    for _ in range(depth):
        layer = set(terms)
        for name, arity in funcs:
            for args in itertools.product(terms, repeat=arity):
                layer.add(Fn(name, args))
        terms = layer
    return sorted(terms, key=str)
