"""Command line front end: saturate, query, verify, oracle.

Exit codes: 0 success / saturated / verified, 2 limit reached or refused
unsaturated query, 3 input errors (usage, a negative limit included, parse,
arity), 4 verification violations.  A query clause may have variables: they
are read universally and frozen to #1, #2, ... in order of first occurrence.
No part of satloc recurses on term depth or clause size, so deep or wide
input needs no exit code of its own.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .oracle import HerbrandBound, DEFAULT_BUDGET, oracle_entails
from .parsing import (
    ParseError,
    parse_clause_text,
    parse_problem,
    parse_state,
    serialize_certificate,
    serialize_state,
)
from .query import NotSaturatedError, entails
from .saturation import SATURATED, Limits, saturate, verify_saturated
from .terms import ArityError, Signature


class _Parser(argparse.ArgumentParser):
    def _parse_optional(self, arg_string):
        # A clause with an empty antecedent, such as "->p(a)", is an
        # argument: no option starts with "->".  argparse takes only those
        # with a space, such as "-> p(a)", for arguments.
        if arg_string.startswith("->"):
            return None
        return super()._parse_optional(arg_string)


def _limit(text: str) -> int:
    """A limit option's value: an integer, 0 or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="satloc",
        description="Saturate first-order clause sets and decide clause entailment locally.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sat = sub.add_parser("saturate", help="saturate a problem file")
    p_sat.add_argument("file", help="problem file")
    p_sat.add_argument(
        "--max-clauses", type=_limit, metavar="N",
        help="stop before the next inference once a conclusion is stored while N or more"
        " clauses are live",
    )
    p_sat.add_argument("--max-steps", type=_limit, metavar="N", help="consider at most N inferences")
    p_sat.add_argument("--out", default=None, help="write the state here instead of stdout")

    p_query = sub.add_parser("query", help="decide clause entailment against a state")
    p_query.add_argument("state", help="saturated-state file")
    p_query.add_argument("clauses", nargs="*", help='clauses such as "q(f(a),a) ->" or "p(X) ->"')
    p_query.add_argument("--from", dest="from_file", default=None, help="read query: lines from a file")
    p_query.add_argument("--certificate", action="store_true", help="print the local certificate")
    p_query.add_argument(
        "--unsound-ok",
        action="store_true",
        help="run the local check against an unsaturated state anyway",
    )
    p_query.set_defaults(parser=p_query)

    p_verify = sub.add_parser("verify", help="re-check saturatedness of a state")
    p_verify.add_argument("state", help="saturated-state file")

    p_oracle = sub.add_parser("oracle", help="bounded brute-force entailment check")
    p_oracle.add_argument("file", help="problem file")
    p_oracle.add_argument("clause", help="clause to test")
    p_oracle.add_argument("--depth", type=_limit, required=True, help="max term height")
    p_oracle.add_argument("--budget", type=_limit, default=DEFAULT_BUDGET)
    return parser


def _read(path: str, parse):
    """The parse of a file's text; a parse error names the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (ParseError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_saturate(args) -> int:
    problem = _read(args.file, parse_problem)
    limits = Limits(max_clauses=args.max_clauses, max_steps=args.max_steps)
    state = saturate(problem.ordering, problem.clauses, limits)
    text = serialize_state(state)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    print(
        f"{state.status}: {len(state.clauses)} clauses, {len(state.rules)} rules, "
        f"{state.stats.summary()}",
        file=sys.stderr,
    )
    return 0 if state.status == SATURATED else 2


def _cmd_query(args) -> int:
    state = _read(args.state, parse_state)
    sig = state_signature(state)
    goals = []
    for text in args.clauses:
        goals.append(parse_clause_text(text, sig))
    if args.from_file:
        problem = _read(args.from_file, parse_problem)
        for goal in problem.queries:
            try:
                sig.scan_clause(goal)
            except ArityError as exc:
                raise ValueError(f"{args.from_file}: query {goal}: {exc}") from None
        goals.extend(problem.queries)
    for goal in goals:
        result = entails(state, goal, allow_unsaturated=args.unsound_ok)
        print(result.verdict)
        if args.certificate and result.certificate is not None:
            sys.stdout.write(serialize_certificate(result.certificate))
    return 0


def state_signature(state) -> Signature:
    sig = Signature.scan(state.clauses)
    for rule in state.rules.sorted_rules():
        sig.scan_atom(rule.lhs)
        sig.scan_atom(rule.rhs)
    return sig


def _cmd_verify(args) -> int:
    state = _read(args.state, parse_state)
    report = verify_saturated(state.ordering, state.clauses, state.rules)
    if report.ok:
        print("ok")
        return 0
    for violation in report.violations:
        print(violation)
    return 4


def _cmd_oracle(args) -> int:
    problem = _read(args.file, parse_problem)
    goal = parse_clause_text(args.clause, problem.signature)
    result = oracle_entails(
        problem.clauses, goal, HerbrandBound(args.depth), budget=args.budget
    )
    print(result.verdict if result.reason is None else f"{result.verdict} ({result.reason})")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        # argparse fills query's clause list, empty if need be, at its first
        # positional argument, so clauses after an option are left over
        args, rest = parser.parse_known_args(argv)
        if args.command == "query":
            args.clauses += [a for a in rest if not parser._parse_optional(a)]
            rest = [a for a in rest if parser._parse_optional(a)]
        if rest:
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
        if args.command == "query" and not (args.clauses or args.from_file):
            args.parser.error("give a query clause or --from FROM_FILE")
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        return 3  # a usage error, which argparse has printed
    handlers = {
        "saturate": _cmd_saturate,
        "query": _cmd_query,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except NotSaturatedError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
