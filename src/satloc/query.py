"""Entailment queries against a saturated state.

For a saturated state, a ground clause is entailed iff it has a local proof
inside the reach set of its own atoms, so each query reduces to one finite
instance enumeration plus one propositional check.  A clause with variables
is read universally: it is entailed iff its frozen instance is, the one that
binds each variable to a constant that no clause mentions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .entailment import LocalCertificate, decide_local
from .rewriting import reach_clause
from .saturation import SATURATED, SaturationState
from .terms import Clause, freeze

ENTAILED = "entailed"
NOT_ENTAILED = "not-entailed"
LOCALLY_NOT_PROVABLE = "locally-not-provable"


class NotSaturatedError(Exception):
    """Raised for queries against a state without the saturation guarantee."""


@dataclass
class QueryResult:
    verdict: str
    certificate: LocalCertificate | None
    universe_size: int


def entails(state: SaturationState, goal: Clause, allow_unsaturated: bool = False) -> QueryResult:
    """Decide whether the state's clause set entails a clause.

    The goal's variables are frozen to the constants #1, #2, ... in order of
    first occurrence (`terms.freeze`), as the loop's redundancy test does, so
    they appear in the certificate.  Unsaturated states are refused unless
    allow_unsaturated is set, in which case a negative answer is reported as
    "locally-not-provable" (a positive answer is still sound).
    """
    if state.status != SATURATED and not allow_unsaturated:
        raise NotSaturatedError(
            f"state has status '{state.status}'; only saturated states decide entailment"
        )
    goal, _ = freeze(goal)
    universe = reach_clause(state.rules, goal)
    certificate = decide_local(state.clauses, universe, goal)
    if certificate is not None:
        verdict = ENTAILED
    elif state.status == SATURATED:
        verdict = NOT_ENTAILED
    else:
        verdict = LOCALLY_NOT_PROVABLE
    return QueryResult(
        verdict=verdict,
        certificate=certificate,
        universe_size=len(universe),
    )
