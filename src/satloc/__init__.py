"""satloc: saturation by a priori ordered resolution + local entailment.

Saturates a finite clause set while building an atom rewriting system whose
reachability relation bounds every query to a finite atom universe; clause
entailment against the saturated set is then decided by a propositional
check over that universe, a query's variables frozen to fresh constants.

The package exports the library surface; the building blocks (terms,
orderings, rewriting, resolution, local entailment) are in the submodules.
"""

from .entailment import LocalCertificate
from .oracle import HerbrandBound, OracleResult, oracle_entails
from .orderings import Ordering
from .parsing import (
    ParseError,
    Problem,
    parse_clause_text,
    parse_problem,
    parse_state,
    serialize_certificate,
    serialize_state,
)
from .query import NotSaturatedError, QueryResult, entails
from .rewriting import RewriteSystem
from .saturation import Limits, SaturationState, VerifyReport, saturate, verify_saturated
from .terms import ArityError, Clause, Signature

__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "Clause",
    "HerbrandBound",
    "Limits",
    "LocalCertificate",
    "NotSaturatedError",
    "OracleResult",
    "Ordering",
    "ParseError",
    "Problem",
    "QueryResult",
    "RewriteSystem",
    "SaturationState",
    "Signature",
    "VerifyReport",
    "entails",
    "oracle_entails",
    "parse_clause_text",
    "parse_problem",
    "parse_state",
    "saturate",
    "serialize_certificate",
    "serialize_state",
    "verify_saturated",
]
