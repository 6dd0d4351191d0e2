"""Sprague-Grundy analysis of Delete Nim, VDN and Nim.

Closed-form Grundy values, a generic memoized mex engine, a streaming
anti-diagonal backend for the two-heap games, the VDN/Delete Nim
isomorphism, and exhaustive verification sweeps that compare the formulas
against brute force on bounded domains.
"""

from .closed_forms import (
    INFINITY,
    bit_or,
    bouton_is_p,
    delete_nim_grundy,
    delete_nim_grundy_grid,
    nim_sum,
    v2,
    vdn_grundy,
    vdn_grundy_grid,
)
from .engine import Outcome, best_move, classify, grundy, grundy_grid, mex
from .errors import BudgetExceededError, DomainError, GameError, ParseError
from .isomorphism import check_isomorphism, delete_to_vdn, vdn_to_delete
from .rulesets import (
    DELETE_NIM,
    NIM,
    RULESETS,
    VDN,
    Ruleset,
    canonical_nim,
    canonical_pair,
    format_position,
    make_sum,
    parse_position,
)
from .verification import (
    CHECK_NAMES,
    DEFAULT_BOUNDS,
    VerificationReport,
    run_all,
    run_check,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "v2",
    "nim_sum",
    "bit_or",
    "bouton_is_p",
    "delete_nim_grundy",
    "vdn_grundy",
    "delete_nim_grundy_grid",
    "vdn_grundy_grid",
    "mex",
    "grundy",
    "grundy_grid",
    "classify",
    "best_move",
    "Outcome",
    "Ruleset",
    "DELETE_NIM",
    "VDN",
    "NIM",
    "RULESETS",
    "make_sum",
    "canonical_pair",
    "canonical_nim",
    "parse_position",
    "format_position",
    "vdn_to_delete",
    "delete_to_vdn",
    "check_isomorphism",
    "VerificationReport",
    "run_check",
    "run_all",
    "CHECK_NAMES",
    "DEFAULT_BOUNDS",
    "GameError",
    "ParseError",
    "DomainError",
    "BudgetExceededError",
    "__version__",
]
