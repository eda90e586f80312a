"""Numerical verification of Rolle's theorem and the Mean Value Theorem.

Parse a function of x, check continuity/differentiability on an interval,
and locate a point c where f'(c) equals the secant slope::

    from mvtcheck import Interval, parse, verify_mvt

    result = verify_mvt(parse("sin(x)"), Interval(0.0, 1.5707963267948966))
"""

from .expr import DomainError, SourceError, evaluate, format_expr, parse
from .numeric import Interval
from .calculus import differentiate
from .theorem import (
    Applicable,
    Config,
    Method,
    MvtResult,
    NotApplicable,
    Reason,
    Unknown,
    secant_slope,
    verify_mvt,
    verify_rolle,
)

__version__ = "0.1.0"

__all__ = [
    "Applicable",
    "Config",
    "DomainError",
    "Interval",
    "Method",
    "MvtResult",
    "NotApplicable",
    "Reason",
    "SourceError",
    "Unknown",
    "differentiate",
    "evaluate",
    "format_expr",
    "parse",
    "secant_slope",
    "verify_mvt",
    "verify_rolle",
]
