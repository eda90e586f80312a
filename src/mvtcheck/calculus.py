"""Symbolic differentiation, constant folding, and structural smoothness
(continuity/differentiability) analysis of expression trees over an
interval."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .expr import (
    Binary,
    Call,
    Constant,
    DomainError,
    Expr,
    Neg,
    Variable,
    compile_evaluator,
    evaluate,
)
from .numeric import Bracket, Interval, MaxIterationsExceeded, bisect, sample

if TYPE_CHECKING:
    from .theorem import Config

__all__ = [
    "Verdict",
    "WitnessKind",
    "Witness",
    "SmoothnessReport",
    "differentiate",
    "simplify",
    "analyze_smoothness",
]

# bisection width for pinning down hazard points
_WITNESS_EPS = 1e-12
# a hazard whose inner expression gets this close to zero (relative to its
# largest magnitude) without a confirmed crossing is suspected of a
# tangential touch
_SUSPICION_RATIO = 1e-4


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class WitnessKind(Enum):
    POLE = "pole"
    LOG_OR_ROOT_BOUNDARY = "log_or_root_boundary"
    ABS_KINK = "abs_kink"
    POWER_BOUNDARY = "power_boundary"


@dataclass(frozen=True, slots=True)
class Witness:
    point: float
    kind: WitnessKind


@dataclass(frozen=True, slots=True)
class SmoothnessReport:
    continuous_on_closed: Verdict
    differentiable_on_open: Verdict
    witnesses: tuple[Witness, ...]


# --- differentiation --------------------------------------------------------


def differentiate(e: Expr) -> Expr:
    """Symbolic derivative of ``e`` with respect to x, constant-folded.

    Standard sum/product/quotient/chain rules; abs is differentiated as
    abs(u)' = u'*u/abs(u), whose evaluation raises DomainError exactly at
    kink points.  The input is folded first so negated literal exponents
    (x^-2) reach the constant-power rule instead of the ln-based general
    rule.
    """
    return simplify(_derivative(simplify(e)))


def _derivative(e: Expr) -> Expr:
    if isinstance(e, Constant):
        return Constant(0.0)
    if isinstance(e, Variable):
        return Constant(1.0)
    if isinstance(e, Neg):
        return Neg(_derivative(e.child))
    if isinstance(e, Binary):
        u, v = e.left, e.right
        if e.op == "+":
            return Binary("+", _derivative(u), _derivative(v))
        if e.op == "-":
            return Binary("-", _derivative(u), _derivative(v))
        if e.op == "*":
            return Binary("+", Binary("*", _derivative(u), v), Binary("*", u, _derivative(v)))
        if e.op == "/":
            num = Binary("-", Binary("*", _derivative(u), v), Binary("*", u, _derivative(v)))
            return Binary("/", num, Binary("^", v, Constant(2.0)))
        # power: constant exponent uses the power rule so d(x^2) stays
        # defined on all of R; the general case goes through ln
        if isinstance(v, Constant):
            power = Binary("^", u, Constant(v.value - 1.0))
            return Binary("*", Binary("*", v, power), _derivative(u))
        if isinstance(u, Constant):
            return Binary("*", Binary("*", e, Call("ln", u)), _derivative(v))
        inner = Binary(
            "+",
            Binary("*", _derivative(v), Call("ln", u)),
            Binary("/", Binary("*", v, _derivative(u)), u),
        )
        return Binary("*", e, inner)
    if isinstance(e, Call):
        u = e.argument
        du = _derivative(u)
        fn = e.fn
        if fn == "sin":
            return Binary("*", Call("cos", u), du)
        if fn == "cos":
            return Binary("*", Neg(Call("sin", u)), du)
        if fn == "tan":
            return Binary("/", du, Binary("^", Call("cos", u), Constant(2.0)))
        if fn == "exp":
            return Binary("*", e, du)
        if fn == "ln":
            return Binary("/", du, u)
        if fn == "sqrt":
            return Binary("/", du, Binary("*", Constant(2.0), e))
        # abs
        return Binary("/", Binary("*", du, u), e)
    raise TypeError(f"not an expression: {e!r}")


def simplify(e: Expr) -> Expr:
    """Constant folding plus the safe identities 0+u, u*1, u*0, u^1.

    Pointwise equal to the input wherever the input is defined (identity
    rules are exact, folding is single-rounding); no deeper rewriting.
    """
    if isinstance(e, Neg):
        child = simplify(e.child)
        if isinstance(child, Constant):
            return Constant(-child.value)
        return Neg(child)
    if isinstance(e, Binary):
        left = simplify(e.left)
        right = simplify(e.right)
        op = e.op
        if isinstance(left, Constant) and isinstance(right, Constant):
            folded = _fold(Binary(op, left, right))
            if folded is not None:
                return folded
        if op == "+":
            if _is_zero(left):
                return right
            if _is_zero(right):
                return left
        elif op == "*":
            if _is_zero(left) or _is_zero(right):
                return Constant(0.0)
            if _is_one(left):
                return right
            if _is_one(right):
                return left
        elif op == "^":
            if _is_one(right):
                return left
        return Binary(op, left, right)
    if isinstance(e, Call):
        arg = simplify(e.argument)
        if isinstance(arg, Constant):
            folded = _fold(Call(e.fn, arg))
            if folded is not None:
                return folded
        return Call(e.fn, arg)
    return e


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Constant) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Constant) and e.value == 1.0


def _fold(node: Expr) -> Constant | None:
    # a node over constants only: evaluate it exactly as at run time, and
    # leave it unfolded where evaluation fails (1/0, ln(0), overflow)
    try:
        return Constant(evaluate(node, 0.0))
    except DomainError:
        return None


# --- smoothness analysis ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Hazard:
    inner: Expr  # zeros of this expression mark the trouble spots
    kind: WitnessKind
    zero_undefined: bool  # f is undefined where inner == 0 (poles, ln, powers)


def _literal_value(e: Expr) -> float | None:
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Neg) and isinstance(e.child, Constant):
        return -e.child.value
    return None


def _collect_hazards(e: Expr) -> list[_Hazard]:
    out: list[_Hazard] = []

    def walk(node: Expr) -> None:
        if isinstance(node, Neg):
            walk(node.child)
        elif isinstance(node, Binary):
            walk(node.left)
            walk(node.right)
            if node.op == "/":
                out.append(_Hazard(node.right, WitnessKind.POLE, True))
            elif node.op == "^":
                exponent = _literal_value(node.right)
                if exponent is not None and abs(exponent) <= 64.0 and exponent.is_integer():
                    if exponent < 0.0:
                        # reciprocal of an integer power: base zero is a pole
                        out.append(_Hazard(node.left, WitnessKind.POLE, True))
                else:
                    out.append(_Hazard(node.left, WitnessKind.POWER_BOUNDARY, True))
        elif isinstance(node, Call):
            walk(node.argument)
            if node.fn == "ln":
                out.append(_Hazard(node.argument, WitnessKind.LOG_OR_ROOT_BOUNDARY, True))
            elif node.fn == "sqrt":
                out.append(_Hazard(node.argument, WitnessKind.LOG_OR_ROOT_BOUNDARY, False))
            elif node.fn == "abs":
                out.append(_Hazard(node.argument, WitnessKind.ABS_KINK, False))
            elif node.fn == "tan":
                # tan blows up where cos of its argument vanishes
                out.append(_Hazard(Call("cos", node.argument), WitnessKind.POLE, True))

    walk(e)
    return out


def _scan_zeros(
    inner: Expr, iv: Interval, n: int
) -> tuple[list[float], list[float], bool]:
    """Locate zeros of ``inner`` on ``iv``: (crossings, touches, suspected).

    Crossings are strict sign changes refined by bisection (plus exact-zero
    samples whose neighbours have strictly opposite signs); touches are
    exact-zero samples without a sign change; ``suspected`` flags a
    near-zero minimum that could hide a tangential touch.
    """
    g = compile_evaluator(inner)
    pts = sample(g, iv, n)
    crossings: list[float] = []
    touches: list[float] = []

    for idx, p in enumerate(pts):
        if p.error is not None or p.value != 0.0:
            continue
        prev_v = pts[idx - 1].value if idx > 0 and pts[idx - 1].error is None else None
        next_v = (
            pts[idx + 1].value
            if idx + 1 < len(pts) and pts[idx + 1].error is None
            else None
        )
        if (
            prev_v is not None
            and next_v is not None
            and ((prev_v < 0.0 < next_v) or (next_v < 0.0 < prev_v))
        ):
            crossings.append(p.x)
        else:
            touches.append(p.x)

    for p, q in zip(pts, pts[1:]):
        if p.error is not None or q.error is not None:
            continue
        if p.value == 0.0 or q.value == 0.0:
            continue  # exact zeros handled above
        if (p.value < 0.0) != (q.value < 0.0):
            br = Bracket(p.x, q.x, p.value, q.value)
            try:
                root, _ = bisect(g, br, _WITNESS_EPS)
            except (DomainError, MaxIterationsExceeded):
                # the sign change itself is confirmed; settle for the midpoint
                root = 0.5 * (p.x + q.x)
            crossings.append(root)

    suspected = False
    if not crossings and not touches:
        valid = [abs(p.value) for p in pts if p.error is None]
        if not valid:
            suspected = True
        elif min(valid) <= _SUSPICION_RATIO * max(1.0, max(valid)):
            suspected = True
    return crossings, touches, suspected


def _downgrade(v: Verdict) -> Verdict:
    return Verdict.UNKNOWN if v is Verdict.YES else v


def _kind_for_reason(reason: str) -> WitnessKind:
    if "division" in reason:
        return WitnessKind.POLE
    if "ln" in reason or "root" in reason:
        return WitnessKind.LOG_OR_ROOT_BOUNDARY
    if "power" in reason:
        return WitnessKind.POWER_BOUNDARY
    return WitnessKind.POLE


def analyze_smoothness(e: Expr, iv: Interval, cfg: Config) -> SmoothnessReport:
    """Classify continuity of ``e`` on [a,b] and differentiability on (a,b).

    Walks the tree for hazard subexpressions (divisors, ln/sqrt arguments,
    abs arguments, non-integer-power bases, tan arguments) and confirms
    their zeros numerically on a cfg.samples grid with bisection
    refinement.  Verdicts are three-valued: hazards that cannot be
    confirmed or ruled out at sample resolution yield UNKNOWN rather than
    a guess.  A function that fails to evaluate at more than half of the
    sample points is reported as not continuous at the first failing
    point.
    """
    n = cfg.samples
    pts = sample(compile_evaluator(e), iv, n)
    failures = [p for p in pts if p.error is not None]
    if len(failures) > n // 2:
        first = failures[0]
        witnesses = [Witness(first.x, _kind_for_reason(first.error.reason))]
        interior = next((p for p in failures if iv.contains_open(p.x)), None)
        if interior is None:
            differentiable = Verdict.UNKNOWN
        else:
            differentiable = Verdict.NO
            if interior.x != first.x:
                witnesses.append(Witness(interior.x, _kind_for_reason(interior.error.reason)))
        return SmoothnessReport(Verdict.NO, differentiable, tuple(witnesses))

    continuous = Verdict.YES
    differentiable = Verdict.YES
    witnesses: list[Witness] = []

    for hazard in _collect_hazards(e):
        crossings, touches, suspected = _scan_zeros(hazard.inner, iv, n)

        if hazard.kind is WitnessKind.ABS_KINK:
            # only a confirmed sign change of the argument is a kink:
            # abs(u) with u touching zero from one side is just +-u locally
            for w in crossings:
                if iv.contains_open(w):
                    differentiable = Verdict.NO
                    witnesses.append(Witness(w, hazard.kind))
            continue

        confirmed = list(crossings)
        if hazard.zero_undefined:
            confirmed.extend(touches)
        for w in confirmed:
            continuous = Verdict.NO
            witnesses.append(Witness(w, hazard.kind))
            if iv.contains_open(w):
                differentiable = Verdict.NO
        if not hazard.zero_undefined:
            # sqrt: the function is defined at a touch, but its derivative
            # may blow up there (sqrt(x^2) vs sqrt(x^4))
            for w in touches:
                if iv.contains_open(w):
                    differentiable = _downgrade(differentiable)
        if suspected:
            continuous = _downgrade(continuous)
            differentiable = _downgrade(differentiable)

    unique = sorted(set(witnesses), key=lambda w: (w.point, w.kind.value))
    return SmoothnessReport(continuous, differentiable, tuple(unique))
