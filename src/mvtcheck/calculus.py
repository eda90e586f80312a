"""Symbolic differentiation, constant folding, and structural smoothness
(continuity/differentiability) analysis of expression trees over an
interval."""

from __future__ import annotations

import functools
from enum import Enum
from typing import Callable

from .expr import (
    Binary,
    Call,
    Constant,
    DomainError,
    DomainErrorKind,
    Expr,
    Neg,
    Record,
    Variable,
    compile_evaluator,
    compile_outputs,
    enclose,
    evaluate,
    integer_exponent,
    postorder,
)
from .numeric import Bracket, Evaluator, Interval, bisect, midpoint, sample

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


class Witness(Record):
    __slots__ = ("point", "kind")

    def __init__(self, point: float, kind: WitnessKind):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "kind", kind)


class SmoothnessReport(Record):
    __slots__ = ("continuous_on_closed", "differentiable_on_open", "witnesses")

    def __init__(
        self,
        continuous_on_closed: Verdict,
        differentiable_on_open: Verdict,
        witnesses: tuple[Witness, ...],
    ):
        object.__setattr__(self, "continuous_on_closed", continuous_on_closed)
        object.__setattr__(self, "differentiable_on_open", differentiable_on_open)
        object.__setattr__(self, "witnesses", witnesses)


# --- differentiation --------------------------------------------------------


def differentiate(e: Expr) -> Expr:
    """Symbolic derivative of ``e`` with respect to x, constant-folded.

    Standard sum/product/quotient/chain rules; abs is differentiated as
    abs(u)' = u'*u/abs(u), whose evaluation raises DomainError exactly at
    kink points.  The input is folded first so negated literal exponents
    (x^-2) reach the constant-power rule instead of the ln-based general
    rule.  Every node of the derivative is built through the same fold
    rules as :func:`simplify`, so the result is already simplified.
    """
    return _derivative(simplify(e))


def _derivative(e: Expr) -> Expr:
    if isinstance(e, Constant):
        return Constant(0.0)
    if isinstance(e, Variable):
        return Constant(1.0)
    if isinstance(e, Neg):
        return _neg(_derivative(e.child))
    if isinstance(e, Binary):
        u, v = e.left, e.right
        if e.op == "+":
            return _binary("+", _derivative(u), _derivative(v))
        if e.op == "-":
            return _binary("-", _derivative(u), _derivative(v))
        if e.op == "*":
            return _binary("+", _binary("*", _derivative(u), v), _binary("*", u, _derivative(v)))
        if e.op == "/":
            num = _binary("-", _binary("*", _derivative(u), v), _binary("*", u, _derivative(v)))
            return _binary("/", num, _binary("^", v, Constant(2.0)))
        # power: constant exponent uses the power rule so d(x^2) stays
        # defined on all of R; the general case goes through ln
        if isinstance(v, Constant):
            power = _binary("^", u, Constant(v.value - 1.0))
            return _binary("*", _binary("*", v, power), _derivative(u))
        if isinstance(u, Constant):
            return _binary("*", _binary("*", e, _call("ln", u)), _derivative(v))
        inner = _binary(
            "+",
            _binary("*", _derivative(v), _call("ln", u)),
            _binary("/", _binary("*", v, _derivative(u)), u),
        )
        return _binary("*", e, inner)
    if isinstance(e, Call):
        u = e.argument
        du = _derivative(u)
        fn = e.fn
        if fn == "sin":
            return _binary("*", _call("cos", u), du)
        if fn == "cos":
            return _binary("*", _neg(_call("sin", u)), du)
        if fn == "tan":
            return _binary("/", du, _binary("^", _call("cos", u), Constant(2.0)))
        if fn == "exp":
            return _binary("*", e, du)
        if fn == "ln":
            return _binary("/", du, u)
        if fn == "sqrt":
            return _binary("/", du, _binary("*", Constant(2.0), e))
        # abs
        return _binary("/", _binary("*", du, u), e)
    raise TypeError(f"not an expression: {e!r}")


def simplify(e: Expr) -> Expr:
    """Constant folding plus the safe identities 0+u, u*1, u*0, u^1.

    Pointwise equal to the input wherever the input is defined (identity
    rules are exact, folding is single-rounding); no deeper rewriting.
    """
    if isinstance(e, Neg):
        return _neg(simplify(e.child))
    if isinstance(e, Binary):
        return _binary(e.op, simplify(e.left), simplify(e.right))
    if isinstance(e, Call):
        return _call(e.fn, simplify(e.argument))
    return e


# node builders for simplify and _derivative: each folds one node whose
# operands are already simplified, so a tree built bottom-up is simplified


def _neg(child: Expr) -> Expr:
    if isinstance(child, Constant):
        return Constant(-child.value)
    return Neg(child)


def _binary(op: str, left: Expr, right: Expr) -> Expr:
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


def _call(fn: str, arg: Expr) -> Expr:
    if isinstance(arg, Constant):
        folded = _fold(Call(fn, arg))
        if folded is not None:
            return folded
    return Call(fn, arg)


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


class _Hazard(Record):
    __slots__ = ("inner", "kind", "zero_undefined")

    def __init__(self, inner: Expr, kind: WitnessKind, zero_undefined: bool):
        # zeros of inner mark the trouble spots
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "kind", kind)
        # f is undefined where inner == 0 (poles, ln, powers)
        object.__setattr__(self, "zero_undefined", zero_undefined)


def _literal_value(e: Expr) -> float | None:
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Neg) and isinstance(e.child, Constant):
        return -e.child.value
    return None


def _collect_hazards(e: Expr) -> list[_Hazard]:
    out: list[_Hazard] = []
    for node in postorder([e]):
        if isinstance(node, Binary):
            if node.op == "/":
                out.append(_Hazard(node.right, WitnessKind.POLE, True))
            elif node.op == "^":
                exponent = _literal_value(node.right)
                n = None if exponent is None else integer_exponent(exponent)
                if n is not None:
                    if n < 0:
                        # reciprocal of an integer power: base zero is a pole
                        out.append(_Hazard(node.left, WitnessKind.POLE, True))
                else:
                    out.append(_Hazard(node.left, WitnessKind.POWER_BOUNDARY, True))
        elif isinstance(node, Call):
            if node.fn == "ln":
                out.append(_Hazard(node.argument, WitnessKind.LOG_OR_ROOT_BOUNDARY, True))
            elif node.fn == "sqrt":
                out.append(_Hazard(node.argument, WitnessKind.LOG_OR_ROOT_BOUNDARY, False))
            elif node.fn == "abs":
                out.append(_Hazard(node.argument, WitnessKind.ABS_KINK, False))
            elif node.fn == "tan":
                # tan blows up where cos of its argument vanishes
                out.append(_Hazard(Call("cos", node.argument), WitnessKind.POLE, True))
    return out


def _scan_zeros(
    xs: list[float], values: list[float | None], evaluator: Callable[[], Evaluator]
) -> tuple[list[float], list[float], bool]:
    """Locate zeros of a hazard's inner expression: (crossings, touches, suspected).

    ``values`` is the inner expression on the grid ``xs`` (None where it is
    undefined); ``evaluator`` returns it compiled, for bisection.
    Crossings are strict sign changes refined by bisection (plus exact-zero
    samples whose neighbours have strictly opposite signs); touches are
    exact-zero samples without a sign change; ``suspected`` flags a
    near-zero minimum that could hide a tangential touch.
    """
    crossings: list[float] = []
    touches: list[float] = []
    last = len(values) - 1

    if 0.0 in values:
        for idx, v in enumerate(values):
            if v is None or v != 0.0:
                continue
            prev_v = values[idx - 1] if idx > 0 else None
            next_v = values[idx + 1] if idx < last else None
            if (
                prev_v is not None
                and next_v is not None
                and ((prev_v < 0.0 < next_v) or (next_v < 0.0 < prev_v))
            ):
                crossings.append(xs[idx])
            else:
                touches.append(xs[idx])

    for idx in range(last):
        u, v = values[idx], values[idx + 1]
        if u is None or v is None:
            continue
        if u == 0.0 or v == 0.0:
            continue  # exact zeros handled above
        if (u < 0.0) != (v < 0.0):
            br = Bracket(xs[idx], xs[idx + 1], u, v)
            try:
                root, _ = bisect(evaluator(), br, _WITNESS_EPS)
            except DomainError:
                # the sign change itself is confirmed; settle for the midpoint
                root = midpoint(xs[idx], xs[idx + 1])
            crossings.append(root)

    suspected = False
    if not crossings and not touches:
        valid = [abs(v) for v in values if v is not None]
        if not valid:
            suspected = True
        elif min(valid) <= _SUSPICION_RATIO * max(1.0, max(valid)):
            suspected = True
    return crossings, touches, suspected


def _downgrade(v: Verdict) -> Verdict:
    return Verdict.UNKNOWN if v is Verdict.YES else v


def _clear_of_zero(lo: float, hi: float) -> bool:
    """Whether values within [lo, hi] stay so far from 0 that _scan_zeros
    finds no crossing and no touch and suspects none."""
    near, far = (lo, hi) if lo > 0.0 else (-hi, -lo)
    return near > _SUSPICION_RATIO * max(1.0, far)


_WITNESS_KIND = {
    DomainErrorKind.NON_FINITE: WitnessKind.POLE,
    DomainErrorKind.DIVISION_BY_ZERO: WitnessKind.POLE,
    DomainErrorKind.LOG_OF_NON_POSITIVE: WitnessKind.LOG_OR_ROOT_BOUNDARY,
    DomainErrorKind.ROOT_OF_NEGATIVE: WitnessKind.LOG_OR_ROOT_BOUNDARY,
    DomainErrorKind.POWER_OF_NON_POSITIVE: WitnessKind.POWER_BOUNDARY,
}


def analyze_smoothness(e: Expr, iv: Interval, samples: int) -> SmoothnessReport:
    """Classify continuity of ``e`` on [a,b] and differentiability on (a,b).

    Walks the tree for hazard subexpressions (divisors, ln/sqrt arguments,
    abs arguments, non-integer-power bases, tan arguments) and confirms
    their zeros numerically on a grid of ``samples`` points with bisection
    refinement.  One scan evaluates ``e`` and every hazard's inner
    expression together.  Verdicts are three-valued: hazards that cannot be
    confirmed or ruled out at sample resolution yield UNKNOWN rather than
    a guess.  A function that fails to evaluate at a sample point is
    reported as not continuous at the first failing point, unless a
    hazard's witness explains the failures and at most half of the points
    fail.

    The scan is skipped, and the report is YES, YES without witnesses,
    where interval bounds (:func:`~mvtcheck.expr.enclose`) prove that ``e``
    is finite on [a,b] and that every hazard's inner expression stays too
    far from zero for the scan to find or suspect a zero.
    """
    hazards = _collect_hazards(e)
    roots = [e, *(h.inner for h in hazards)]
    bounds = enclose(roots, iv.a, iv.b)
    if bounds is not None and all(_clear_of_zero(*box) for box in bounds[1:]):
        return SmoothnessReport(Verdict.YES, Verdict.YES, ())
    # every hazard's inner expression but tan's cos(u) is a subexpression
    # of e, and cos(u) fails only where tan(u) does: the scan raises exactly
    # where e does, with e's error, and records that row in scan.failures
    scan = sample(compile_outputs(roots), iv, samples)
    xs = scan.xs
    blank = (None,) * len(roots)
    columns = list(zip(*(row or blank for row in scan.values)))
    undefined = [i for i, v in enumerate(columns[0]) if v is None]

    def witness(i: int) -> Witness:
        kind = scan.failures.get(i, DomainErrorKind.NON_FINITE)
        return Witness(xs[i], _WITNESS_KIND[kind])

    def undefined_points(differentiable: Verdict) -> tuple[Verdict, list[Witness]]:
        # e is undefined on the grid: witnesses at the first such point and
        # the first interior one, and differentiability on (a,b) given that
        first = undefined[0]
        found = [witness(first)]
        interior = next((i for i in undefined if iv.contains_open(xs[i])), None)
        if interior is None:
            return _downgrade(differentiable), found
        if xs[interior] != xs[first]:
            found.append(witness(interior))
        return Verdict.NO, found

    if len(undefined) > samples // 2:
        differentiable, witnesses = undefined_points(Verdict.YES)
        return SmoothnessReport(Verdict.NO, differentiable, tuple(witnesses))

    continuous = Verdict.YES
    differentiable = Verdict.YES
    witnesses: list[Witness] = []

    for hazard, column in zip(hazards, columns[1:]):
        # the hazard's own evaluator, compiled on first use
        evaluator = functools.cache(functools.partial(compile_evaluator, hazard.inner))
        values = list(column)
        # where e raised, the scan has no values: evaluate the hazard alone
        for i in scan.failures:
            try:
                values[i] = evaluator()(xs[i])
            except DomainError:
                pass
        crossings, touches, suspected = _scan_zeros(xs, values, evaluator)

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

    if undefined and continuous is not Verdict.NO:
        # e raised where no hazard's zero accounts for it (an overflow, say)
        continuous = Verdict.NO
        differentiable, found = undefined_points(differentiable)
        witnesses += found

    unique = sorted(set(witnesses), key=lambda w: (w.point, w.kind.value))
    return SmoothnessReport(continuous, differentiable, tuple(unique))
