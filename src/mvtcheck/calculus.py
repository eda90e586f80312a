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
from .numeric import Bracket, Evaluator, Interval, bisect, grid, midpoint, sample

__all__ = [
    "Verdict",
    "WitnessKind",
    "Witness",
    "SmoothnessReport",
    "differentiate",
    "simplify",
    "analyze_smoothness",
]

# bracket width of the root search that pins down hazard points
_WITNESS_EPS = 1e-12
# a hazard whose inner expression gets this close to zero (relative to its
# largest magnitude) without a confirmed crossing is suspected of a
# tangential touch
_SUSPICION_RATIO = 1e-4
# fewest grid intervals in a cell that interval bounds try to clear: one
# enclose costs about as much as scanning 34 grid points
_MIN_CELL = 32


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

    @property
    def breaks_continuity(self) -> bool:
        """Whether f is undefined at the point: an abs kink leaves f continuous."""
        return self.kind is not WitnessKind.ABS_KINK


class SmoothnessReport(Record):
    """Continuity of f on [a, b] and differentiability on (a, b).

    A verdict is NO exactly when a witness refutes it: continuity by any
    witness that breaks it (every kind but an abs kink), differentiability
    by any witness strictly inside (a, b).  UNKNOWN means that no witness
    refutes it, but a zero could be neither confirmed nor ruled out.
    """

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


def _simplified(e: Expr, memo: dict[int, Expr]) -> Expr:
    """simplify(e), with what each node simplifies to kept in ``memo`` by
    node id, so a node asked for again is simplified once.  The memo costs
    simplify itself about a quarter more time, so simplify keeps none."""
    key = id(e)
    if key not in memo:
        if isinstance(e, Neg):
            memo[key] = _neg(_simplified(e.child, memo))
        elif isinstance(e, Binary):
            memo[key] = _binary(e.op, _simplified(e.left, memo), _simplified(e.right, memo))
        elif isinstance(e, Call):
            memo[key] = _call(e.fn, _simplified(e.argument, memo))
        else:
            memo[key] = e
    return memo[key]


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


def _collect_hazards(e: Expr) -> list[tuple[Expr, WitnessKind, bool]]:
    """(inner, kind, zero_undefined) per hazard: zeros of inner mark the
    trouble spots, where f is undefined if zero_undefined (poles, ln,
    powers) and may only lose its derivative if not (sqrt, abs)."""
    out: list[tuple[Expr, WitnessKind, bool]] = []
    # ids of the nodes with x below them: postorder yields children first
    has_x: set[int] = set()
    # simplify's memo, shared by every exponent: nested powers fold once
    simplified: dict[int, Expr] = {}
    for node in postorder([e]):
        if isinstance(node, Binary):
            if id(node.left) in has_x or id(node.right) in has_x:
                has_x.add(id(node))
            if node.op == "/":
                out.append((node.right, WitnessKind.POLE, True))
            elif node.op == "^":
                # the exponent's value decides, as in the evaluators: folding
                # gives it wherever it is the same at every x
                exponent = _simplified(node.right, simplified)
                n = integer_exponent(exponent.value) if isinstance(exponent, Constant) else None
                if n is not None:
                    if n < 0:
                        # reciprocal of an integer power: base zero is a pole
                        out.append((node.left, WitnessKind.POLE, True))
                else:
                    out.append((node.left, WitnessKind.POWER_BOUNDARY, True))
        elif isinstance(node, Call):
            if id(node.argument) in has_x:
                has_x.add(id(node))
            if node.fn == "ln":
                out.append((node.argument, WitnessKind.LOG_OR_ROOT_BOUNDARY, True))
            elif node.fn == "sqrt":
                out.append((node.argument, WitnessKind.LOG_OR_ROOT_BOUNDARY, False))
            elif node.fn == "abs":
                out.append((node.argument, WitnessKind.ABS_KINK, False))
            elif node.fn == "tan":
                # tan blows up where cos of its argument vanishes
                cos = Call("cos", node.argument)
                if id(node.argument) in has_x:
                    has_x.add(id(cos))
                out.append((cos, WitnessKind.POLE, True))
        elif isinstance(node, Variable) or (isinstance(node, Neg) and id(node.child) in has_x):
            has_x.add(id(node))
    # an inner expression without x has one value on all of [a, b]: either f
    # raises everywhere, which the scan reports, or it is no hazard at all.
    # abs(u) only touches 0, where u crosses it: where that zero leaves f
    # undefined, scan u, whose sign change the scan confirms between samples
    return [
        (_unwrap_abs(inner) if zero_undefined else inner, kind, zero_undefined)
        for inner, kind, zero_undefined in out
        if id(inner) in has_x
    ]


def _unwrap_abs(e: Expr) -> Expr:
    """u for abs(u), abs(abs(u)) and so on, else e itself."""
    while isinstance(e, Call) and e.fn == "abs":
        e = e.argument
    return e


def _scan_zeros(
    xs: list[float], values: list[float | None], evaluator: Callable[[], Evaluator], cleared: list[float]
) -> tuple[list[float], list[float], bool]:
    """Locate zeros of a hazard's inner expression: (crossings, touches, suspected).

    ``values`` is the inner expression on the grid points ``xs`` (None where
    it is undefined); ``evaluator`` returns it compiled, for the root search.
    ``cleared`` holds the nearest and farthest |value| that interval bounds
    allow on each grid cell left out of ``xs``.
    Crossings are strict sign changes refined by the root search (plus exact-zero
    samples whose neighbours have strictly opposite signs); touches are
    exact-zero samples without a sign change; ``suspected`` flags a
    near-zero minimum over the whole grid that could hide a tangential touch.
    """
    crossings: list[float] = []
    touches: list[float] = []
    if 0.0 in values:
        padded = [None, *values, None]
        for x, before, v, after in zip(xs, padded, values, padded[2:]):
            if v == 0.0:
                opposite = before is not None and after is not None and (
                    before < 0.0 < after or after < 0.0 < before
                )
                (crossings if opposite else touches).append(x)
    for x, y, u, v in zip(xs, xs[1:], values, values[1:]):
        # exact zeros are handled above
        if u is None or v is None or u == 0.0 or v == 0.0 or (u < 0.0) == (v < 0.0):
            continue
        try:
            root, _ = bisect(evaluator(), Bracket(x, y, u, v), _WITNESS_EPS)
        except DomainError:
            # the sign change itself is confirmed; settle for the midpoint
            root = midpoint(x, y)
        crossings.append(root)
    if crossings or touches:
        return crossings, touches, False
    valid = [abs(v) for v in values if v is not None] + cleared
    return crossings, touches, not valid or not _clear_of_zero(min(valid), max(valid))


def _verdict(witnessed: bool, doubted: bool) -> Verdict:
    """NO on a confirmed witness, else UNKNOWN on a doubt, else YES."""
    return Verdict.NO if witnessed else Verdict.UNKNOWN if doubted else Verdict.YES


def _clear_of_zero(lo: float, hi: float) -> bool:
    """Whether values within [lo, hi] stay so far from 0 that _scan_zeros
    finds no crossing and no touch and suspects none."""
    near, far = _magnitudes(lo, hi)
    return near > _SUSPICION_RATIO * max(1.0, far)


def _magnitudes(lo: float, hi: float) -> tuple[float, float]:
    """(nearest, farthest) distance from 0 of the values within [lo, hi]
    that lie on one side of 0; the nearest is not positive otherwise."""
    return (lo, hi) if lo > 0.0 else (-hi, -lo)


def _clears(bounds: list[tuple[float, float]] | None) -> bool:
    """Whether ``enclose`` bounds on e and its hazards prove e finite and
    every hazard clear of zero."""
    return bounds is not None and all(_clear_of_zero(*box) for box in bounds[1:])


def _triage(roots: list[Expr], iv: Interval, samples: int) -> tuple[list[int], list[list[float]]]:
    """The grid rows that interval bounds cannot clear, and per hazard the
    magnitudes its bounds allow on the rows they clear.

    The grid's index range is halved into cells [lo, hi] that share their
    end point, and a cell is cleared where ``enclose`` over [xs[lo], xs[hi]]
    proves e finite and every hazard clear of zero.  A half that is not
    cleared is halved again only where its sibling was cleared, and while
    it has at least 2 * _MIN_CELL grid intervals: where bounds fail on
    both halves, they tend to fail on every smaller cell too.
    """
    uncleared: list[tuple[int, int]] = []
    cleared: list[list[float]] = [[] for _ in roots[1:]]

    def halve(lo: int, hi: int) -> None:
        mid = (lo + hi) // 2
        x_lo, x_mid, x_hi = grid(iv, samples, (lo, mid, hi))
        halves = ((lo, mid), (mid, hi))
        bounds = (enclose(roots, x_lo, x_mid), enclose(roots, x_mid, x_hi))
        clear = [_clears(b) for b in bounds]
        for cell, box, ok, sibling_ok in zip(halves, bounds, clear, clear[::-1]):
            if ok:
                for magnitudes, hazard_box in zip(cleared, box[1:]):
                    magnitudes += _magnitudes(*hazard_box)
            elif sibling_ok and cell[1] - cell[0] >= 2 * _MIN_CELL:
                halve(*cell)
            else:
                uncleared.append(cell)

    if samples - 1 >= 2 * _MIN_CELL:
        halve(0, samples - 1)
    else:
        uncleared.append((0, samples - 1))
    rows: list[int] = []
    for lo, hi in sorted(uncleared):
        # neighbouring cells share their end point
        rows += range(lo + 1 if rows and rows[-1] == lo else lo, hi + 1)
    return rows, cleared


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
    their zeros numerically on a grid of ``samples`` points with root-search
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
    far from zero for the scan to find or suspect a zero.  Where they
    cannot, the grid is halved into cells of grid points, neighbours
    sharing their end point, and bounds are tried on each half; an
    uncleared half is halved again only where its sibling cleared, down to
    cells of _MIN_CELL grid intervals.  The scan then evaluates the grid
    points of the uncleared cells only: the same points as the full grid,
    so it finds the same crossings, touches and undefined points.  Whether
    a hazard comes suspiciously near zero is judged over the whole grid,
    with the cleared cells' bounds standing in for their points, which can
    only add doubt.  Where every cell clears, the report is YES, YES if
    their bounds together clear every hazard, and the whole grid is
    scanned otherwise.
    """
    hazards = _collect_hazards(e)
    roots = [e, *(inner for inner, _, _ in hazards)]
    if _clears(enclose(roots, iv.a, iv.b)):
        return SmoothnessReport(Verdict.YES, Verdict.YES, ())
    rows, cleared = _triage(roots, iv, samples)
    if not rows:
        if all(_clear_of_zero(min(m), max(m)) for m in cleared):
            return SmoothnessReport(Verdict.YES, Verdict.YES, ())
        # each cell is clear of zero, but not all of them together
        rows, cleared = range(samples), [[] for _ in hazards]
    # every hazard's inner expression but tan's cos(u) is a subexpression
    # of e, and cos(u) fails only where tan(u) does: the scan raises exactly
    # where e does, with e's error, and records that row in scan.failures.
    # Cleared cells hold no such row, and no zero or sign change of a hazard
    scan = sample(compile_outputs(roots), iv, samples, rows)
    xs = scan.xs
    blank = (None,) * len(roots)
    columns = list(zip(*(row or blank for row in scan.values)))
    undefined = [i for i, v in enumerate(columns[0]) if v is None]

    witnesses: list[Witness] = []
    # set where the scan can neither confirm nor rule out a witness
    doubt_continuity = doubt_differentiability = False
    # where e is undefined at more than half of the grid, no hazard is scanned
    scanned = hazards if len(undefined) <= samples // 2 else []

    for (inner, kind, zero_undefined), column, magnitudes in zip(scanned, columns[1:], cleared):
        # the hazard's own evaluator, compiled on first use
        evaluator = functools.cache(functools.partial(compile_evaluator, inner))
        values = list(column)
        # where e raised, the scan has no values: evaluate the hazard alone
        for i in scan.failures:
            try:
                values[i] = evaluator()(xs[i])
            except DomainError:
                pass
        crossings, touches, suspected = _scan_zeros(xs, values, evaluator, magnitudes)

        if kind is WitnessKind.ABS_KINK:
            # only a confirmed sign change of the argument is a kink:
            # abs(u) with u touching zero from one side is just +-u locally
            witnesses += [Witness(w, kind) for w in crossings if iv.contains_open(w)]
            continue

        for w in crossings + touches if zero_undefined else crossings:
            witnesses.append(Witness(w, kind))
        if not zero_undefined and any(iv.contains_open(w) for w in touches):
            # sqrt: the function is defined at a touch, but its derivative
            # may blow up there (sqrt(x^2) vs sqrt(x^4))
            doubt_differentiability = True
        if suspected:
            doubt_continuity = doubt_differentiability = True

    if undefined and not any(w.breaks_continuity for w in witnesses):
        # e raised where no hazard's zero accounts for it (an overflow, say),
        # or at more than half of the grid: witnesses at the first undefined
        # point and the first interior one
        first = undefined[0]
        interior = next((i for i in undefined if iv.contains_open(xs[i])), first)
        # refuted if that point lies inside (a, b), in doubt otherwise
        doubt_differentiability = True
        for i in (first, interior):
            failure = scan.failures.get(i, DomainErrorKind.NON_FINITE)
            witnesses.append(Witness(xs[i], _WITNESS_KIND[failure]))

    unique = sorted(set(witnesses), key=lambda w: (w.point, w.kind.value))
    continuous = _verdict(any(w.breaks_continuity for w in unique), doubt_continuity)
    differentiable = _verdict(any(iv.contains_open(w.point) for w in unique), doubt_differentiability)
    return SmoothnessReport(continuous, differentiable, tuple(unique))
