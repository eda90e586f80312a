"""Symbolic differentiation, constant folding, and structural smoothness
(continuity/differentiability) analysis of expressions over an interval.

Each reads its expression's own tape and keys what it builds there."""

from __future__ import annotations

from enum import Enum

from .expr import (
    DomainError,
    DomainErrorKind,
    Expr,
    Record,
    Tape,
    enclose,
    evaluator,
    fold,
    integer_exponent,
    steps,
    tabulate,
)
from .numeric import Bracket, Interval, bisect, grid, midpoint

# no call here reads compile_evaluator: bench/mvtbench/tracer.py wraps calculus.compile_evaluator
from .expr import compile_evaluator  # noqa: F401

# no call here reads sample: bench/mvtbench/tracer.py wraps calculus.sample
from .numeric import sample  # noqa: F401

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
# fewest grid intervals in a cell that interval bounds try to clear.  One
# enclose costs about as much as the column pass spends on 14 grid points
# (the hazard benchmark inputs, seed 1).  It stays 32: a smaller cell
# changes which cells bounds clear, and with them the doubt that cleared
# cells add, so it can change Unknown verdicts
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
    """Symbolic derivative of ``e`` with respect to x, constant-folded, on ``e``'s tape.

    Standard sum/product/quotient/chain rules; abs is differentiated as
    abs(u)' = u'*u/abs(u), whose evaluation raises DomainError exactly at
    kink points.  The input is folded first so an exponent that folds to a
    constant (x^(4/2)) reaches the constant-power rule instead of the
    ln-based general rule; a negated literal exponent (x^-2) is a constant
    from parse on.  Every node of the derivative is built through the same
    fold rules as :func:`simplify`, so the result is already simplified.

    Two loops over :func:`~mvtcheck.expr.steps` lists, neither of which
    recurses: the first folds each slot that ``steps`` lists for ``e``
    from its children's folded slots, as :func:`simplify` does, and the
    second gives each slot listed for the folded slot a derivative slot
    from its children's (the tape differentiation of A. Griewank and A.
    Walther, *Evaluating Derivatives*, SIAM 2008).  Every node either loop
    builds is keyed on ``e``'s tape as it is built, so a subexpression
    already there keeps its slot, each distinct one is derived once, and no
    depth of ``e`` limits it.  What else the tape holds changes no result.
    """
    t = e.tape
    top = _simplify(t, e.slot)[e.slot]
    return Expr(t, _derivative(t, [i for i, _, _ in steps(t, [top])])[top])


def _derivative(t: Tape, slots: list[int]) -> dict[int, int]:
    # per slot of ``slots``, the slot of its node's derivative.  ``slots``
    # are the cone of a folded slot, children first, so each node is
    # derived once, from its children's derivatives
    constants, d = t.constants, {}
    for i in slots:
        part, *args = t.keys[i]
        if len(args) == 2:
            u, v = args
            du, dv = d[u], d[v]
            if part == "+" or part == "-":
                d[i] = _binary(t, part, (du, dv))
            elif part == "*":
                d[i] = _binary(t, "+", (_binary(t, "*", (du, v)), _binary(t, "*", (u, dv))))
            elif part == "/":
                num = _binary(t, "-", (_binary(t, "*", (du, v)), _binary(t, "*", (u, dv))))
                d[i] = _binary(t, "/", (num, _binary(t, "^", (v, _constant(t, 2.0)))))
            # power: constant exponent uses the power rule so d(x^2) stays
            # defined on all of R; the general case goes through ln
            elif v in constants:
                power = _binary(t, "^", (u, _constant(t, constants[v] - 1.0)))
                d[i] = _binary(t, "*", (_binary(t, "*", (v, power)), du))
            elif u in constants:
                d[i] = _binary(t, "*", (_binary(t, "*", (i, _call(t, "ln", u))), dv))
            else:
                log_term = _binary(t, "*", (dv, _call(t, "ln", u)))
                ratio = _binary(t, "/", (_binary(t, "*", (v, du)), u))
                d[i] = _binary(t, "*", (i, _binary(t, "+", (log_term, ratio))))
        elif not args:
            d[i] = _constant(t, 1.0 if part == "x" else 0.0)
        elif part == "-":
            d[i] = _neg(t, d[args[0]])
        else:
            (u,) = args
            du = d[u]
            if part == "sin":
                d[i] = _binary(t, "*", (_call(t, "cos", u), du))
            elif part == "cos":
                d[i] = _binary(t, "*", (_neg(t, _call(t, "sin", u)), du))
            elif part == "tan":
                d[i] = _binary(t, "/", (du, _binary(t, "^", (_call(t, "cos", u), _constant(t, 2.0)))))
            elif part == "exp":
                d[i] = _binary(t, "*", (i, du))
            elif part == "ln":
                d[i] = _binary(t, "/", (du, u))
            elif part == "sqrt":
                d[i] = _binary(t, "/", (du, _binary(t, "*", (_constant(t, 2.0), i))))
            else:  # abs
                d[i] = _binary(t, "/", (_binary(t, "*", (du, u)), i))
    return d


def simplify(e: Expr) -> Expr:
    """Constant folding plus the safe identities 0+u, u*1, u*0, u^1, on ``e``'s tape.

    Pointwise equal to the input wherever the input is defined (identity
    rules are exact, folding is single-rounding); no deeper rewriting.
    """
    return Expr(e.tape, _simplify(e.tape, e.slot)[e.slot])


def _simplify(t: Tape, slot: int) -> dict[int, int]:
    # per slot that steps lists for ``slot``, the slot of simplify of its
    # node.  The list puts children first, so each slot is folded once,
    # from its children's folded slots: a node that nothing folds keeps
    # its own slot
    folded: dict[int, int] = {}
    for i, _, _ in steps(t, [slot]):
        key = t.keys[i]
        if len(key) == 3:
            folded[i] = _binary(t, key[0], (folded[key[1]], folded[key[2]]))
        elif len(key) == 1:
            folded[i] = i
        elif key[0] == "-":
            folded[i] = _neg(t, folded[key[1]])
        else:
            folded[i] = _call(t, key[0], folded[key[1]])
    return folded


# node builders for _simplify and _derivative: each folds one node over
# slots of nodes already folded, so a node built from folded slots is
# folded, and returns the slot of the result on ``t``.  A node over
# constants only is folded where it is defined: ``fold`` leaves 1/0, ln(0)
# and overflows as they are


def _neg(t: Tape, child: int) -> int:
    value = t.constants.get(child)
    if value is not None:
        return _constant(t, -value)
    return t.put(("-", child))


def _binary(t: Tape, op: str, args: tuple[int, int]) -> int:
    # ``args`` holds the operands' slots as one pair; u and v are the
    # operands' values where they are constants
    left, right = args
    u, v = t.constants.get(left), t.constants.get(right)
    if u is not None and v is not None:
        value = fold(op, u, v)
        if value is not None:
            return _constant(t, value)
    if op == "+":
        if u == 0.0:
            return right
        if v == 0.0:
            return left
    elif op == "*":
        if u == 0.0 or v == 0.0:
            return _constant(t, 0.0)
        if u == 1.0:
            return right
        if v == 1.0:
            return left
    elif op == "^":
        if v == 1.0:
            return left
    return t.put((op, left, right))


def _call(t: Tape, fn: str, arg: int) -> int:
    value = t.constants.get(arg)
    if value is not None:
        out = fold(fn, value)
        if out is not None:
            return _constant(t, out)
    return t.put((fn, arg))


def _constant(t: Tape, value: float) -> int:
    return t.put((repr(value),))


# --- smoothness analysis ----------------------------------------------------


def _collect_hazards(t: Tape, slot: int) -> list[tuple[int, WitnessKind, bool]]:
    """(slot of inner, kind, zero_undefined) per hazard of the node at ``slot`` of ``t``.

    Zeros of inner mark the trouble spots, where the node is undefined if
    zero_undefined (poles, ln, powers) and may only lose its derivative if
    not (sqrt, abs).  Only the cone of ``slot`` is read, whatever else
    ``t`` holds.  The inner of tan(u), cos(u), is put on ``t``.  A literal
    exponent is its own fold; the first power whose exponent is not a
    literal folds all of the node at ``slot`` on ``t``, from the list that
    :func:`~mvtcheck.expr.steps` keeps for it, and every later power reads
    that fold, so nested powers fold each node once.
    """
    out: list[tuple[int, WitnessKind, bool]] = []
    # per slot, whether x is below it, and the slot of u where the node is
    # abs(u), abs(abs(u)) and so on: children come before their parent.
    # abs(u) only touches 0, where u crosses it: where that zero leaves f
    # undefined, the hazard is u, whose sign change the scan confirms
    has_x: dict[int, bool] = {}
    bare: dict[int, int] = {}
    folded: dict[int, int] = {}  # per slot listed, its fold, once an exponent needs it
    for i, _, _ in steps(t, [slot]):
        part, *args = t.keys[i]
        has_x[i] = part == "x" or any([has_x[j] for j in args])
        bare[i] = bare[args[0]] if part == "abs" else i
        if part == "/":
            out.append((bare[args[1]], WitnessKind.POLE, True))
        elif part == "^":
            # the exponent's value decides, as in the evaluators: folding
            # gives it wherever it is the same at every x
            exponent = t.constants.get(args[1])
            if exponent is None:
                folded = folded or _simplify(t, slot)
                exponent = t.constants.get(folded[args[1]])
            n = None if exponent is None else integer_exponent(exponent)
            if n is None:
                out.append((bare[args[0]], WitnessKind.POWER_BOUNDARY, True))
            elif n < 0:
                # reciprocal of an integer power: base zero is a pole
                out.append((bare[args[0]], WitnessKind.POLE, True))
        elif part == "ln":
            out.append((bare[args[0]], WitnessKind.LOG_OR_ROOT_BOUNDARY, True))
        elif part == "sqrt":
            out.append((args[0], WitnessKind.LOG_OR_ROOT_BOUNDARY, False))
        elif part == "abs":
            out.append((args[0], WitnessKind.ABS_KINK, False))
        elif part == "tan" and has_x[args[0]]:
            # tan blows up where cos of its argument vanishes
            cos = t.put(("cos", args[0]))
            has_x[cos] = True
            out.append((cos, WitnessKind.POLE, True))
    # an inner expression without x has one value on all of [a, b]: either f
    # raises everywhere, which the scan reports, or it is no hazard at all
    return [hazard for hazard in out if has_x[hazard[0]]]


def _scan_zeros(
    xs: list[float], values: list[float | None], t: Tape, slot: int, cleared: list[float]
) -> tuple[list[float], list[float], bool]:
    """Locate zeros of a hazard's inner expression: (crossings, touches, suspected).

    ``values`` is the inner expression, the node at ``slot`` of ``t``, on
    the grid points ``xs`` (None where it is undefined); its evaluator is
    built for the root search at the first strict sign change, and not at
    all where there is none.
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
    at = None
    for x, y, u, v in zip(xs, xs[1:], values, values[1:]):
        # exact zeros are handled above
        if u is None or v is None or u == 0.0 or v == 0.0 or (u < 0.0) == (v < 0.0):
            continue
        if at is None:
            at = evaluator(t, slot)
        try:
            root, _ = bisect(at, Bracket(x, y, u, v), _WITNESS_EPS)
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


def _record_clear(cleared: list[list[float]], boxes: list[tuple[float, float]]) -> bool:
    """Whether the bounds ``boxes``, one per hazard over a cell, clear every
    hazard of zero; where they do, each hazard's magnitudes join its list
    in ``cleared``."""
    if not all(_clear_of_zero(*box) for box in boxes):
        return False
    for magnitudes, box in zip(cleared, boxes):
        magnitudes += _magnitudes(*box)
    return True


def _triage(
    t: Tape, outs: list[int], iv: Interval, samples: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]], list[list[float]]]:
    """The cells of grid rows that interval bounds leave to the scan, the
    cells where they prove e undefined, and per hazard the magnitudes its
    bounds allow on the cells they clear.

    The whole grid is the first cell, and a cell [lo, hi] is halved into
    two that share their middle row.  ``enclose`` of ``outs`` on ``t``,
    whose steps the tape lists once for every cell, over [xs[lo], xs[hi]]
    settles a cell as cleared where it proves e finite and every hazard
    clear of zero, and as undefined where it raises DomainError.  A cell
    that is not settled is halved again only where its sibling settled (the
    whole grid has none), and while it has at least 2 * _MIN_CELL grid
    intervals: where bounds fail on both halves, they tend to fail on every
    smaller cell too.  Both lists of cells come in order.
    """
    scanned: list[tuple[int, int]] = []
    undefined: list[tuple[int, int]] = []
    cleared: list[list[float]] = [[] for _ in outs[1:]]

    def settle(cell: tuple[int, int], a: float, b: float) -> bool:
        # whether bounds over [a, b] settle the cell, which is then recorded
        try:
            bounds = enclose(t, outs, a, b)
        except DomainError:
            undefined.append(cell)
            return True
        return bounds is not None and _record_clear(cleared, bounds[1:])

    # cells that bounds did not settle, and whose sibling they did, last
    # one first: each is halved, left half first, or scanned where too small
    cells = [] if settle((0, samples - 1), iv.a, iv.b) else [(0, samples - 1)]
    while cells:
        lo, hi = cells.pop()
        if hi - lo < 2 * _MIN_CELL:
            scanned.append((lo, hi))
            continue
        mid = (lo + hi) // 2
        x_lo, x_mid, x_hi = grid(iv, samples, (lo, mid, hi))
        halves = ((lo, mid), (mid, hi))
        settled = (settle(halves[0], x_lo, x_mid), settle(halves[1], x_mid, x_hi))
        for cell, done, sibling_done in zip(halves[::-1], settled[::-1], settled):
            if not done:
                (cells if sibling_done else scanned).append(cell)
    return sorted(scanned), sorted(undefined), cleared


def _rows(cells: list[tuple[int, int]]) -> list[int]:
    """The grid rows of ``cells``, in order; neighbouring cells share their end point."""
    rows: list[int] = []
    for lo, hi in cells:
        rows += range(lo + 1 if rows and rows[-1] == lo else lo, hi + 1)
    return rows


_WITNESS_KIND = {
    DomainErrorKind.NON_FINITE: WitnessKind.POLE,
    DomainErrorKind.DIVISION_BY_ZERO: WitnessKind.POLE,
    DomainErrorKind.LOG_OF_NON_POSITIVE: WitnessKind.LOG_OR_ROOT_BOUNDARY,
    DomainErrorKind.ROOT_OF_NEGATIVE: WitnessKind.LOG_OR_ROOT_BOUNDARY,
    DomainErrorKind.POWER_OF_NON_POSITIVE: WitnessKind.POWER_BOUNDARY,
}


def analyze_smoothness(e: Expr, iv: Interval, samples: int) -> SmoothnessReport:
    """Classify continuity of ``e`` on [a,b] and differentiability on (a,b).

    Reads ``e``'s tape for hazard subexpressions (divisors, ln/sqrt
    arguments, abs arguments, non-integer-power bases, tan arguments) and
    confirms their zeros numerically on a grid of ``samples`` points with
    root-search refinement.  One column pass
    (:func:`~mvtcheck.expr.tabulate`) evaluates ``e`` and every hazard's
    inner expression together over the grid points scanned, one tape slot
    at a time, at points where ``e`` is undefined as well, or ``e`` alone
    where bounds prove it undefined on more than half of the grid (below).
    Verdicts are three-valued: hazards that cannot be confirmed or ruled out
    at sample resolution yield UNKNOWN rather than a guess.  A function that
    fails to evaluate at a sample point is reported as not continuous at
    the first failing point, unless a hazard's witness explains the
    failures and at most half of the points fail.

    The scan is skipped, and the report is YES, YES without witnesses,
    where interval bounds (:func:`~mvtcheck.expr.enclose`) prove that ``e``
    is finite on [a,b] and that every hazard's inner expression stays too
    far from zero for the scan to find or suspect a zero.  Where they
    cannot, the grid is halved into cells of grid points, neighbours
    sharing their end point, and one pass of bounds settles each half: as
    cleared, or as undefined where a node of ``e`` leaves its domain on the
    whole cell.  A half that is not settled is halved again only where its
    sibling settled, down to cells of _MIN_CELL grid intervals.  The scan
    then evaluates the grid points of the cells not cleared only: the same
    points as the full grid, so it finds the same crossings, touches and
    undefined points.  Whether a hazard comes suspiciously near zero is
    judged over the whole grid, with the cleared cells' bounds standing in
    for their points, which can only add doubt.  Where every cell clears,
    the report is YES, YES if their bounds together clear every hazard, and
    the whole grid is scanned otherwise.

    ``e`` is undefined at every point of the undefined cells, whatever
    share of the grid they hold, so the points where ``e`` is undefined
    are those of the undefined cells and those where its column is None.
    Where the undefined cells hold at most half of the grid, the column
    pass evaluates the hazards over their points too, where a hazard's
    zero (a pole of ``e``, say) may lie, but for those undefined cells on
    which bounds of the hazards alone clear every hazard: these count as
    cleared cells.  Where they hold more, it evaluates ``e`` alone, over
    the points of the cells not settled.  Where ``e`` is undefined at
    more than half of the grid, no hazard is scanned, and the report
    reads only the first and the first interior undefined points.

    The hazards' cos(u) and the folds that exponents need are keyed on
    ``e``'s tape.  The report reads only the cone of ``e``'s slot, so what
    else the tape holds changes nothing.
    """
    t, top = e.tape, e.slot
    hazards = _collect_hazards(t, top)
    outs = [top, *(inner for inner, _, _ in hazards)]
    cells, undefined_cells, cleared = _triage(t, outs, iv, samples)
    if not (cells or undefined_cells):
        if all(_clear_of_zero(min(m), max(m)) for m in cleared):
            return SmoothnessReport(Verdict.YES, Verdict.YES, ())
        # each cell is clear of zero, but not all of them together
        cells, cleared = [(0, samples - 1)], [[] for _ in hazards]
    # e is undefined at every row of the cells that bounds prove undefined.
    # Each hazard's value is bit-identical to its own evaluation, None where
    # that fails, at e's undefined points too.  Cleared cells hold no
    # undefined row, and no zero or sign change of a hazard
    proven = set(_rows(undefined_cells))
    half = samples // 2  # where e is undefined at more rows, no hazard is scanned
    kept = []  # the proven cells on which the hazards' own bounds do not clear them
    if len(proven) <= half:
        for cell in undefined_cells:
            try:
                boxes = enclose(t, outs[1:], *grid(iv, samples, cell))
            except DomainError:
                boxes = None
            if boxes is None or not _record_clear(cleared, boxes):
                kept.append(cell)
    rows = _rows(sorted(cells + kept))
    xs = grid(iv, samples, rows)
    values, *columns = tabulate(t, outs if len(proven) <= half else [top], xs)
    undefined = sorted(proven.union(row for row, v in zip(rows, values) if v is None))

    witnesses: list[Witness] = []
    # set where the scan can neither confirm nor rule out a witness
    doubt_continuity = doubt_differentiability = False
    scanned = hazards if len(undefined) <= half else []

    for (slot, kind, zero_undefined), column, magnitudes in zip(scanned, columns, cleared):
        crossings, touches, suspected = _scan_zeros(xs, column, t, slot, magnitudes)

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
        # e is undefined where no hazard's zero accounts for it (an
        # overflow, say), or at more than half of the grid: witnesses at the
        # first undefined point and the first interior one
        def point(row: int) -> float:
            return grid(iv, samples, [row])[0]

        first = undefined[0]
        interior = next((i for i in undefined if iv.contains_open(point(i))), first)
        # refuted if that point lies inside (a, b), in doubt otherwise
        doubt_differentiability = True
        f = evaluator(t, top)
        for x in (point(first), point(interior)):
            try:
                f(x)
            except DomainError as err:
                witnesses.append(Witness(x, _WITNESS_KIND[err.kind]))

    unique = sorted(set(witnesses), key=lambda w: (w.point, w.kind.value))
    continuous = _verdict(any(w.breaks_continuity for w in unique), doubt_continuity)
    differentiable = _verdict(any(iv.contains_open(w.point) for w in unique), doubt_differentiability)
    return SmoothnessReport(continuous, differentiable, tuple(unique))

