"""Verification pipeline for the Mean Value Theorem and Rolle's special case.

Checks applicability (continuity on [a,b], differentiability on (a,b)),
computes the secant slope m = (f(b) - f(a)) / (b - a), and locates a point
c in (a, b) with f'(c) = m by sign-change bracketing and the ITP root
search of :func:`~mvtcheck.numeric.bisect`.  A verdict reads a copy of
f's keys on a tape of its own, so it never changes the tape of the handle
it is given; the analysis, f', its hazards and its folds go on that copy.
"""

from __future__ import annotations

import math
from enum import Enum

from .calculus import Verdict, analyze_smoothness, differentiate
from .expr import DomainError, Expr, Record, Tape, compile_evaluator, evaluator
from .numeric import Interval, bisect, first_bracket, midpoint, opposite_or_zero, sample

# no call here reads evaluate: bench/mvtbench/tracer.py counts theorem.evaluate
from .expr import evaluate  # noqa: F401

__all__ = [
    "Config",
    "EPS_RES",
    "EPS_ROLLE",
    "MAX_SAMPLES",
    "Method",
    "Reason",
    "MvtResult",
    "Applicable",
    "NotApplicable",
    "Unknown",
    "secant_slope",
    "verify_mvt",
    "verify_rolle",
]

# cap on Config.samples: every scan holds a few values per sample, so an
# unbounded count from the command line could exhaust memory
MAX_SAMPLES = 2**20

# acceptance tolerance on the residual |f'(c) - m|
EPS_RES = 1e-8
# relative tolerance on |f(a) - f(b)| in Rolle mode
EPS_ROLLE = 1e-12

# the finest dyadic level of the root scan before the full grid
_COARSE_MAX = 65
_GOLDEN_STEPS = 64
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class Config(Record):
    """Numerical policy for the verification pipeline.

    eps_c      final bracket width of the root search for c
    samples    uniform sample count of the smoothness scan and of the
               root scan's full grid, an int from 2 up to MAX_SAMPLES
    """

    __slots__ = ("eps_c", "samples")

    def __init__(self, eps_c: float = 1e-10, samples: int = 1024):
        object.__setattr__(self, "eps_c", eps_c)
        object.__setattr__(self, "samples", samples)
        if not 0.0 < eps_c < math.inf:
            raise ValueError("eps_c must be positive and finite")
        if not isinstance(samples, int):
            raise ValueError("samples must be an integer")
        if samples < 2:
            raise ValueError("samples must be at least 2")
        if samples > MAX_SAMPLES:
            raise ValueError(f"samples must be at most {MAX_SAMPLES}")


class Method(Enum):
    BRACKET_BISECT = "bracket_bisect"
    DEGENERATE_CONSTANT = "degenerate_constant"
    RESIDUAL_MIN = "residual_min"


class Reason(Enum):
    NOT_CONTINUOUS = "not_continuous"
    NOT_DIFFERENTIABLE = "not_differentiable"
    UNDEFINED = "undefined"
    ROLLE_PRECONDITION_FAILED = "rolle_precondition_failed"


class MvtResult(Record):
    """Base class of the verification outcome variants."""

    __slots__ = ()


class Applicable(MvtResult):
    __slots__ = ("c", "m", "f_prime_at_c", "residual", "iterations", "method")

    def __init__(
        self, c: float, m: float, f_prime_at_c: float, residual: float, iterations: int, method: Method
    ):
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "f_prime_at_c", f_prime_at_c)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "method", method)


class NotApplicable(MvtResult):
    __slots__ = ("reason", "witness")

    def __init__(self, reason: Reason, witness: float | None = None):
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "witness", witness)


class Unknown(MvtResult):
    __slots__ = ("detail",)

    def __init__(self, detail: str):
        object.__setattr__(self, "detail", detail)


def secant_slope(f: Expr, iv: Interval) -> float:
    """Average rate of change (f(b) - f(a)) / (b - a).

    Raises DomainError when f is undefined at an endpoint.  Where f(b) - f(a)
    overflows, both differences are halved first, which is exact, so a
    finite slope stays finite.
    """
    at = evaluator(f.tape, f.slot)
    fa = at(iv.a)
    fb = at(iv.b)
    rise = fb - fa
    if math.isfinite(rise):
        return rise / (iv.b - iv.a)
    return (0.5 * fb - 0.5 * fa) / (0.5 * (iv.b - iv.a))


def verify_mvt(f: Expr, iv: Interval, cfg: Config | None = None) -> MvtResult:
    """Verify the Mean Value Theorem for ``f`` on ``iv``.

    Returns Applicable with a point c in (a,b) where |f'(c) - m| is within
    tolerance, NotApplicable with a reason and witness when a precondition
    fails, or Unknown when neither can be established.

    A verdict never warms its handle: it reads a copy of ``f``'s keys, up
    to ``f``'s slot, on a tape of its own, and leaves ``f.tape`` as it was.
    So the result does not depend on what ``f.tape`` holds or on earlier
    calls, and every verdict starts cold.
    """
    return _pipeline(f, iv, cfg or Config(), None)


def verify_rolle(f: Expr, iv: Interval, cfg: Config | None = None) -> MvtResult:
    """Verify Rolle's theorem: requires f(a) = f(b), then seeks f'(c) = 0.

    Runs the Mean Value Theorem pipeline with the slope forced to exactly
    zero, Rolle's theorem being the m = 0 special case.  The precondition
    is answered before f is analyzed, from f(a) and f(b).  Like
    :func:`verify_mvt`, it leaves ``f.tape`` as it was.
    """
    return _pipeline(f, iv, cfg or Config(), 0.0)


def _pipeline(f: Expr, iv: Interval, cfg: Config, m_forced: float | None) -> MvtResult:
    # f's keys up to its slot, at the same slots, on a tape of the verdict's own
    tape = Tape()
    for key in f.tape.keys[: f.slot + 1]:
        tape.put(key)
    f = Expr(tape, f.slot)
    if m_forced is not None:
        # Rolle's precondition, answered before f is analyzed
        at = evaluator(tape, f.slot)
        try:
            fa = at(iv.a)
            fb = at(iv.b)
        except DomainError as err:
            return NotApplicable(Reason.UNDEFINED, err.point)
        if abs(fa - fb) > EPS_ROLLE * max(1.0, abs(fa), abs(fb)):
            return NotApplicable(Reason.ROLLE_PRECONDITION_FAILED)
    # the theorem's c must lie strictly inside (a, b): where no float does,
    # f is not analyzed
    if math.nextafter(iv.a, iv.b) == iv.b:
        return Unknown("no float lies strictly inside (a, b)")
    report = analyze_smoothness(f, iv, cfg.samples)
    if report.continuous_on_closed is Verdict.NO:
        witness = next(w.point for w in report.witnesses if w.breaks_continuity)
        return NotApplicable(Reason.NOT_CONTINUOUS, witness)
    if report.continuous_on_closed is Verdict.UNKNOWN:
        return Unknown("continuity on the closed interval could not be confirmed")
    if report.differentiable_on_open is Verdict.NO:
        witness = next(w.point for w in report.witnesses if iv.contains_open(w.point))
        return NotApplicable(Reason.NOT_DIFFERENTIABLE, witness)
    if report.differentiable_on_open is Verdict.UNKNOWN:
        return Unknown("differentiability on the open interval could not be confirmed")

    if m_forced is None:
        try:
            m = secant_slope(f, iv)
        except DomainError as err:
            return NotApplicable(Reason.UNDEFINED, err.point)
    else:
        m = m_forced

    fp = differentiate(f)
    d = fp.tape.constants.get(fp.slot)
    if d is not None:
        # g = f' - m is one number: the scans below would find no sign
        # change, and end on the degenerate path or on this residual
        residual = abs(d - m)
        if residual <= EPS_RES:
            return Applicable(midpoint(iv.a, iv.b), m, d, residual, 0, Method.DEGENERATE_CONSTANT)
        return _no_sign_change(residual)
    deriv = compile_evaluator(fp)

    def g(t: float) -> float:
        return deriv(t) - m

    # the theorem promises c strictly inside (a,b): inset by half a step
    step = iv.width / cfg.samples
    inner = Interval(iv.a + 0.5 * step, iv.b - 0.5 * step)
    # Darboux: with f differentiable on (a, b), any two points where g has
    # opposite signs bracket a zero of g, so a coarse bracket is searched as
    # soundly as a fine one.  Dyadic levels of 3 to 65 points come first;
    # the first with a bracket and some |g| above EPS_RES (a g that small
    # everywhere is left to the degenerate path) is searched.  If that
    # yields no c, the full grid follows as the last level, and it alone
    # decides the degenerate, golden-section and Unknown paths.
    n = min(3, cfg.samples)
    while True:
        scan = sample(g, inner, n)
        if n == cfg.samples:
            break
        br = first_bracket(scan)
        if br is not None and any(v is not None and abs(v) > EPS_RES for v in scan.values):
            found = _bracket_root(g, deriv, m, br, cfg.eps_c)
            if isinstance(found, Applicable):
                return found
            n = cfg.samples
        else:
            n = min(2 * n - 1, cfg.samples) if n < _COARSE_MAX else cfg.samples
    xs, values = scan.xs, scan.values
    valid = [v for v in values if v is not None]
    if not valid:
        return Unknown("derivative undefined at every interior sample point")

    if max(abs(v) for v in valid) <= EPS_RES:
        # f' == m everywhere at sample resolution: any interior point
        # works, the midpoint is deterministic and symmetric
        c = midpoint(iv.a, iv.b)
        try:
            fpc = deriv(c)
        except DomainError:
            fpc = None
        if fpc is not None and abs(fpc - m) <= EPS_RES:
            return Applicable(c, m, fpc, abs(fpc - m), 0, Method.DEGENERATE_CONSTANT)

    br = first_bracket(scan)
    if br is not None:
        return _bracket_root(g, deriv, m, br, cfg.eps_c)

    best_idx = min(
        (i for i, v in enumerate(values) if v is not None),
        key=lambda i: abs(values[i]),
    )
    lo = xs[best_idx - 1] if best_idx > 0 else inner.a
    hi = xs[best_idx + 1] if best_idx + 1 < len(xs) else inner.b
    c, fpc, residual, steps = _golden_min(deriv, m, lo, hi, xs[best_idx], values[best_idx])
    if residual <= EPS_RES:
        return Applicable(c, m, fpc, residual, steps, Method.RESIDUAL_MIN)
    return _no_sign_change(residual)


def _no_sign_change(residual: float) -> Unknown:
    return Unknown(f"no sign change at sample resolution; smallest residual {residual:.3e} exceeds tolerance")


def _bracket_root(g, deriv, m, br, eps_c) -> MvtResult:
    """Search ``br`` for a zero of g = f' - m and tighten its residual."""
    try:
        root, state = bisect(g, br, eps_c)
        c, fpc, residual, extra = _tighten_residual(deriv, m, root, state)
    except DomainError:
        return Unknown("bisection failed inside the located bracket")
    if residual <= EPS_RES:
        return Applicable(c, m, fpc, residual, state.iterations + extra, Method.BRACKET_BISECT)
    return Unknown(f"sign change located but residual {residual:.3e} stays above tolerance")


def _tighten_residual(deriv, m, root, state):
    """Keep halving the final bracket until the residual meets EPS_RES.

    The root search to width eps_c bounds |c - root| but not |f'(c) - m|; for
    steep derivatives a few extra halvings are needed before the soundness
    bound holds.  Stops at the binary64 resolution floor: each halving
    leaves fewer floats in the bracket.
    """
    fpc = deriv(root)
    residual = abs(fpc - m)
    left, right = state.c_left, state.c_right
    g_left = None  # g at left, evaluated at the first halving
    extra = 0
    while residual > EPS_RES:
        mid = midpoint(left, right)
        if mid <= left or mid >= right:
            break
        if g_left is None:
            g_left = deriv(left) - m
        dm = deriv(mid)
        extra += 1
        gm = dm - m
        if abs(gm) < residual:
            root, fpc, residual = mid, dm, abs(gm)
        if gm == 0.0:
            break
        if opposite_or_zero(g_left, gm):
            right = mid
        else:
            left, g_left = mid, gm
    return root, fpc, residual, extra


def _golden_min(deriv, m, lo, hi, seed_x, seed_g):
    """Golden-section shrink of |f'(t) - m| around the best sample."""
    best_t, best_fp, best_res = seed_x, seed_g + m, abs(seed_g)

    def probe(t):
        nonlocal best_t, best_fp, best_res
        try:
            fp = deriv(t)
        except DomainError:
            return math.inf
        r = abs(fp - m)
        if r < best_res:
            best_t, best_fp, best_res = t, fp, r
        return r

    h = hi - lo
    x1 = hi - _INVPHI * h
    x2 = lo + _INVPHI * h
    r1 = probe(x1)
    r2 = probe(x2)
    steps = 0
    while steps < _GOLDEN_STEPS and hi - lo > 0.0:
        if r1 <= r2:
            hi, x2, r2 = x2, x1, r1
            h = hi - lo
            x1 = hi - _INVPHI * h
            r1 = probe(x1)
        else:
            lo, x1, r1 = x1, x2, r2
            h = hi - lo
            x2 = lo + _INVPHI * h
            r2 = probe(x2)
        steps += 1
    # recompute at the winner so residual == |f_prime_at_c - m| holds exactly
    best_fp = deriv(best_t)
    return best_t, best_fp, abs(best_fp - m), steps
