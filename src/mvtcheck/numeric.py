"""Numerical kernels: uniform sampling, sign-change bracketing, and a
root search in a bracket by the ITP method: bisection with interpolation
steps, at most one step slower than bisection on any root.

Evaluators are plain callables ``float -> float`` that signal points
outside their domain by raising :class:`~mvtcheck.expr.DomainError`.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from typing import Any, Callable

from .expr import DomainError, DomainErrorKind, Record

__all__ = [
    "Evaluator",
    "Interval",
    "Bracket",
    "BisectionState",
    "SamplePoint",
    "Samples",
    "opposite_or_zero",
    "midpoint",
    "grid",
    "sample",
    "first_bracket",
    "bisect",
]

Evaluator = Callable[[float], float]

def opposite_or_zero(u: float, v: float) -> bool:
    """Sign test equivalent to u*v <= 0, immune to overflow of the product."""
    return (u <= 0.0 <= v) or (v <= 0.0 <= u)


def midpoint(u: float, v: float) -> float:
    """Midpoint of the finite floats ``u`` and ``v``, finite for every pair.

    ``0.5 * (u + v)`` overflows to inf when ``u + v`` does.  Halving a
    float of magnitude 2**-1021 or more is exact, so where ``u + v`` is
    finite and each end is zero or that large, this is the same float (F.
    Goualard, "How do you compute the midpoint of an interval?", ACM TOMS
    40(2), 2014).  Below that each half rounds, and two roundings can leave
    [u, v] (0.0 for u = v = 5e-324); there ``v - u`` is exact, and halving
    it rounds once.
    """
    mid = 0.5 * u + 0.5 * v
    if u <= mid <= v or v <= mid <= u:
        return mid
    return u + 0.5 * (v - u)


class Interval(Record):
    """Closed interval [a, b] with finite endpoints and a < b."""

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        # stored as floats, so results and their JSON never carry an int;
        # an int too large for a float is no finite end either
        if not (abs(a) <= sys.float_info.max and abs(b) <= sys.float_info.max):
            raise ValueError("interval endpoints must be finite")
        a, b = float(a), float(b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not a < b:
            raise ValueError(f"interval requires a < b, got [{a!r}, {b!r}]")
        if not math.isfinite(b - a):
            raise ValueError("interval width overflows")

    @property
    def width(self) -> float:
        return self.b - self.a

    def contains_open(self, x: float) -> bool:
        return self.a < x < self.b


class Bracket(Record):
    """Subinterval whose endpoint values have opposite (or zero) sign."""

    __slots__ = ("left", "right", "g_left", "g_right")

    def __init__(self, left: float, right: float, g_left: float, g_right: float):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "g_left", g_left)
        object.__setattr__(self, "g_right", g_right)
        if not left < right:
            raise ValueError("bracket requires left < right")
        if not math.isfinite(right - left):
            raise ValueError("bracket width overflows")
        if not (math.isfinite(g_left) and math.isfinite(g_right)):
            raise ValueError("bracket endpoint values must be finite")
        if not opposite_or_zero(g_left, g_right):
            raise ValueError("bracket endpoint values must have opposite or zero sign")


class BisectionState(Record):
    __slots__ = ("c_left", "c_right", "iterations")

    def __init__(self, c_left: float, c_right: float, iterations: int):
        object.__setattr__(self, "c_left", c_left)
        object.__setattr__(self, "c_right", c_right)
        object.__setattr__(self, "iterations", iterations)


# kept only for bench/mvtbench/tracer.py, which reads scans row by row, until
# the library records its own trace (ROADMAP item 4)
class SamplePoint(Record):
    __slots__ = ("x", "value", "error")

    def __init__(self, x: float, value: float | None, error: DomainError | None = None):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "error", error)


class Samples(Sequence):
    """A scan of uniform grid points kept as columns.

    ``xs`` holds the grid points, ``values`` what the evaluator returned at
    each one (None where it raised DomainError) and ``failures`` the
    DomainErrorKind of each row where it raised, by row index.  Indexing
    builds a :class:`SamplePoint` for that row.
    """

    __slots__ = ("xs", "values", "failures")

    def __init__(self, xs: list[float], values: list[Any], failures: dict[int, DomainErrorKind]):
        self.xs = xs
        self.values = values
        self.failures = failures

    def __len__(self) -> int:
        return len(self.xs)

    # kept only for bench/mvtbench/tracer.py, as SamplePoint is
    def __getitem__(self, index):
        rows = range(len(self.xs))[index]
        if isinstance(rows, range):
            return [self[i] for i in rows]
        x = self.xs[rows]
        kind = self.failures.get(rows)
        return SamplePoint(x, self.values[rows], None if kind is None else DomainError(x, kind))


def grid(iv: Interval, n: int, rows: Sequence[int] | None = None) -> list[float]:
    """The ``n`` uniformly spaced points of ``iv``, both endpoints included,
    or those at the increasing grid indices ``rows``.
    """
    if n < 2:
        raise ValueError("need at least two sample points")
    step = iv.width / (n - 1)
    if rows is None:
        rows = range(n)
    xs = [iv.a + i * step for i in rows]
    # the last point is b itself, so the grid ends exactly at the endpoint
    if rows and rows[-1] == n - 1:
        xs[-1] = iv.b
    return xs


def sample(f: Callable[[float], Any], iv: Interval, n: int) -> Samples:
    """Evaluate ``f`` on the points of :func:`grid` ``(iv, n)``, in order.

    Per-point DomainErrors are recorded by kind on the result, not raised.
    """
    xs = grid(iv, n)
    values: list[Any] = []
    failures: dict[int, DomainErrorKind] = {}
    append = values.append
    for x in xs:
        try:
            append(f(x))
        except DomainError as err:
            failures[len(values)] = err.kind
            append(None)
    return Samples(xs, values, failures)


def first_bracket(samples: Samples) -> Bracket | None:
    """First consecutive pair of valid samples with opposite-or-zero signs.

    Both values must be finite and the two points distinct: on an interval
    only a few floats wide, neighbouring grid points round to the same
    float.  A failed sample breaks adjacency: no pair is formed across it.
    Returns None when no such pair exists.
    """
    xs, values = samples.xs, samples.values
    for i in range(len(xs) - 1):
        u, v = values[i], values[i + 1]
        if u is None or v is None or not (math.isfinite(u) and math.isfinite(v)):
            continue
        if xs[i] == xs[i + 1]:
            continue
        if opposite_or_zero(u, v):
            return Bracket(xs[i], xs[i + 1], u, v)
    return None


def bisect(g: Evaluator, br: Bracket, eps: float) -> tuple[float, BisectionState]:
    """Find a zero of ``g`` in ``br`` by the ITP method, down to bracket width ``eps``.

    ITP (interpolate, truncate, project: I. F. D. Oliveira and R. H. C.
    Takahashi, "An Enhancement of the Bisection Method Average Performance
    Preserving Minmax Optimality", ACM TOMS 47(1), 2020) steps from the
    regula-falsi point towards the midpoint, but never so far from the
    midpoint that the bracket after step j could be wider than about
    ``eps * 2**(n - j)``, with n = ceil(log2(width / eps)).  So it
    converges superlinearly on a smooth simple root and takes at most
    n + 1 steps on any root, one more than bisection.  Here kappa1 =
    0.2 / width, kappa2 = 2 and n0 = 1.  The projection holds a few ulps
    back from ``eps``: where it binds (on a triple root, say), rounding of
    the points would otherwise cost a step beyond n + 1.

    Maintains the sign-change invariant at every step and returns the
    midpoint of the final bracket (or an exact zero of ``g`` found along
    the way) together with the final :class:`BisectionState`.  The final
    bracket is at most ``eps`` wide or, where floats are too coarse for
    that, two adjacent floats, whose midpoint rounds to one of them.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    left, right = br.left, br.right
    g_left, g_right = br.g_left, br.g_right
    width = right - left
    # n = ceil(log2(width / eps)), read off the binary exponents, as the
    # quotient may overflow
    (m_width, e_width), (m_eps, e_eps) = math.frexp(width), math.frexp(eps)
    n = e_width - e_eps + (m_width > m_eps)
    # the projection keeps the bracket after step j within base * 2**(n - j):
    # base is eps less the ulps that rounding may add.  Where eps is within
    # 8 ulps of float resolution, base is eps / 2 (n0 = 0), which leaves a
    # whole step for rounding; among subnormals, where halving rounds too,
    # base is 0 and every point is the midpoint: bisection
    ulp = math.ulp(max(abs(left), abs(right)))
    if eps > 8.0 * ulp:
        base = eps - 4.0 * ulp
    else:
        base = 0.5 * eps if ulp > math.ulp(0.0) else 0.0
    iterations = 0
    while right - left > eps:
        mid = midpoint(left, right)
        if mid <= left or mid >= right:
            break
        w = right - left
        # interpolate: the regula-falsi point, where the chord crosses zero.
        # A difference of the end values that overflows puts it at left, and
        # a zero end value at that end, from where truncation steps inside
        slope = g_left - g_right
        x = left + w * (g_left / slope) if slope else mid
        if not left <= x <= right:
            x = mid
        # truncate: step kappa1 * w**2 from it towards the midpoint
        delta = 0.2 * w * (w / width)
        x = x + math.copysign(delta, mid - x) if delta <= abs(mid - x) else mid
        # project: stay within r of the midpoint, so the next bracket is at
        # most base * 2**(n - iterations) wide; halved, so no term overflows
        half_r = math.ldexp(base, n - iterations - 1) - 0.25 * w
        if 0.5 * abs(x - mid) > half_r:
            x = mid - math.copysign(2.0 * half_r, mid - x) if half_r > 0.0 else mid
        if not left < x < right:
            x = mid
        g_x = g(x)
        iterations += 1
        if g_x == 0.0:
            return x, BisectionState(left, right, iterations)
        if opposite_or_zero(g_left, g_x):
            right, g_right = x, g_x
        else:
            left, g_left = x, g_x
    return midpoint(left, right), BisectionState(left, right, iterations)
