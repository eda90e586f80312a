"""Numerical kernels: uniform sampling, sign-change bracketing, and
bisection.

Evaluators are plain callables ``float -> float`` that signal points
outside their domain by raising :class:`~mvtcheck.expr.DomainError`.
"""

from __future__ import annotations

import math
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
    40(2), 2014).
    """
    return 0.5 * u + 0.5 * v


class Interval(Record):
    """Closed interval [a, b] with finite endpoints and a < b."""

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("interval endpoints must be finite")
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


class SamplePoint(Record):
    __slots__ = ("x", "value", "error")

    def __init__(self, x: float, value: float | None, error: DomainError | None = None):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "error", error)


class Samples(Sequence):
    """A uniform scan kept as columns.

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

    def __getitem__(self, index):
        rows = range(len(self.xs))[index]
        if isinstance(rows, range):
            return [self[i] for i in rows]
        x = self.xs[rows]
        kind = self.failures.get(rows)
        return SamplePoint(x, self.values[rows], None if kind is None else DomainError(x, kind))


def sample(f: Callable[[float], Any], iv: Interval, n: int) -> Samples:
    """Evaluate ``f`` at ``n`` uniformly spaced points including both endpoints.

    Per-point DomainErrors are recorded by kind on the result, not raised.
    """
    if n < 2:
        raise ValueError("need at least two sample points")
    step = iv.width / (n - 1)
    xs = [iv.a + i * step for i in range(n - 1)]
    # the last point is b itself, so the grid ends exactly at the endpoint
    xs.append(iv.b)
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

    Both values must be finite.  A failed sample breaks adjacency: no pair
    is formed across it.  Returns None when no such pair exists.
    """
    xs, values = samples.xs, samples.values
    for i in range(len(xs) - 1):
        u, v = values[i], values[i + 1]
        if u is None or v is None or not (math.isfinite(u) and math.isfinite(v)):
            continue
        if opposite_or_zero(u, v):
            return Bracket(xs[i], xs[i + 1], u, v)
    return None


def bisect(g: Evaluator, br: Bracket, eps: float) -> tuple[float, BisectionState]:
    """Classic bisection of ``g`` over ``br`` down to bracket width ``eps``.

    Maintains the sign-change invariant at every step and returns the
    midpoint of the final bracket (or an exact zero of ``g`` found along
    the way) together with the final :class:`BisectionState`.  The final
    bracket is narrower than ``eps`` or, where floats are too coarse for
    that, two adjacent floats, whose midpoint rounds to one of them.  Each
    step leaves fewer floats in the bracket, so the loop always ends: from
    any finite bracket, after at most about 2100 steps.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    left, right = br.left, br.right
    g_left = br.g_left
    iterations = 0
    while right - left > eps:
        mid = midpoint(left, right)
        if mid <= left or mid >= right:
            break
        g_mid = g(mid)
        iterations += 1
        if g_mid == 0.0:
            return mid, BisectionState(left, right, iterations)
        if opposite_or_zero(g_left, g_mid):
            right = mid
        else:
            left, g_left = mid, g_mid
    return midpoint(left, right), BisectionState(left, right, iterations)
