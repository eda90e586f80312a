"""Numerical kernels: uniform sampling, sign-change bracketing, and
bisection.

Evaluators are plain callables ``float -> float`` that signal points
outside their domain by raising :class:`~mvtcheck.expr.DomainError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .expr import DomainError

__all__ = [
    "Evaluator",
    "Interval",
    "Bracket",
    "BisectionState",
    "SamplePoint",
    "MaxIterationsExceeded",
    "opposite_or_zero",
    "sample",
    "first_bracket",
    "bisect",
]

Evaluator = Callable[[float], float]

DEFAULT_MAX_ITER = 200


class MaxIterationsExceeded(Exception):
    """Bisection could not shrink the bracket below eps within max_iter."""


def opposite_or_zero(u: float, v: float) -> bool:
    """Sign test equivalent to u*v <= 0, immune to overflow of the product."""
    return (u <= 0.0 <= v) or (v <= 0.0 <= u)


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [a, b] with finite endpoints and a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a!r}, {self.b!r}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    def contains_open(self, x: float) -> bool:
        return self.a < x < self.b


@dataclass(frozen=True, slots=True)
class Bracket:
    """Subinterval whose endpoint values have opposite (or zero) sign."""

    left: float
    right: float
    g_left: float
    g_right: float

    def __post_init__(self):
        if not self.left < self.right:
            raise ValueError("bracket requires left < right")
        if not (math.isfinite(self.g_left) and math.isfinite(self.g_right)):
            raise ValueError("bracket endpoint values must be finite")
        if not opposite_or_zero(self.g_left, self.g_right):
            raise ValueError("bracket endpoint values must have opposite or zero sign")


@dataclass(frozen=True, slots=True)
class BisectionState:
    c_left: float
    c_right: float
    c_mid: float
    iterations: int


@dataclass(frozen=True, slots=True)
class SamplePoint:
    x: float
    value: float | None
    error: DomainError | None = None


def sample(f: Evaluator, iv: Interval, n: int) -> list[SamplePoint]:
    """Evaluate ``f`` at ``n`` uniformly spaced points including both endpoints.

    Per-point DomainErrors are recorded on the sample, not raised.
    """
    if n < 2:
        raise ValueError("need at least two sample points")
    step = iv.width / (n - 1)
    points: list[SamplePoint] = []
    for i in range(n):
        # force the last point onto b so the grid ends exactly at the endpoint
        x = iv.b if i == n - 1 else iv.a + i * step
        try:
            points.append(SamplePoint(x, f(x)))
        except DomainError as err:
            points.append(SamplePoint(x, None, err))
    return points


def first_bracket(points: Sequence[SamplePoint]) -> Bracket | None:
    """First consecutive pair of valid samples with opposite-or-zero signs.

    Both values must be finite.  A failed sample breaks adjacency: no pair
    is formed across it.  Returns None when no such pair exists.
    """
    for p, q in zip(points, points[1:]):
        if p.error is not None or q.error is not None:
            continue
        if not (math.isfinite(p.value) and math.isfinite(q.value)):
            continue
        if opposite_or_zero(p.value, q.value):
            return Bracket(p.x, q.x, p.value, q.value)
    return None


def bisect(
    g: Evaluator,
    br: Bracket,
    eps: float,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[float, BisectionState]:
    """Classic bisection of ``g`` over ``br`` down to bracket width ``eps``.

    Maintains the sign-change invariant at every step and returns the
    midpoint of the final bracket (or an exact zero of ``g`` found along
    the way) together with the final :class:`BisectionState`.  Raises
    MaxIterationsExceeded when the width is still above ``eps`` after
    ``max_iter`` iterations.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    left, right = br.left, br.right
    g_left = br.g_left
    iterations = 0
    while right - left > eps:
        if iterations >= max_iter:
            raise MaxIterationsExceeded(
                f"bracket width {right - left!r} above eps {eps!r} after {max_iter} iterations"
            )
        mid = 0.5 * (left + right)
        g_mid = g(mid)
        iterations += 1
        if g_mid == 0.0:
            return mid, BisectionState(left, right, mid, iterations)
        if opposite_or_zero(g_left, g_mid):
            right = mid
        else:
            left, g_left = mid, g_mid
    root = 0.5 * (left + right)
    return root, BisectionState(left, right, root, iterations)
