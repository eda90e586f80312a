import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvtcheck.expr import DomainError, DomainErrorKind, compile_evaluator, parse
from mvtcheck.numeric import (
    Bracket,
    Interval,
    bisect,
    first_bracket,
    midpoint,
    sample,
)

from oracles import central_difference

# independently computed: bisection of cos(x) - 2/pi on [0, pi/2]
ARCCOS_2_OVER_PI = 0.8806892354203566


# --- types ------------------------------------------------------------------


def test_interval_validation():
    assert Interval(0.0, 1.0).width == 1.0
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)
    with pytest.raises(ValueError, match="interval width overflows"):
        Interval(-1e308, 1e308)


def test_bracket_validation():
    Bracket(0.0, 1.0, -1.0, 1.0)
    Bracket(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Bracket(1.0, 0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        Bracket(0.0, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        Bracket(0.0, 1.0, math.nan, 1.0)


# --- central_difference -----------------------------------------------------


def test_central_difference_quadratic():
    assert abs(central_difference(lambda x: x * x, 1.0, 1e-5) - 2.0) <= 1e-9


def test_central_difference_sin_at_zero():
    assert abs(central_difference(math.sin, 0.0, 1e-5) - 1.0) <= 1e-10


def test_central_difference_exp_at_one():
    assert abs(central_difference(math.exp, 1.0, 1e-5) - math.e) <= 1e-9


def test_central_difference_rejects_bad_h():
    with pytest.raises(ValueError):
        central_difference(math.sin, 0.0, 0.0)


def test_central_difference_propagates_domain_error():
    f = compile_evaluator(parse("ln(x)"))
    with pytest.raises(DomainError):
        central_difference(f, 1e-6, 1e-5)


@given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_central_difference_degree_two_accuracy(x):
    f = lambda t: 3.0 * t * t - 2.0 * t + 1.0
    exact = 6.0 * x - 2.0
    assert abs(central_difference(f, x, 1e-5) - exact) <= 1e-9 * max(1.0, abs(exact))


# --- sample -----------------------------------------------------------------


def test_sample_uniform_grid():
    pts = sample(lambda x: x, Interval(0.0, 1.0), 3)
    assert [(p.x, p.value) for p in pts] == [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]


def test_sample_records_domain_errors():
    f = compile_evaluator(parse("1/x"))
    pts = sample(f, Interval(-1.0, 1.0), 3)
    assert pts[0].value == -1.0
    assert pts[1].value is None and isinstance(pts[1].error, DomainError)
    assert pts[2].value == 1.0
    assert pts.failures == {1: DomainErrorKind.DIVISION_BY_ZERO}


def test_sample_sine_closed_forms():
    half_sqrt2 = math.sqrt(2.0) / 2.0
    pts = sample(math.sin, Interval(0.0, math.pi), 5)
    expected = [0.0, half_sqrt2, 1.0, half_sqrt2, 0.0]
    for p, want in zip(pts, expected):
        assert abs(p.value - want) <= 1e-15


def test_sample_needs_two_points():
    with pytest.raises(ValueError):
        sample(math.sin, Interval(0.0, 1.0), 1)


@given(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
    st.integers(min_value=2, max_value=200),
)
def test_sample_endpoints_exact_and_spacing_uniform(a, width, n):
    iv = Interval(a, a + width)
    pts = sample(lambda x: 0.0, iv, n)
    xs = [p.x for p in pts]
    assert xs[0] == iv.a and xs[-1] == iv.b
    step = iv.width / (n - 1)
    scale = max(abs(iv.a), abs(iv.b))
    for u, v in zip(xs, xs[1:]):
        assert abs((v - u) - step) <= 2.0 * math.ulp(scale)


# --- first_bracket ----------------------------------------------------------


def test_bracket_linear_sign_change():
    br = first_bracket(sample(lambda x: x - 2.0, Interval(1.0, 3.0), 5))
    assert br is not None
    assert br.left <= 2.0 <= br.right


def test_bracket_absent_when_no_sign_change():
    assert first_bracket(sample(lambda x: x * x + 1.0, Interval(-1.0, 1.0), 9)) is None


def test_bracket_cosine_secant_equation():
    g = lambda x: math.cos(x) - 2.0 / math.pi
    br = first_bracket(sample(g, Interval(0.0, math.pi / 2), 9))
    assert br is not None
    assert br.left <= ARCCOS_2_OVER_PI <= br.right


def test_bracket_not_formed_across_failed_points():
    # 1/x changes sign across 0 but the failing middle sample splits the scan
    f = compile_evaluator(parse("1/x"))
    assert first_bracket(sample(f, Interval(-1.0, 1.0), 3)) is None


def test_bracket_not_formed_between_equal_points():
    # two floats wide: the 5-point grid rounds its first two points to 1.0,
    # and a pair of equal points brackets nothing
    b = math.nextafter(math.nextafter(1.0, 2.0), 2.0)
    scan = sample(lambda x: 0.0, Interval(1.0, b), 5)
    assert scan.xs[0] == scan.xs[1]
    br = first_bracket(scan)
    assert br is not None
    assert br.left < br.right


# --- bisect -----------------------------------------------------------------


def test_midpoint_of_huge_endpoints_is_finite():
    assert 0.5 * (1e308 + 1.7e308) == math.inf
    assert midpoint(1e308, 1.7e308) == 1.35e308


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(finite_floats, finite_floats)
def test_midpoint_lies_between_and_matches_the_plain_formula(u, v):
    u, v = min(u, v), max(u, v)
    mid = midpoint(u, v)
    assert u <= mid <= v
    exact_halves = min(abs(u), abs(v)) >= 2.0**-1021 or 0.0 in (u, v)
    if exact_halves and math.isfinite(u + v):
        assert mid == 0.5 * (u + v)


def test_bisect_linear():
    g = lambda x: x - 2.0
    root, state = bisect(g, Bracket(1.0, 3.0, g(1.0), g(3.0)), 1e-10)
    assert abs(root - 2.0) <= 1e-10
    assert state.c_left <= root <= state.c_right


def test_bisect_sqrt2():
    g = lambda x: x * x - 2.0
    root, state = bisect(g, Bracket(0.0, 2.0, g(0.0), g(2.0)), 1e-12)
    assert abs(root - math.sqrt(2.0)) <= 1e-12
    assert state.iterations <= 42


def test_bisect_odd_symmetry():
    root, _ = bisect(lambda x: x, Bracket(-1.0, 1.0, -1.0, 1.0), 1e-10)
    assert abs(root) <= 1e-10


def test_bisect_exact_zero_early_return():
    g = lambda x: x - 0.5
    root, state = bisect(g, Bracket(0.0, 1.0, -0.5, 0.5), 1e-15)
    assert root == 0.5
    assert state.iterations == 1


def test_bisect_below_float_resolution_ends_at_adjacent_floats():
    # no float is a root of x*x - 2, so only float resolution stops the loop
    g = lambda x: x * x - 2.0
    root, state = bisect(g, Bracket(1.0, 2.0, g(1.0), g(2.0)), 1e-300)
    assert state.c_right == math.nextafter(state.c_left, math.inf)
    assert g(state.c_left) < 0.0 < g(state.c_right)
    assert root in (state.c_left, state.c_right)


def test_bisect_between_huge_endpoints():
    # left + right overflows: every midpoint must still be finite
    g = lambda x: x - 1.3e308
    root, state = bisect(g, Bracket(1e308, 1.7e308, g(1e308), g(1.7e308)), 1e-10)
    assert root == 1.3e308 or state.c_right == math.nextafter(state.c_left, math.inf)
    assert state.c_left <= 1.3e308 <= state.c_right
    assert state.iterations > 0


def test_bisect_stops_at_adjacent_floats():
    calls = []

    def g(x):
        calls.append(x)
        return x - 1.0

    left, right = 1.0, math.nextafter(1.0, 2.0)
    root, state = bisect(g, Bracket(left, right, -1.0, 1.0), 1e-300)
    assert root in (left, right)
    assert (state.c_left, state.c_right, state.iterations) == (left, right, 0)
    assert calls == []


def test_bisect_rejects_bad_eps():
    with pytest.raises(ValueError):
        bisect(lambda x: x, Bracket(-1.0, 1.0, -1.0, 1.0), 0.0)


@given(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.25, max_value=20.0, allow_nan=False),
    st.floats(min_value=1e-9, max_value=1e-3, allow_nan=False),
)
def test_bisect_contract_on_linear_roots(lo, width, eps):
    # root strictly inside the bracket, no exact-zero shortcuts expected
    root_true = lo + width * 0.37
    g = lambda x: x - root_true
    br = Bracket(lo, lo + width, g(lo), g(lo + width))
    root, state = bisect(g, br, eps)
    assert abs(root - root_true) <= eps
    assert br.left <= root <= br.right
    assert state.iterations <= math.ceil(math.log2(width / eps)) + 1
    # preserved sign change on the final bracket
    assert g(state.c_left) * g(state.c_right) <= 0.0


def test_bisect_width_contraction():
    g = lambda x: math.cos(x) - 0.3
    br = Bracket(0.0, 1.5, g(0.0), g(1.5))
    root, state = bisect(g, br, 1e-11)
    width = state.c_right - state.c_left
    bound = 1.5 / 2.0**state.iterations + 4.0 * math.ulp(1.5)
    assert width <= bound
