import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtcheck.expr import Binary, Constant, DomainError, Variable, evaluate, parse
from mvtcheck.numeric import Interval
from mvtcheck.theorem import (
    Applicable,
    MAX_SAMPLES,
    Config,
    Method,
    NotApplicable,
    Reason,
    Unknown,
    secant_slope,
    verify_mvt,
    verify_rolle,
)

from strategies import poly_coefficients, polynomial

# independently computed: bisection of cos(x) - 2/pi on [0, pi/2]
ARCCOS_2_OVER_PI = 0.8806892354203566


def test_config_validation():
    with pytest.raises(ValueError):
        Config(eps_c=0.0)
    with pytest.raises(ValueError):
        Config(samples=1)
    with pytest.raises(ValueError, match="at most"):
        Config(samples=MAX_SAMPLES + 1)


# --- secant_slope -----------------------------------------------------------


def test_secant_slope_sine():
    m = secant_slope(parse("sin(x)"), Interval(0.0, math.pi / 2))
    assert m == 2.0 / math.pi


def test_secant_slope_quadratic_with_equal_endpoints():
    assert secant_slope(parse("x^2 - 4*x + 3"), Interval(1.0, 3.0)) == 0.0


def test_secant_slope_constant():
    assert secant_slope(Constant(5.0), Interval(0.0, 1.0)) == 0.0


def test_secant_slope_undefined_endpoint():
    with pytest.raises(DomainError):
        secant_slope(parse("ln(x)"), Interval(-1.0, 1.0))


# --- verify_mvt -------------------------------------------------------------


def test_mvt_sine_example():
    result = verify_mvt(parse("sin(x)"), Interval(0.0, math.pi / 2))
    assert isinstance(result, Applicable)
    assert result.method is Method.BRACKET_BISECT
    assert result.m == 2.0 / math.pi
    assert abs(result.c - ARCCOS_2_OVER_PI) <= 1e-8
    assert result.residual <= 1e-8
    assert 0.0 < result.c < math.pi / 2


def test_mvt_identity_is_degenerate():
    result = verify_mvt(parse("x"), Interval(0.0, 1.0))
    assert isinstance(result, Applicable)
    assert result.method is Method.DEGENERATE_CONSTANT
    assert result.c == 0.5
    assert result.m == 1.0


def test_mvt_abs_not_differentiable():
    result = verify_mvt(parse("abs(x)"), Interval(-1.0, 1.0))
    assert isinstance(result, NotApplicable)
    assert result.reason is Reason.NOT_DIFFERENTIABLE
    assert abs(result.witness) <= 1e-9


def test_mvt_tan_not_continuous():
    result = verify_mvt(parse("tan(x)"), Interval(0.0, 2.0))
    assert isinstance(result, NotApplicable)
    assert result.reason is Reason.NOT_CONTINUOUS
    assert abs(result.witness - math.pi / 2) <= 1e-6


def test_mvt_reciprocal_not_applicable():
    result = verify_mvt(parse("1/x"), Interval(-1.0, 1.0))
    assert isinstance(result, NotApplicable)


def test_mvt_suspected_touch_is_unknown():
    result = verify_mvt(parse("sqrt(x*x)"), Interval(-1.0, 1.0))
    assert isinstance(result, Unknown)


def test_mvt_steep_polynomial_meets_residual_tolerance():
    # f'' reaches ~2.5e4 here; plain width-eps bisection alone would leave
    # a residual far above eps_res
    result = verify_mvt(parse("10*x^5"), Interval(-5.0, 5.0))
    assert isinstance(result, Applicable)
    assert result.residual <= 1e-8


def test_mvt_applicable_fields_consistent():
    result = verify_mvt(parse("x^3"), Interval(0.0, 2.0))
    assert isinstance(result, Applicable)
    assert result.residual == abs(result.f_prime_at_c - result.m)
    # closed form: 3c^2 = (8 - 0)/2 -> c = 2/sqrt(3)
    assert result.c == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-9)


def test_mvt_sqrt_closed_form():
    # 1/(2 sqrt(c)) = 1 -> c = 1/4
    result = verify_mvt(parse("sqrt(x)"), Interval(0.0, 1.0))
    assert isinstance(result, Applicable)
    assert result.c == pytest.approx(0.25, abs=1e-8)


def test_mvt_log_closed_form():
    # 1/c = (1 - 0)/(e - 1) -> c = e - 1
    result = verify_mvt(parse("ln(x)"), Interval(1.0, math.e))
    assert isinstance(result, Applicable)
    assert result.c == pytest.approx(math.e - 1.0, abs=1e-8)


def test_mvt_negative_power_closed_form():
    # -2 c^-3 = (1/9 - 1)/2 -> c = (9/2)^(1/3)
    result = verify_mvt(parse("x^-2"), Interval(1.0, 3.0))
    assert isinstance(result, Applicable)
    assert result.c == pytest.approx(4.5 ** (1.0 / 3.0), abs=1e-8)


# --- verify_rolle -----------------------------------------------------------


def test_rolle_quadratic_example():
    result = verify_rolle(parse("x^2 - 4*x + 3"), Interval(1.0, 3.0))
    assert isinstance(result, Applicable)
    assert result.m == 0.0
    assert abs(result.c - 2.0) <= 1e-8
    assert result.residual <= 1e-10


def test_rolle_constant_function():
    result = verify_rolle(Constant(3.0), Interval(0.0, 1.0))
    assert isinstance(result, Applicable)
    assert result.method is Method.DEGENERATE_CONSTANT
    assert result.c == 0.5


def test_rolle_precondition_failure():
    result = verify_rolle(parse("x"), Interval(0.0, 1.0))
    assert isinstance(result, NotApplicable)
    assert result.reason is Reason.ROLLE_PRECONDITION_FAILED


def test_rolle_precondition_near_miss():
    result = verify_rolle(parse("x^2 - 4*x + 3"), Interval(1.0, 3.0000001))
    assert isinstance(result, NotApplicable)
    assert result.reason is Reason.ROLLE_PRECONDITION_FAILED


def test_rolle_undefined_endpoint():
    result = verify_rolle(parse("ln(x)"), Interval(-1.0, 1.0))
    assert isinstance(result, NotApplicable)
    assert result.reason is Reason.UNDEFINED


# --- properties -------------------------------------------------------------


@given(
    poly_coefficients,
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=0.5, max_value=6.0, allow_nan=False),
)
@settings(deadline=None, max_examples=60)
def test_polynomial_completeness_and_soundness(coeffs, a, width):
    f = polynomial(coeffs)
    result = verify_mvt(f, Interval(a, a + width))
    assert isinstance(result, Applicable)
    assert result.residual == abs(result.f_prime_at_c - result.m)
    if result.method is not Method.RESIDUAL_MIN:
        assert result.residual <= 1e-8
    assert a < result.c < a + width


@given(
    st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        min_size=1,
        max_size=4,
    ),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
)
@settings(deadline=None, max_examples=50)
def test_rolle_mvt_consistency(coeffs, a, width):
    # p(x) * (x - a) * (x - b) hits exactly zero at both endpoints
    b = a + width
    f = Binary(
        "*",
        polynomial(coeffs),
        Binary("*", Binary("-", Variable(), Constant(a)), Binary("-", Variable(), Constant(b))),
    )
    assert evaluate(f, a) == 0.0 and evaluate(f, b) == 0.0
    iv = Interval(a, b)
    rolle = verify_rolle(f, iv)
    mvt = verify_mvt(f, iv)
    assert isinstance(rolle, Applicable)
    assert isinstance(mvt, Applicable)
    assert abs(rolle.m - mvt.m) <= 1e-12
    for result in (rolle, mvt):
        assert abs(result.f_prime_at_c - result.m) <= 1e-8
        assert iv.a < result.c < iv.b


@given(
    st.lists(st.integers(min_value=-10, max_value=10), min_size=1, max_size=5),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-10, max_value=10),
)
@settings(deadline=None, max_examples=40)
def test_shift_invariance(int_coeffs, a, width, k):
    # integer data keeps f(a) + k exact, so the whole pipeline must agree
    # bit for bit between f and f + k
    f = polynomial([float(c) for c in int_coeffs])
    shifted = Binary("+", f, Constant(float(k)))
    iv = Interval(float(a), float(a + width))
    r1 = verify_mvt(f, iv)
    r2 = verify_mvt(shifted, iv)
    assert type(r1) is type(r2)
    if isinstance(r1, Applicable):
        assert repr(r1.c) == repr(r2.c)
        assert r1.m == r2.m
        assert r1.method is r2.method
