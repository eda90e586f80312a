import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtcheck.expr import Binary, Constant, DomainError, Variable, evaluate, parse
from mvtcheck.numeric import Interval
from mvtcheck.theorem import (
    EPS_RES,
    MAX_SAMPLES,
    Applicable,
    Config,
    Method,
    NotApplicable,
    Reason,
    Unknown,
    secant_slope,
    verify_mvt,
    verify_rolle,
)

from oracles import central_difference
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


@pytest.mark.parametrize(
    "text, a, b, slope",
    [("1e307*x", -10.0, 10.0, 1e307), ("1e308*x", -1.5, 1.5, 1e308)],
)
def test_secant_slope_stays_finite_where_the_rise_overflows(text, a, b, slope):
    # f(b) - f(a) exceeds the float range, the slope does not
    f, iv = parse(text), Interval(a, b)
    assert secant_slope(f, iv) == slope
    result = verify_mvt(f, iv)
    assert result == Applicable(0.0, slope, slope, 0.0, 0, Method.DEGENERATE_CONSTANT)


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


def test_mvt_not_continuous_witness_is_the_pole_not_a_kink():
    # the abs kink at -0.9 comes first on the grid, but f is continuous there
    result = verify_mvt(parse("abs(x+0.9) + 1/x"), Interval(-1.0, 1.0))
    assert isinstance(result, NotApplicable)
    assert result.reason is Reason.NOT_CONTINUOUS
    assert abs(result.witness) <= 1e-9


def test_mvt_reciprocal_not_applicable():
    result = verify_mvt(parse("1/x"), Interval(-1.0, 1.0))
    assert isinstance(result, NotApplicable)


def test_mvt_suspected_touch_is_unknown():
    result = verify_mvt(parse("sqrt(x*x)"), Interval(-1.0, 1.0))
    assert isinstance(result, Unknown)


def test_mvt_sampled_touch_is_unknown():
    # the grid's middle point is the touch itself: sqrt(x^2) is defined
    # there, but no sample tells a kink from a smooth touch like sqrt(x^4)
    result = verify_mvt(parse("sqrt(x^2)"), Interval(-1.0, 1.0), Config(samples=3))
    assert result == Unknown("differentiability on the open interval could not be confirmed")


def test_mvt_where_f_and_a_hazard_both_raise():
    # ln(x) is undefined below 0 and ln(ln(x)) below 1: both boundaries are
    # witnesses, and the first one is reported
    result = verify_mvt(parse("ln(ln(x))"), Interval(-0.5, 3.0))
    assert isinstance(result, NotApplicable)
    assert result.reason is Reason.NOT_CONTINUOUS
    assert abs(result.witness) <= 1e-9


@pytest.mark.parametrize(
    "text, a, b",
    [("x^2", 0.0, 5e-324), ("x^2", 1.0, 1.0000000000000002), ("x^3", 1.0, 1.0000000000000002)],
)
def test_mvt_interval_without_an_inner_float_is_unknown(text, a, b):
    # the midpoint rounds to an endpoint, which is no c strictly inside (a, b)
    result = verify_mvt(parse(text), Interval(a, b))
    assert result == Unknown("no float lies strictly inside (a, b)")


def test_mvt_steep_polynomial_meets_residual_tolerance():
    # f'' reaches ~2.5e4 here; plain width-eps bisection alone would leave
    # a residual far above eps_res
    result = verify_mvt(parse("10*x^5"), Interval(-5.0, 5.0))
    assert isinstance(result, Applicable)
    assert result.residual <= 1e-8


def test_mvt_far_from_zero_bisects_to_float_resolution():
    # eps_c = 1e-10 is below ulp(1e6): bisection stops at adjacent floats
    a, b = 1e6, 1e6 + 2.0
    result = verify_mvt(parse("sin(x)"), Interval(a, b))
    assert isinstance(result, Applicable)
    assert a < result.c < b
    assert abs(math.cos(result.c) - (math.sin(b) - math.sin(a)) / (b - a)) <= 1e-8


def test_mvt_steep_far_from_zero_reports_the_residual():
    # ulp(1e7) moves 3x^2 by about 0.1, far above eps_res
    result = verify_mvt(parse("x^3"), Interval(1e7, 1e7 + 3.0))
    assert isinstance(result, Unknown)
    assert result.detail.startswith("sign change located but residual")


def test_mvt_wide_interval_bisects_as_long_as_it_takes():
    # eps_c = 1e-10 is about 2^-529 of this width: far more halvings than
    # the 200 a cap once allowed
    result = verify_mvt(parse("x^2"), Interval(-1e150, 1e150))
    assert isinstance(result, Applicable)
    assert result.method is Method.BRACKET_BISECT
    assert result.iterations > 200
    assert abs(2.0 * result.c - result.m) <= 1e-8
    assert result.residual == abs(2.0 * result.c - result.m)


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


# --- residual minimum -------------------------------------------------------
#
# Where the scan of f' - m finds no sign change, a golden-section search
# around the sample of smallest |f' - m| looks for c.


def test_residual_min_finds_a_touching_zero():
    # f' = 3x^2 touches m = 0 at 0 without changing sign
    iv = Interval(-7e-5, 7e-5)
    result = verify_rolle(parse("x^3"), iv)
    assert isinstance(result, Applicable)
    assert result.method is Method.RESIDUAL_MIN
    assert result.residual <= EPS_RES
    assert result.residual == abs(result.f_prime_at_c - result.m)
    assert iv.a < result.c < iv.b


def test_residual_min_between_two_samples():
    # with two samples, the scan sees no sign change of f' - m
    f = parse("2*sin(5*x) + 1*cos(2*x)")
    iv = Interval(-1.0, 1.0)
    result = verify_mvt(f, iv, Config(samples=2))
    assert isinstance(result, Applicable)
    assert result.method is Method.RESIDUAL_MIN
    assert result.residual <= EPS_RES
    assert iv.a < result.c < iv.b

    def fn(x):
        return 2.0 * math.sin(5.0 * x) + math.cos(2.0 * x)

    m = (fn(iv.b) - fn(iv.a)) / iv.width
    assert central_difference(fn, result.c, 1e-5) == pytest.approx(m, abs=1e-6)


def test_residual_min_reports_a_residual_above_tolerance():
    f = parse("8.788 + 9.169*x + (-4.853)*x^2 + 3.934*x^3")
    result = verify_mvt(f, Interval(-1.075, 1.781), Config(samples=2))
    assert isinstance(result, Unknown)
    assert result.detail.startswith("no sign change at sample resolution")


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


def test_mvt_overflow_is_not_continuous():
    # f is non-finite on |x| < 0.168, under half the grid, and has no
    # hazard that could account for it
    f = parse("exp(800*(1 - 4*x^2))")
    result = verify_mvt(f, Interval(-1.0, 1.0))
    assert isinstance(result, NotApplicable)
    assert result.reason is Reason.NOT_CONTINUOUS
    with pytest.raises(DomainError):
        evaluate(f, result.witness)


# --- records ----------------------------------------------------------------


def test_result_and_config_reprs():
    assert repr(Config()) == "Config(eps_c=1e-10, samples=1024)"
    assert repr(Applicable(0.5, 1.0, 1.0, 0.0, 3, Method.BRACKET_BISECT)) == (
        "Applicable(c=0.5, m=1.0, f_prime_at_c=1.0, residual=0.0, iterations=3,"
        " method=<Method.BRACKET_BISECT: 'bracket_bisect'>)"
    )
    assert repr(NotApplicable(Reason.UNDEFINED)) == (
        "NotApplicable(reason=<Reason.UNDEFINED: 'undefined'>, witness=None)"
    )
    assert repr(Unknown("why")) == "Unknown(detail='why')"


def test_results_compare_and_hash_by_value():
    built = [
        (Config(samples=97), Config(1e-10, 97)),
        (NotApplicable(Reason.UNDEFINED, 0.5), NotApplicable(reason=Reason.UNDEFINED, witness=0.5)),
        (Applicable(0.5, 1.0, 1.0, 0.0, 3, Method.RESIDUAL_MIN),
         Applicable(0.5, 1.0, 1.0, 0.0, 3, method=Method.RESIDUAL_MIN)),
        (Interval(0.0, 1.0), Interval(b=1.0, a=0.0)),
    ]
    for one, other in built:
        assert one == other and not one != other
        assert hash(one) == hash(other)
    assert Config() != Config(samples=97)
    assert len({Unknown("a"), Unknown("a"), Unknown("b")}) == 2


def test_results_survive_copy_and_pickle():
    for record in [Config(samples=97), Interval(0.0, 1.0), NotApplicable(Reason.UNDEFINED, 0.5),
                   Applicable(0.5, 1.0, 1.0, 0.0, 3, Method.BRACKET_BISECT), parse("x^2+sin(x)")]:
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


def test_results_of_different_classes_are_unequal():
    assert Unknown("x") != NotApplicable("x")
    assert NotApplicable(Reason.UNDEFINED, None) != (Reason.UNDEFINED, None)
    assert Interval(0.0, 1.0).__eq__((0.0, 1.0)) is NotImplemented


@pytest.mark.parametrize(
    "record, field",
    [(Config(), "samples"), (Unknown("why"), "detail"), (Interval(0.0, 1.0), "a"),
     (NotApplicable(Reason.UNDEFINED), "witness")],
)
def test_results_refuse_assignment_and_deletion(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown_field = 0
