import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvtcheck.calculus import (
    Verdict,
    WitnessKind,
    analyze_smoothness,
    differentiate,
    simplify,
)
from mvtcheck.expr import (
    Binary,
    Call,
    Constant,
    DomainError,
    Neg,
    Variable,
    compile_evaluator,
    evaluate,
    parse,
)
from mvtcheck.numeric import Interval
from mvtcheck.theorem import Config

from oracles import central_difference
from strategies import grammar_exprs, poly_coefficients, polynomial, smooth_exprs

CFG = Config()
# step of the central-difference oracle
FD_STEP = 1e-5


def bisect_math(g, lo, hi, iters=200):
    """Plain bisection on a Python callable; independent of the package."""
    glo = g(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (glo <= 0.0 <= gm) or (gm <= 0.0 <= glo):
            hi = mid
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


# --- differentiate ----------------------------------------------------------


def test_derivative_of_quadratic_matches_closed_form():
    d = differentiate(parse("x^2 - 4*x + 3"))
    for i in range(32):
        x = -3.0 + i * 0.25
        want = 2.0 * x - 4.0
        assert abs(evaluate(d, x) - want) <= 1e-12 * max(1.0, abs(want))


def test_derivative_of_sin_is_cos():
    assert differentiate(parse("sin(x)")) == Call("cos", Variable())


def test_derivative_of_constant_is_zero():
    assert differentiate(Constant(7.0)) == Constant(0.0)


def test_derivative_of_product_against_central_difference():
    # d(x*sin(x)) checked with the finite-difference oracle at 16 points
    f = parse("x*sin(x)")
    d = compile_evaluator(differentiate(f))
    fe = compile_evaluator(f)
    for i in range(16):
        x = -3.0 + i * (6.0 / 15.0)
        sym = d(x)
        fd = central_difference(fe, x, FD_STEP)
        assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym))


@pytest.mark.parametrize(
    "source, point, expected",
    [
        ("tan(x)", 0.5, lambda x: 1.0 / math.cos(x) ** 2),
        ("ln(x)", 2.0, lambda x: 1.0 / x),
        ("sqrt(x)", 4.0, lambda x: 0.5 / math.sqrt(x)),
        ("exp(2*x)", 0.3, lambda x: 2.0 * math.exp(2.0 * x)),
        ("abs(x)", 2.0, lambda x: 1.0),
        ("abs(x)", -2.0, lambda x: -1.0),
        ("x^x", 1.5, lambda x: x**x * (math.log(x) + 1.0)),
        ("2^x", 1.0, lambda x: 2.0**x * math.log(2.0)),
        ("1/x", 2.0, lambda x: -1.0 / (x * x)),
        # negated literal exponent must use the power rule, which stays
        # defined for negative bases
        ("x^-2", -2.0, lambda x: -2.0 * x**-3.0),
        ("x^-2", 2.0, lambda x: -2.0 * x**-3.0),
    ],
)
def test_derivative_rules_pointwise(source, point, expected):
    d = differentiate(parse(source))
    assert evaluate(d, point) == pytest.approx(expected(point), rel=1e-12)


def test_abs_derivative_undefined_at_kink():
    d = differentiate(parse("abs(x)"))
    with pytest.raises(DomainError):
        evaluate(d, 0.0)


@given(smooth_exprs(), smooth_exprs(), st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@settings(deadline=None)
def test_derivative_linear_under_evaluation(u, v, x):
    du = differentiate(u)
    dv = differentiate(v)
    dsum = differentiate(Binary("+", u, v))
    try:
        a = evaluate(du, x)
        b = evaluate(dv, x)
        s = evaluate(dsum, x)
    except DomainError:
        assume(False)
    assert abs(s - (a + b)) <= 1e-12 * max(1.0, abs(a + b))


@given(smooth_exprs())
@settings(deadline=None, max_examples=60)
def test_derivative_against_finite_difference_oracle(e):
    d = compile_evaluator(differentiate(e))
    fe = compile_evaluator(e)
    h = FD_STEP
    for i in range(16):
        x = -1.8 + i * (3.6 / 15.0)  # sampled away from the interval ends
        try:
            sym = d(x)
            fd = central_difference(fe, x, h)
            fx = fe(x)
        except DomainError:
            assume(False)
        assume(abs(fx) <= 1e4 and abs(sym) <= 1e4)
        assert abs(sym - fd) <= 1e-5 * max(1.0, abs(sym))


# --- simplify ---------------------------------------------------------------


def test_simplify_multiplicative_identity():
    assert simplify(Binary("*", Constant(1.0), Variable())) == Variable()
    assert simplify(Binary("*", Variable(), Constant(1.0))) == Variable()


def test_simplify_constant_folding():
    assert simplify(Binary("+", Constant(2.0), Constant(3.0))) == Constant(5.0)
    assert simplify(Neg(Constant(2.0))) == Constant(-2.0)
    assert simplify(Call("cos", Constant(0.0))) == Constant(1.0)


def test_simplify_leaves_sin_alone():
    e = parse("sin(x)")
    assert simplify(e) == e


def test_simplify_zero_rules():
    assert simplify(Binary("+", Constant(0.0), Variable())) == Variable()
    assert simplify(Binary("+", Variable(), Constant(0.0))) == Variable()
    assert simplify(Binary("*", Variable(), Constant(0.0))) == Constant(0.0)
    assert simplify(Binary("^", Variable(), Constant(1.0))) == Variable()


def test_simplify_skips_undefined_folds():
    e = Binary("/", Constant(1.0), Constant(0.0))
    assert simplify(e) == e
    e = Call("ln", Constant(-1.0))
    assert simplify(e) == e


@given(grammar_exprs(), st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
def test_simplify_preserves_pointwise_value(e, x):
    simplified = simplify(e)
    try:
        want = evaluate(e, x)
    except DomainError:
        return  # simplification may only widen the domain
    assert evaluate(simplified, x) == want


# --- analyze_smoothness -----------------------------------------------------


def test_smoothness_of_quadratic():
    report = analyze_smoothness(parse("x^2 - 4*x + 3"), Interval(1.0, 3.0), CFG)
    assert report.continuous_on_closed is Verdict.YES
    assert report.differentiable_on_open is Verdict.YES
    assert report.witnesses == ()


def test_smoothness_abs_kink():
    report = analyze_smoothness(parse("abs(x)"), Interval(-1.0, 1.0), CFG)
    assert report.continuous_on_closed is Verdict.YES
    assert report.differentiable_on_open is Verdict.NO
    (w,) = report.witnesses
    assert w.kind is WitnessKind.ABS_KINK
    assert abs(w.point) <= 1e-9


def test_smoothness_tan_pole():
    report = analyze_smoothness(parse("tan(x)"), Interval(0.0, 2.0), CFG)
    assert report.continuous_on_closed is Verdict.NO
    pole = bisect_math(math.cos, 0.0, 2.0)  # independent oracle for pi/2
    assert any(
        w.kind is WitnessKind.POLE and abs(w.point - pole) <= 1e-9 for w in report.witnesses
    )


def test_smoothness_reciprocal_pole():
    report = analyze_smoothness(parse("1/x"), Interval(-1.0, 1.0), CFG)
    assert report.continuous_on_closed is Verdict.NO
    assert report.differentiable_on_open is Verdict.NO
    assert any(abs(w.point) <= 1e-9 for w in report.witnesses)


def test_smoothness_log_boundary():
    report = analyze_smoothness(parse("ln(x)"), Interval(-1.0, 1.0), CFG)
    assert report.continuous_on_closed is Verdict.NO
    assert any(w.kind is WitnessKind.LOG_OR_ROOT_BOUNDARY for w in report.witnesses)


def test_smoothness_sqrt_on_its_domain():
    report = analyze_smoothness(parse("sqrt(x)"), Interval(0.0, 1.0), CFG)
    assert report.continuous_on_closed is Verdict.YES
    assert report.differentiable_on_open is Verdict.YES


def test_smoothness_sqrt_touch_is_unknown():
    # sqrt(x*x) == abs(x): the tangential touch cannot be told apart from
    # sqrt(x^4) at sample resolution, so the verdict must not be YES
    report = analyze_smoothness(parse("sqrt(x*x)"), Interval(-1.0, 1.0), CFG)
    assert report.differentiable_on_open is not Verdict.YES


def test_smoothness_abs_of_square_is_smooth():
    report = analyze_smoothness(parse("abs(x*x + 1)"), Interval(-1.0, 1.0), CFG)
    assert report.continuous_on_closed is Verdict.YES
    assert report.differentiable_on_open is Verdict.YES


def test_smoothness_near_pole_is_suspected():
    report = analyze_smoothness(parse("1/(x*x)"), Interval(-1.0, 1.0), CFG)
    assert report.continuous_on_closed is not Verdict.YES


def test_smoothness_power_boundary():
    report = analyze_smoothness(parse("x^0.5"), Interval(-1.0, 1.0), CFG)
    assert report.continuous_on_closed is Verdict.NO
    assert any(w.kind is WitnessKind.POWER_BOUNDARY for w in report.witnesses)


def test_smoothness_negative_integer_power_is_a_pole():
    report = analyze_smoothness(parse("x^-2"), Interval(-1.0, 1.0), CFG)
    assert report.continuous_on_closed is Verdict.NO
    assert any(w.kind is WitnessKind.POLE and abs(w.point) <= 1e-9 for w in report.witnesses)
    clear = analyze_smoothness(parse("x^-2"), Interval(0.5, 2.0), CFG)
    assert clear.continuous_on_closed is Verdict.YES
    assert clear.differentiable_on_open is Verdict.YES


def test_smoothness_essentially_undefined():
    report = analyze_smoothness(parse("ln(x)"), Interval(-3.0, -1.0), CFG)
    assert report.continuous_on_closed is Verdict.NO
    assert report.witnesses[0].point == -3.0


@given(poly_coefficients, st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
@settings(deadline=None, max_examples=50)
def test_smoothness_of_polynomials(coeffs, a):
    report = analyze_smoothness(polynomial(coeffs), Interval(a, a + 2.0), CFG)
    assert report.continuous_on_closed is Verdict.YES
    assert report.differentiable_on_open is Verdict.YES
