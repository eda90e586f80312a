import math
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mvtcheck import calculus
from mvtcheck.calculus import (
    SmoothnessReport,
    Verdict,
    Witness,
    WitnessKind,
    analyze_smoothness,
    differentiate,
    simplify,
)
from mvtcheck.expr import (
    DomainError,
    DomainErrorKind,
    Expr,
    compile_evaluator,
    enclose,
    evaluate,
    format_expr,
    integer_exponent,
    parse,
    steps,
    tabulate,
)
from mvtcheck.numeric import Interval, grid
from mvtcheck.theorem import Config

from oracles import (
    Binary,
    Call,
    Constant,
    Neg,
    Variable,
    central_difference,
    reference_derivative,
    reference_format,
    reference_parse,
)
from strategies import grammar_exprs, poly_coefficients, polynomial, proven_hazard_exprs, smooth_exprs


def _parsed(tree) -> Expr:
    """The package's handle on the reference tree ``tree``, parsed from its text."""
    return parse(reference_format(tree))

# the pipeline's default sample count
SAMPLES = Config().samples
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
    f = parse("sin(x)")
    d = differentiate(f)
    assert d.tape is f.tape and d.tape.keys[d.slot] == ("cos", 0)


def test_derivative_of_constant_is_zero():
    d = differentiate(parse("7"))
    assert d.tape.constants[d.slot] == 0.0


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


# format_expr(differentiate(source)) for every rule of the derivative and
# every fold of simplify, to be matched byte for byte
GOLDEN_DERIVATIVES = [
    ("7", "0"),
    ("x", "1"),
    ("-x", "(-1)"),
    ("-(sin(x))", "(-cos(x))"),
    ("-2*x", "(-2)"),
    ("x + 3", "1"),
    ("x - x^3", "(1 - (3 * (x ^ 2)))"),
    ("x*sin(x)", "(sin(x) + (x * cos(x)))"),
    ("(2*3)*x", "6"),
    ("x*1", "1"),
    ("1*x", "1"),
    ("0*x + x", "1"),
    ("x*0 + 0", "0"),
    ("x + 0", "1"),
    ("x/(x^2 + 1)", "((((x ^ 2) + 1) - (x * (2 * x))) / (((x ^ 2) + 1) ^ 2))"),
    ("1/x", "((-1) / (x ^ 2))"),
    ("x^2", "(2 * x)"),
    ("x^-2", "((-2) * (x ^ (-3)))"),
    ("x^0.5", "(0.5 * (x ^ (-0.5)))"),
    ("x^1", "1"),
    ("x^2^1", "(2 * x)"),
    ("(x^2)^1", "(2 * x)"),
    ("2^x", "((2 ^ x) * 0.6931471805599453)"),
    ("e^x", "(2.718281828459045 ^ x)"),
    ("x^x", "((x ^ x) * (ln(x) + (x / x)))"),
    ("(sin(x))^(cos(x))", "((sin(x) ^ cos(x)) * (((-sin(x)) * ln(sin(x))) + ((cos(x) * cos(x)) / sin(x))))"),
    ("ln(-1)*x", "ln((-1))"),
    ("sqrt(-1)*x", "(((0 / (2 * sqrt((-1)))) * x) + sqrt((-1)))"),
    ("(1/0)*x", "(((0 / 0) * x) + (1 / 0))"),
    ("sin(x)", "cos(x)"),
    ("cos(x)", "(-sin(x))"),
    ("tan(x)", "(1 / (cos(x) ^ 2))"),
    ("exp(x)", "exp(x)"),
    ("exp(2*x)", "(exp((2 * x)) * 2)"),
    ("ln(x)", "(1 / x)"),
    ("ln(x^2 + 1)", "((2 * x) / ((x ^ 2) + 1))"),
    ("sqrt(x)", "(1 / (2 * sqrt(x)))"),
    ("sqrt(1 - x^2)", "((0 - (2 * x)) / (2 * sqrt((1 - (x ^ 2)))))"),
    ("abs(x)", "(x / abs(x))"),
    ("abs(x - 1)", "((x - 1) / abs((x - 1)))"),
    ("sin(cos(x))", "(cos(cos(x)) * (-sin(x)))"),
    ("cos(2)*x", "(-0.4161468365471424)"),
    ("exp(0) + x^3", "(3 * (x ^ 2))"),
    ("2^3*x", "8"),
    ("pi*x^2", "(3.141592653589793 * (2 * x))"),
    ("x^-1", "((-1) * (x ^ (-2)))"),
]


@pytest.mark.parametrize("source, text", GOLDEN_DERIVATIVES)
def test_derivative_text_is_golden(source, text):
    assert format_expr(differentiate(parse(source))) == text


@given(grammar_exprs())
@settings(deadline=None)
def test_derivative_is_already_simplified(e):
    d = differentiate(_parsed(e))
    # the texts also tell -0.0 from 0.0, which == does not
    assert format_expr(simplify(d)) == format_expr(d)


@given(grammar_exprs())
@settings(deadline=None, max_examples=300)
# every identity rule, folds that fail (ln(-1), 1/0), -0.0, and each power rule
@example(reference_parse("x^2 + x^1*1 + 0*x - (-0)*x"))
@example(reference_parse("ln(-1)*x + 1/0 + 2^x + x^x + x^-2"))
@example(reference_parse("sqrt(x)/abs(x) + tan(x) - cos(x)*exp(2*x)"))
def test_derivative_text_matches_the_recursive_rules(e):
    # the tape's two loops build, node for node, what the rules build as a
    # tree: the texts also tell -0.0 from 0.0
    assert format_expr(differentiate(_parsed(e))) == reference_format(reference_derivative(e))


def test_derivative_reuses_the_slots_on_its_tape():
    # (sin(x)*x)' = cos(x)*x + sin(x)*1, folded to cos(x)*x + sin(x): x and
    # sin(x) keep the slots they hold for f, and no node of f is copied
    f = parse("sin(x)*x")
    t = f.tape
    _, sin, x = t.keys[f.slot]
    f_keys = list(t.keys)
    d = differentiate(f)
    assert d.tape is t and t.keys[: len(f_keys)] == f_keys
    _, product, sin_again = t.keys[d.slot]
    assert sin_again == sin
    _, cos, x_again = t.keys[product]
    assert x_again == x and t.keys[cos] == ("cos", x)
    assert format_expr(d) == "((cos(x) * x) + sin(x))"
    assert len(t.keys) == len(f_keys) + 4  # 1 (the derivative of x), cos(x), the product, the sum


def test_derivative_keys_only_what_the_folded_cone_reads():
    # 0*ln(x) folds to 0, so f' = 2*x reads no derivative of ln(x): its
    # 1/x is never keyed, though ln(x) stays on the tape
    d = differentiate(parse("0*ln(x) + x^2"))
    assert format_expr(d) == "(2 * x)"
    assert [key for key in d.tape.keys if key[0] == "/"] == []


@given(grammar_exprs())
@settings(deadline=None, max_examples=100)
def test_derivative_after_an_analysis_on_its_tape_is_the_fresh_one(e):
    # the analysis keeps step lists on e's tape and may fold e there: the
    # fold that the derivative runs on from those lists builds the same text
    h = _parsed(e)
    analyze_smoothness(h, Interval(-1.0, 1.1), 64)
    assert format_expr(differentiate(h)) == format_expr(differentiate(_parsed(e)))


def test_differentiate_reads_e_on_the_tape_it_is_given():
    # f is derived on its own tape: no node of f is keyed again, and the
    # result equals the one from a fresh parse.  A second derivative of f
    # finds every node of the first on the tape: the same handle, and no
    # new key
    source = "x^3*sin(x) + sin(x)/x"
    e = parse(source)
    f_keys = list(e.tape.keys)
    d = differentiate(e)
    assert d.tape is e.tape and e.tape.keys[: len(f_keys)] == f_keys
    assert format_expr(d) == format_expr(differentiate(parse(source)))
    known = len(e.tape.keys)
    assert differentiate(e) == d and len(e.tape.keys) == known


def test_a_chain_of_100001_nodes_differentiates_without_recursion():
    # -(-(...(x)...)): 100000 negations, far past the recursion limit
    e = parse("-" * 100_000 + "x")
    assert format_expr(differentiate(e)) == "1"
    assert format_expr(differentiate(parse("-" * 100_001 + "x"))) == "(-1)"
    # nothing folds, so the chain keeps its own slot
    assert simplify(e) == e


def test_abs_derivative_undefined_at_kink():
    d = differentiate(parse("abs(x)"))
    with pytest.raises(DomainError):
        evaluate(d, 0.0)


@given(smooth_exprs(), smooth_exprs(), st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@settings(deadline=None)
def test_derivative_linear_under_evaluation(u, v, x):
    du = differentiate(_parsed(u))
    dv = differentiate(_parsed(v))
    dsum = differentiate(_parsed(Binary("+", u, v)))
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
    f = _parsed(e)
    d = compile_evaluator(differentiate(f))
    fe = compile_evaluator(f)
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


def _simplified(text: str) -> str:
    return format_expr(simplify(parse(text)))


def test_simplify_multiplicative_identity():
    assert _simplified("1*x") == "x"
    assert _simplified("x*1") == "x"
    # on the input's tape, the result is the slot of x there
    e = parse("1*x")
    assert simplify(e) == Expr(e.tape, e.tape.put(("x",)))


def test_simplify_constant_folding():
    assert _simplified("2+3") == "5"
    assert _simplified("-2") == "(-2)"
    assert _simplified("cos(0)") == "1"
    e = simplify(parse("-2"))
    assert e.tape.constants[e.slot] == -2.0


def test_simplify_leaves_sin_alone():
    e = parse("sin(x)")
    assert simplify(e) == e


def test_simplify_zero_rules():
    assert _simplified("0+x") == "x"
    assert _simplified("x+0") == "x"
    assert _simplified("x*0") == "0"
    assert _simplified("x^1") == "x"


def test_simplify_skips_undefined_folds():
    e = parse("1/0")
    assert simplify(e) == e
    # -1 folds to a constant, and ln of it stays
    assert _simplified("ln(-1)") == "ln((-1))"


@given(grammar_exprs(), st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
def test_simplify_preserves_pointwise_value(e, x):
    e = _parsed(e)
    simplified = simplify(e)
    try:
        want = evaluate(e, x)
    except DomainError:
        return  # simplification may only widen the domain
    assert evaluate(simplified, x) == want


# --- analyze_smoothness -----------------------------------------------------


def test_smoothness_of_quadratic():
    report = analyze_smoothness(parse("x^2 - 4*x + 3"), Interval(1.0, 3.0), SAMPLES)
    assert report.continuous_on_closed is Verdict.YES
    assert report.differentiable_on_open is Verdict.YES
    assert report.witnesses == ()


def test_smoothness_does_not_depend_on_what_else_the_tape_holds():
    # the pole of 1/(x - 0.5) is on the tape first, but not in the cone of x^2
    iv, t = Interval(0.0, 1.0), parse("1/(x - 0.5)").tape
    square = Expr(t, t.put(("^", t.put(("x",)), t.put(("2.0",)))))
    report = analyze_smoothness(square, iv, SAMPLES)
    assert report == analyze_smoothness(parse("x^2"), iv, SAMPLES)
    assert report == SmoothnessReport(Verdict.YES, Verdict.YES, ())


def test_smoothness_abs_kink():
    report = analyze_smoothness(parse("abs(x)"), Interval(-1.0, 1.0), SAMPLES)
    assert report.continuous_on_closed is Verdict.YES
    assert report.differentiable_on_open is Verdict.NO
    (w,) = report.witnesses
    assert w.kind is WitnessKind.ABS_KINK
    assert abs(w.point) <= 1e-9


def test_smoothness_tan_pole():
    report = analyze_smoothness(parse("tan(x)"), Interval(0.0, 2.0), SAMPLES)
    assert report.continuous_on_closed is Verdict.NO
    pole = bisect_math(math.cos, 0.0, 2.0)  # independent oracle for pi/2
    assert any(
        w.kind is WitnessKind.POLE and abs(w.point - pole) <= 1e-9 for w in report.witnesses
    )


def test_smoothness_reciprocal_pole():
    report = analyze_smoothness(parse("1/x"), Interval(-1.0, 1.0), SAMPLES)
    assert report.continuous_on_closed is Verdict.NO
    assert report.differentiable_on_open is Verdict.NO
    assert any(abs(w.point) <= 1e-9 for w in report.witnesses)


def test_smoothness_log_boundary():
    report = analyze_smoothness(parse("ln(x)"), Interval(-1.0, 1.0), SAMPLES)
    assert report.continuous_on_closed is Verdict.NO
    assert any(w.kind is WitnessKind.LOG_OR_ROOT_BOUNDARY for w in report.witnesses)


def test_smoothness_sqrt_on_its_domain():
    report = analyze_smoothness(parse("sqrt(x)"), Interval(0.0, 1.0), SAMPLES)
    assert report.continuous_on_closed is Verdict.YES
    assert report.differentiable_on_open is Verdict.YES


def test_smoothness_sqrt_touch_is_unknown():
    # sqrt(x*x) == abs(x): the tangential touch cannot be told apart from
    # sqrt(x^4) at sample resolution, so the verdict must not be YES
    report = analyze_smoothness(parse("sqrt(x*x)"), Interval(-1.0, 1.0), SAMPLES)
    assert report.differentiable_on_open is not Verdict.YES


def test_smoothness_abs_of_square_is_smooth():
    report = analyze_smoothness(parse("abs(x*x + 1)"), Interval(-1.0, 1.0), SAMPLES)
    assert report.continuous_on_closed is Verdict.YES
    assert report.differentiable_on_open is Verdict.YES


def test_smoothness_near_pole_is_suspected():
    report = analyze_smoothness(parse("1/(x*x)"), Interval(-1.0, 1.0), SAMPLES)
    assert report.continuous_on_closed is not Verdict.YES


def test_smoothness_power_boundary():
    report = analyze_smoothness(parse("x^0.5"), Interval(-1.0, 1.0), SAMPLES)
    assert report.continuous_on_closed is Verdict.NO
    assert any(w.kind is WitnessKind.POWER_BOUNDARY for w in report.witnesses)


def test_smoothness_negative_integer_power_is_a_pole():
    report = analyze_smoothness(parse("x^-2"), Interval(-1.0, 1.0), SAMPLES)
    assert report.continuous_on_closed is Verdict.NO
    assert any(w.kind is WitnessKind.POLE and abs(w.point) <= 1e-9 for w in report.witnesses)
    clear = analyze_smoothness(parse("x^-2"), Interval(0.5, 2.0), SAMPLES)
    assert clear.continuous_on_closed is Verdict.YES
    assert clear.differentiable_on_open is Verdict.YES


@given(
    smooth_exprs(),
    st.integers(min_value=-6, max_value=6),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.5, max_value=4.0),
)
@settings(deadline=None, max_examples=50)
def test_smoothness_reads_the_exponents_value_not_its_spelling(base, k, a, width):
    iv = Interval(a, a + width)
    # the literal exponent k, negative too, keyed as a fold would key it
    b = _parsed(base)
    literal = Expr(b.tape, b.tape.put(("^", b.slot, b.tape.put((repr(float(k)),)))))
    expected = analyze_smoothness(literal, iv, SAMPLES)
    spellings = [
        Neg(Constant(float(-k))),
        Binary("/", Constant(float(2 * k)), Constant(2.0)),
        Binary("*", Constant(float(k)), Constant(1.0)),
        Binary("-", Constant(0.0), Constant(float(-k))),
    ]
    for exponent in spellings:
        assert analyze_smoothness(_parsed(Binary("^", base, exponent)), iv, SAMPLES) == expected


def test_smoothness_finds_a_pole_where_f_is_already_undefined():
    # 1/(x+0.5) has its pole where sqrt(x) already fails, so the pole's
    # divisor must be scanned at points where f itself raised
    report = analyze_smoothness(parse("sqrt(x) + 1/(x+0.5)"), Interval(-1.0, 1.0), SAMPLES)
    assert report.continuous_on_closed is Verdict.NO
    assert any(w.kind is WitnessKind.POLE and w.point == -0.5 for w in report.witnesses)


def test_smoothness_sampled_touch_leaves_differentiability_unknown():
    # x = 0 is a sample point, where sqrt's argument touches zero
    report = analyze_smoothness(parse("sqrt(x^2)"), Interval(-1.0, 1.0), 3)
    assert report == SmoothnessReport(Verdict.YES, Verdict.UNKNOWN, ())


def test_smoothness_witness_where_bisection_raises():
    # the abs argument 1/(x - 0.5) changes sign between the two samples,
    # but raises at the point bisection reaches: the witness is the midpoint
    report = analyze_smoothness(parse("abs(1/(x - 0.5))"), Interval(0.0, 1.0), 2)
    assert report == SmoothnessReport(
        Verdict.NO,
        Verdict.NO,
        (Witness(0.5, WitnessKind.ABS_KINK), Witness(0.5, WitnessKind.POLE)),
    )


def test_smoothness_where_f_and_a_hazard_both_raise():
    # below x = 1 f raises; where x <= 0 the hazard ln(x) raises as well,
    # and the scan of that hazard goes on without those points
    report = analyze_smoothness(parse("ln(ln(x))"), Interval(-0.5, 3.0), SAMPLES)
    assert report.continuous_on_closed is Verdict.NO
    assert [w.kind for w in report.witnesses] == [WitnessKind.LOG_OR_ROOT_BOUNDARY] * 2
    low, high = (w.point for w in report.witnesses)
    assert abs(low) <= 1e-9 and abs(high - 1.0) <= 1e-9


def test_smoothness_essentially_undefined():
    report = analyze_smoothness(parse("ln(x)"), Interval(-3.0, -1.0), SAMPLES)
    assert report.continuous_on_closed is Verdict.NO
    assert report.witnesses[0].point == -3.0


_LOG = WitnessKind.LOG_OR_ROOT_BOUNDARY
# where the root search (ITP) on x between the grid points of [-1, 1.1]
# around 0 stops
_ZERO = -8.710588588587696e-15
_KINK = Witness(_ZERO, WitnessKind.ABS_KINK)


@pytest.mark.parametrize(
    "text, a, b, samples, expected",
    [
        # an exact zero between strictly opposite signs is a crossing: a kink
        ("abs(x)", -1.0, 1.0, 3,
         SmoothnessReport(Verdict.YES, Verdict.NO, (Witness(0.0, WitnessKind.ABS_KINK),))),
        # the same crossing under sqrt: f is undefined left of it
        ("sqrt(x)", -1.0, 1.0, 3,
         SmoothnessReport(Verdict.NO, Verdict.NO, (Witness(0.0, _LOG),))),
        # the sqrt argument overflows at every sample: nothing to scan, so
        # a zero cannot be ruled out
        ("exp(-sqrt(1e308*x*10))", 1.0, 2.0, 16,
         SmoothnessReport(Verdict.UNKNOWN, Verdict.UNKNOWN, ())),
        # f undefined at more than half of the grid: witnesses at the first
        # undefined point and the first interior one
        ("ln(x)", -2.0, 1.0, 16,
         SmoothnessReport(Verdict.NO, Verdict.NO, (Witness(-2.0, _LOG), Witness(-1.8, _LOG)))),
        # ... and with no interior sample, differentiability is not refuted
        ("ln(x)", -2.0, -1.0, 2,
         SmoothnessReport(Verdict.NO, Verdict.UNKNOWN, (Witness(-2.0, _LOG),))),
        # -4/2 folds to the integer -2: the base's zero is a pole, as for x^-2
        ("x^(-4/2)", -1.0, 1.0, SAMPLES,
         SmoothnessReport(Verdict.NO, Verdict.NO, (Witness(0.0, WitnessKind.POLE),))),
        # abs(x) only touches 0 between grid points, where x crosses it: the
        # zero of an abs-wrapped divisor, ln argument or power base is found
        # through x, at the kink's point
        ("1/abs(x)", -1.0, 1.1, SAMPLES,
         SmoothnessReport(Verdict.NO, Verdict.NO, (_KINK, Witness(_ZERO, WitnessKind.POLE)))),
        ("ln(abs(x))", -1.0, 1.1, SAMPLES,
         SmoothnessReport(Verdict.NO, Verdict.NO, (_KINK, Witness(_ZERO, _LOG)))),
        ("abs(x)^-1", -1.0, 1.1, SAMPLES,
         SmoothnessReport(Verdict.NO, Verdict.NO, (_KINK, Witness(_ZERO, WitnessKind.POLE)))),
        # ... while sqrt is defined at the touch: only the kink is reported
        ("sqrt(abs(x))", -1.0, 1.1, SAMPLES,
         SmoothnessReport(Verdict.YES, Verdict.NO, (_KINK,))),
    ],
)
def test_smoothness_reports(text, a, b, samples, expected):
    assert analyze_smoothness(parse(text), Interval(a, b), samples) == expected


@given(poly_coefficients, st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
@settings(deadline=None, max_examples=50)
def test_smoothness_of_polynomials(coeffs, a):
    report = analyze_smoothness(_parsed(polynomial(coeffs)), Interval(a, a + 2.0), SAMPLES)
    assert report.continuous_on_closed is Verdict.YES
    assert report.differentiable_on_open is Verdict.YES


def test_smoothness_reports_where_f_overflows():
    # no hazard: f raises (non-finite) on |x| < 0.168, under half the grid
    f = parse("exp(800*(1 - 4*x^2))")
    report = analyze_smoothness(f, Interval(-1.0, 1.0), SAMPLES)
    assert report.continuous_on_closed is Verdict.NO
    assert report.differentiable_on_open is Verdict.NO
    assert report.witnesses
    for w in report.witnesses:
        assert w.kind is WitnessKind.POLE
        with pytest.raises(DomainError):
            evaluate(f, w.point)


@given(
    grammar_exprs(),
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=1e-6, max_value=60.0),
    st.sampled_from([33, 97]),
)
@settings(deadline=None)
def test_a_verdict_is_no_exactly_when_a_witness_refutes_it(e, a, width, samples):
    # NotApplicable needs a confirmed witness, and a witness is never left
    # without its verdict: an abs kink leaves f continuous, and only a
    # witness strictly inside (a, b) refutes differentiability there
    iv = Interval(a, a + width)
    report = analyze_smoothness(_parsed(e), iv, samples)
    assert (report.continuous_on_closed is Verdict.NO) == any(
        w.kind is not WitnessKind.ABS_KINK for w in report.witnesses
    )
    assert (report.differentiable_on_open is Verdict.NO) == any(
        iv.contains_open(w.point) for w in report.witnesses
    )


def _scanned(e, iv, samples):
    # analyze_smoothness as it runs when interval bounds prove nothing
    with mock.patch.object(calculus, "enclose", return_value=None):
        return analyze_smoothness(e, iv, samples)


@given(
    st.one_of(grammar_exprs(), smooth_exprs()),
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=1e-6, max_value=60.0),
    st.sampled_from([97, 1024]),
)
@settings(deadline=None)
def test_skipped_scan_would_find_nothing(e, a, width, samples):
    e, iv = _parsed(e), Interval(a, a + width)
    with mock.patch.object(calculus, "tabulate", wraps=calculus.tabulate) as scan:
        report = analyze_smoothness(e, iv, samples)
    if not scan.called:
        assert report == SmoothnessReport(Verdict.YES, Verdict.YES, ())
        assert _scanned(e, iv, samples) == report


@pytest.mark.parametrize(
    "text, a, b",
    [
        ("x^2 - 4*x + 3", 1.0, 3.0),
        ("1/(x + 2) + ln(x + 3) + sqrt(x + 4)", -1.0, 1.0),
        ("abs(x - 5) + tan(x)", -1.0, 1.0),
        ("x^-2", 0.5, 2.0),
    ],
)
def test_scan_is_skipped_where_bounds_clear_every_hazard(text, a, b):
    e, iv = parse(text), Interval(a, b)
    with mock.patch.object(calculus, "tabulate", wraps=calculus.tabulate) as scan:
        report = analyze_smoothness(e, iv, SAMPLES)
    assert not scan.called
    assert report == _scanned(e, iv, SAMPLES) == SmoothnessReport(Verdict.YES, Verdict.YES, ())


@pytest.mark.parametrize(
    "text, a, b",
    [
        # a zero of cos, tan's hazard, lies inside
        ("tan(x)", 1.5, 1.7),
        # the divisor gets within 1e-12 of zero at b: suspected, not cleared
        ("1/(x - 1.000000000001)", 0.0, 1.0),
        # f itself raises: bounds never clear it
        ("exp(800*(1 - 4*x^2))", -1.0, 1.0),
    ],
)
def test_scan_runs_where_bounds_cannot_clear(text, a, b):
    e, iv = parse(text), Interval(a, b)
    with mock.patch.object(calculus, "tabulate", wraps=calculus.tabulate) as scan:
        report = analyze_smoothness(e, iv, SAMPLES)
    assert scan.called
    assert report == _scanned(e, iv, SAMPLES)
    assert report.continuous_on_closed is not Verdict.YES


@given(
    st.one_of(grammar_exprs(), smooth_exprs()),
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=1e-6, max_value=60.0),
    st.sampled_from([33, 97, 1024]),
)
@settings(deadline=None)
def test_cleared_cells_change_no_witness_and_only_add_doubt(e, a, width, samples):
    _assert_bounds_change_no_witness_and_only_add_doubt(_parsed(e), Interval(a, a + width), samples)


@given(
    proven_hazard_exprs(),
    st.floats(min_value=-0.1, max_value=0.1),
    st.floats(min_value=0.9, max_value=1.1),
    st.sampled_from([97, 1024]),
)
@settings(deadline=None)
def test_proven_cells_the_hazards_clear_change_no_witness_and_only_add_doubt(e, a, width, samples):
    # f is proven undefined on some cells, which the hazards' own bounds
    # may clear out of the hazard pass, and the hazard is scanned on others
    _assert_bounds_change_no_witness_and_only_add_doubt(_parsed(e), Interval(a, a + width), samples)


def _assert_bounds_change_no_witness_and_only_add_doubt(e, iv, samples):
    report, full = analyze_smoothness(e, iv, samples), _scanned(e, iv, samples)
    assert report.witnesses == full.witnesses
    for verdict, scanned in (
        (report.continuous_on_closed, full.continuous_on_closed),
        (report.differentiable_on_open, full.differentiable_on_open),
    ):
        assert verdict is scanned or (scanned is Verdict.YES and verdict is Verdict.UNKNOWN)


def _scanned_points(e, iv, samples):
    """analyze_smoothness's report, and how many grid points its scan evaluated."""
    points = []

    def counted(t, outs, xs):
        points.append(len(xs))
        return tabulate(t, outs, xs)

    with mock.patch.object(calculus, "tabulate", counted):
        report = analyze_smoothness(e, iv, samples)
    return report, sum(points)


@pytest.mark.parametrize(
    "text, a, b, most",
    [
        # a pole and a kink inside: one cell of 32 grid intervals is scanned
        ("1/x", -1.0, 1.1, 33),
        ("abs(x - 0.3)", -1.0, 1.0, 33),
        # a log boundary: left of it bounds fail on every cell
        ("ln(x + 0.6)", -1.0, 1.0, 256),
        # f overflows around 0.7 only: the undefined points, the first of
        # them the witness, lie in the uncleared cells
        ("exp(800*(1 - 4*(x - 0.7)^2))", -1.0, 1.0, 257),
        # the divisor gets within 1e-12 of zero at b: only the last cell is
        # scanned, and the cleared ones are in the suspicion
        ("1/(x - 1.000000000001)", 0.0, 1.0, 33),
    ],
)
def test_scan_covers_only_the_cells_bounds_cannot_clear(text, a, b, most):
    e, iv = parse(text), Interval(a, b)
    report, points = _scanned_points(e, iv, SAMPLES)
    assert report == _scanned(e, iv, SAMPLES)
    assert report.continuous_on_closed is not Verdict.YES or report.differentiable_on_open is not Verdict.YES
    assert 0 < points <= most


@pytest.mark.parametrize(
    "text, a, b",
    [
        # the hazard touches zero, or comes within 1e-20 of it, between two
        # grid points: only its smallest sampled magnitude against the
        # largest over the whole grid, the cleared cells' bounds included,
        # leaves continuity in doubt
        ("sqrt((x - 0.312)^2)", -0.998, 1.266),
        ("1/((x - 0.222)^2 + 1e-20)", -0.969, 1.09),
        ("sqrt((x - (-0.956))^2)", -2.31, 0.124),
    ],
)
def test_cleared_cells_count_towards_the_suspicion_of_a_zero(text, a, b):
    e, iv = parse(text), Interval(a, b)
    report, points = _scanned_points(e, iv, 97)
    assert points < 97
    assert report.continuous_on_closed is Verdict.UNKNOWN
    assert report == _scanned(e, iv, 97)


def test_cells_that_clear_only_one_by_one_send_the_whole_grid_to_the_scan():
    # both halves clear, but together their bounds reach 1 + 1.5*9900,
    # where 1 is too near zero; the grid's largest value is 1 + 9900
    e, iv = parse("1/(1 + 9900*x*(2 - x))"), Interval(0.0, 1.0)
    report, points = _scanned_points(e, iv, SAMPLES)
    assert points == SAMPLES
    assert report == _scanned(e, iv, SAMPLES) == SmoothnessReport(Verdict.YES, Verdict.YES, ())


def test_bounds_that_fail_on_both_halves_are_not_split_further():
    # a pole in each half: bounds settle neither half, so neither is split
    e, iv = parse("1/x + 1/(x - 1)"), Interval(-0.5, 1.5)
    report, points = _scanned_points(e, iv, SAMPLES)
    assert points == SAMPLES
    assert report == _scanned(e, iv, SAMPLES)
    # a root boundary at 0.266 and the interval reaching far past it:
    # bounds on sqrt's argument prove f undefined on the right half, grid
    # rows 511 to 1023, which settles it, so the left half is split.  With
    # the cells between the boundary and row 511 proven too, that is more
    # than half of the grid, so those rows are counted, not sampled
    e, iv = parse("-0.5*x + 0.636*sqrt(0.266 - x)"), Interval(-0.423, 2.041)
    sampled = []
    row_of = {x: row for row, x in enumerate(grid(iv, SAMPLES))}

    def recorded(t, outs, xs):
        sampled.extend(row_of[x] for x in xs)
        return tabulate(t, outs, xs)

    with mock.patch.object(calculus, "tabulate", recorded):
        report = analyze_smoothness(e, iv, SAMPLES)
    assert sampled and max(sampled) < 511
    assert report == _scanned(e, iv, SAMPLES)
    assert report.continuous_on_closed is Verdict.NO


def test_a_tree_too_deep_to_walk_reports_the_kind_of_its_failure():
    # ln is undefined on three quarters of the grid, so the report reads
    # f's failure at its first and first interior undefined points.  The
    # sum is 1500 levels deep, f is read on its tape there, and the kind
    # stays the log boundary rather than becoming a non-finite value's pole
    e = parse("+".join(["x"] * 1500) + " + ln(x - 0.5)")
    report = analyze_smoothness(e, Interval(-1.0, 1.0), SAMPLES)
    assert report.witnesses == (
        Witness(-1.0, WitnessKind.LOG_OR_ROOT_BOUNDARY),
        Witness(-0.9980449657869013, WitnessKind.LOG_OR_ROOT_BOUNDARY),
    )
    assert report.continuous_on_closed is report.differentiable_on_open is Verdict.NO


def test_a_row_where_math_raises_gives_each_hazard_its_own_value():
    # exp(800*x) overflows right of 0.887, so f is None at those rows of
    # the scan; the pole at 0.95 lies among them, and the divisor x - 0.95,
    # which does not read exp, keeps its values there
    e, iv = parse("1/(x - 0.95) + exp(800*x)"), Interval(0.0, 1.0)
    seen = []

    def recorded(xs, values, *rest):
        seen.append((xs, values))
        return scan_zeros(xs, values, *rest)

    scan_zeros = calculus._scan_zeros
    with mock.patch.object(calculus, "_scan_zeros", recorded):
        report = analyze_smoothness(e, iv, SAMPLES)
    (xs, values), = seen
    assert any(x > 0.95 for x in xs)
    t = e.tape
    divisor = Expr(t, t.put(("-", t.put(("x",)), t.put(("0.95",)))))
    assert tabulate(t, [e.slot], xs[-1:]) == [[None]]
    assert [repr(v) for v in values] == [repr(_defined(divisor, x)) for x in xs]
    assert report == _scanned(e, iv, SAMPLES)
    assert report.witnesses == (Witness(0.95, WitnessKind.POLE),)


@pytest.mark.parametrize("text, built", [("tan(x) / (x*x + 1e-6)", 0), ("1/(x - 0.3) + sqrt(x + 2)", 1)])
def test_a_hazard_evaluator_is_built_only_for_a_root_search(text, built, monkeypatch):
    # neither hazard of the first changes sign on [-1, 1]; of the second,
    # only x - 0.3 does, and only its zero is searched for
    slots = []
    build = calculus.evaluator

    def counted(t, slot):
        slots.append(slot)
        return build(t, slot)

    monkeypatch.setattr(calculus, "evaluator", counted)
    report = analyze_smoothness(parse(text), Interval(-1.0, 1.0), SAMPLES)
    assert len(slots) == built
    assert [w.point for w in report.witnesses] == [0.3] * built


def _defined(e, x):
    try:
        return evaluate(e, x)
    except DomainError:
        return None


@pytest.mark.parametrize(
    "text, a, b",
    [
        ("-0.5*x + 0.636*sqrt(0.266 - x)", -0.423, 2.041),
        ("1.972*(x + 1.193)^2.5 + 1/(x + 1.5) + ln(x + 2)", -1.873, -0.871),
        ("ln(0.3 - x) + abs(x - 0.1) + tan(x)", -0.5, 1.5),
        ("sqrt(-ln(x)) + (x - 0.9)^-1", 0.5, 3.0),
        ("sqrt(x)", -1.0, 0.2),
    ],
)
def test_proven_undefined_rows_change_no_report(text, a, b):
    # more than half of the grid is proven undefined and left out of the
    # scan: the report is the one a scan of the whole grid gives
    e, iv = parse(text), Interval(a, b)
    report, points = _scanned_points(e, iv, SAMPLES)
    assert points < SAMPLES - SAMPLES // 2
    if text in ("sqrt(x)", "-0.5*x + 0.636*sqrt(0.266 - x)"):
        # bounds clear the defined side but for the cell at the boundary
        assert points <= 64
    assert report == _scanned(e, iv, SAMPLES)
    assert report.continuous_on_closed is Verdict.NO


def _tabulated(e, iv, samples):
    """analyze_smoothness's report, and per column pass its outputs and grid rows."""
    row_of = {x: row for row, x in enumerate(grid(iv, samples))}
    calls = []

    def recorded(t, outs, xs):
        calls.append(([format_expr(Expr(t, o)) for o in outs], [row_of[x] for x in xs]))
        return tabulate(t, outs, xs)

    with mock.patch.object(calculus, "tabulate", recorded):
        report = analyze_smoothness(e, iv, samples)
    return report, calls


@pytest.mark.parametrize(
    "text, a, b, calls, witnesses",
    [
        # bounds prove sqrt(x - 0.5) undefined on rows 0 to 447, which hold
        # the pole at 0.2, and no more than half of the grid: f and the
        # hazards share one pass.  The hazards' own bounds clear the proven
        # cells that span rows 255 to 447, so the pass skips the rows
        # strictly between: it tabulates 289 rows, those of the other
        # proven cells (the one holding the pole among them) and of the
        # cells after them
        (
            "sqrt(x - 0.5) + 1/(x - 0.2)",
            0.1,
            1.0,
            [
                (
                    ["(sqrt((x - 0.5)) + (1 / (x - 0.2)))", "(x - 0.5)", "(x - 0.2)"],
                    [*range(256), *range(447, 480)],
                ),
            ],
            (Witness(0.2, WitnessKind.POLE), Witness(0.5, WitnessKind.LOG_OR_ROOT_BOUNDARY)),
        ),
        # the proven rows are more than half of the grid: no hazard is
        # scanned, so f is tabulated alone, on the rows of the cells not
        # settled, whose last row 287 ends a proven cell
        (
            "-0.5*x + 0.636*sqrt(0.266 - x)",
            -0.423,
            2.041,
            [(["(((-0.5) * x) + (0.636 * sqrt((0.266 - x))))"], list(range(255, 288)))],
            (Witness(0.2682688172043011, WitnessKind.LOG_OR_ROOT_BOUNDARY),),
        ),
        # no row is proven undefined: f and its hazard share one pass
        (
            "1/x",
            -1.0,
            1.1,
            [(["(1 / x)", "x"], list(range(479, 512)))],
            (Witness(-8.710588588587696e-15, WitnessKind.POLE),),
        ),
    ],
)
def test_one_column_pass_tabulates_the_rows_that_bounds_did_not_clear(text, a, b, calls, witnesses):
    e, iv = parse(text), Interval(a, b)
    report, tabulated = _tabulated(e, iv, SAMPLES)
    assert tabulated == calls
    assert report == _scanned(e, iv, SAMPLES)
    assert report.witnesses == witnesses


@given(
    st.one_of(proven_hazard_exprs(), grammar_exprs()),
    st.floats(min_value=-0.1, max_value=0.1),
    st.floats(min_value=0.9, max_value=1.1),
    st.sampled_from([97, 1024]),
)
@settings(deadline=None)
def test_an_analysis_makes_at_most_one_column_pass(e, a, width, samples):
    e, iv = _parsed(e), Interval(a, a + width)
    with mock.patch.object(calculus, "tabulate", wraps=calculus.tabulate) as scan:
        analyze_smoothness(e, iv, samples)
    assert scan.call_count <= 1


def _proven_rows_left_out(e, iv, samples):
    """analyze_smoothness's report, and the rows of the cells that bounds
    prove ``e`` undefined on which no column pass reads."""
    t, top = e.tape, e.slot
    outs = [top, *(slot for slot, _, _ in calculus._collect_hazards(t, top))]
    proven = calculus._rows(calculus._triage(t, outs, iv, samples)[1])
    report, calls = _tabulated(e, iv, samples)
    return report, sorted(set(proven).difference(*(rows for _, rows in calls)))


@pytest.mark.parametrize(
    "text, a, b, witnesses, leaves",
    [
        # bounds prove f undefined left of 0.5, where two poles lie: the
        # hazards' own bounds clear some proven cells out of the hazard
        # pass, but not those that hold a pole, where the scan finds it
        (
            "sqrt(x - 0.5) + 1/(x - 0.2) + 1/(x - 0.45)",
            0.1,
            1.0,
            (
                Witness(0.2, WitnessKind.POLE),
                Witness(0.45, WitnessKind.POLE),
                Witness(0.5, WitnessKind.LOG_OR_ROOT_BOUNDARY),
            ),
            True,
        ),
        (
            "(x - 0.5)^0.75 + tan(5*x)",
            0.2,
            0.9,
            (Witness(0.31415926535898503, WitnessKind.POLE), Witness(0.5, WitnessKind.POWER_BOUNDARY)),
            True,
        ),
        # a pole of tan lies in each half of the grid, so bounds settle
        # neither half and prove no cell undefined: all is scanned
        (
            "(x - 0.5)^0.75 + tan(5*x)",
            0.1,
            1.0,
            (
                Witness(0.31415926535897987, WitnessKind.POLE),
                Witness(0.5, WitnessKind.POWER_BOUNDARY),
                Witness(0.9424777960769328, WitnessKind.POLE),
            ),
            False,
        ),
    ],
)
def test_a_pole_in_a_proven_cell_stays_in_the_hazard_pass(text, a, b, witnesses, leaves):
    e, iv = parse(text), Interval(a, b)
    report, left_out = _proven_rows_left_out(e, iv, SAMPLES)
    assert bool(left_out) is leaves
    assert report == _scanned(e, iv, SAMPLES)
    assert report.witnesses == witnesses


# --- records ----------------------------------------------------------------


def test_witness_and_report_reprs():
    assert repr(Witness(0.5, WitnessKind.POLE)) == "Witness(point=0.5, kind=<WitnessKind.POLE: 'pole'>)"
    assert repr(SmoothnessReport(Verdict.YES, Verdict.NO, ())) == (
        "SmoothnessReport(continuous_on_closed=<Verdict.YES: 'yes'>,"
        " differentiable_on_open=<Verdict.NO: 'no'>, witnesses=())"
    )


def test_witnesses_compare_and_hash_by_value():
    one, other = Witness(0.5, WitnessKind.POLE), Witness(point=0.5, kind=WitnessKind.POLE)
    assert one == other and hash(one) == hash(other)
    assert len({one, other, Witness(0.5, WitnessKind.ABS_KINK)}) == 2
    assert one != (0.5, WitnessKind.POLE)
    report = SmoothnessReport(Verdict.YES, Verdict.YES, (one,))
    assert report == SmoothnessReport(Verdict.YES, Verdict.YES, (other,))
    assert hash(report) == hash(SmoothnessReport(Verdict.YES, Verdict.YES, (other,)))


def test_witnesses_refuse_assignment_and_deletion():
    w = Witness(0.5, WitnessKind.POLE)
    with pytest.raises(AttributeError):
        w.point = 1.0
    with pytest.raises(AttributeError):
        del w.kind
    assert w == Witness(0.5, WitnessKind.POLE)


# --- hazard collection --------------------------------------------------------


def _taped(e: Expr):
    """``e``'s tape, and its slot there in a list, as enclose reads them."""
    return e.tape, [e.slot]


def _hazards(e):
    """_collect_hazards on a parse of the tree ``e``, each inner's text in place of its slot."""
    h = _parsed(e)
    found = calculus._collect_hazards(h.tape, h.slot)
    return [(format_expr(Expr(h.tape, slot)), kind, zero_undefined) for slot, kind, zero_undefined in found]


def _subtrees(e):
    """The distinct subexpressions of the tree ``e``, children first, as a tape of ``e`` holds them."""
    out = {}  # the subtrees met, in order; equal ones are one key

    def walk(node):
        for child in (getattr(node, name) for name in ("left", "right", "argument", "child") if hasattr(node, name)):
            walk(child)
        out.setdefault(node)

    walk(e)
    return list(out)


def _unwrap_abs(e):
    while isinstance(e, Call) and e.fn == "abs":
        e = e.argument
    return e


def _hazards_by_rewalking(e):
    """The hazard list as first defined: every candidate, kept when a walk
    of its inner expression finds x (quadratic in the nesting depth)."""
    found = []
    for node in _subtrees(e):
        if isinstance(node, Binary) and node.op == "/":
            found.append((node.right, WitnessKind.POLE, True))
        elif isinstance(node, Binary) and node.op == "^":
            exponent = simplify(_parsed(node.right))
            value = exponent.tape.constants.get(exponent.slot)
            n = None if value is None else integer_exponent(value)
            if n is None:
                found.append((node.left, WitnessKind.POWER_BOUNDARY, True))
            elif n < 0:
                found.append((node.left, WitnessKind.POLE, True))
        elif isinstance(node, Call) and node.fn in ("ln", "sqrt", "abs"):
            kind = WitnessKind.ABS_KINK if node.fn == "abs" else _LOG
            found.append((node.argument, kind, node.fn == "ln"))
        elif isinstance(node, Call) and node.fn == "tan":
            found.append((Call("cos", node.argument), WitnessKind.POLE, True))
    return [
        (reference_format(_unwrap_abs(inner) if zero_undefined else inner), kind, zero_undefined)
        for inner, kind, zero_undefined in found
        if any(isinstance(n, Variable) for n in _subtrees(inner))
    ]


@settings(deadline=None, max_examples=200)
@given(grammar_exprs(max_leaves=16))
def test_hazards_match_their_first_definition(e):
    assert _hazards(e) == _hazards_by_rewalking(e)


def test_hazards_of_a_deep_nest_match_their_first_definition():
    # 150 levels mixing every hazard, over x and over constants
    e = Variable()
    for level in range(150):
        wrap = level % 6
        if wrap == 0:
            e = Call("ln", Binary("+", e, Constant(2.0)))
        elif wrap == 1:
            e = Call("sqrt", Call("abs", e))
        elif wrap == 2:
            e = Binary("/", Constant(1.0), Binary("+", e, Call("tan", Constant(0.5))))
        elif wrap == 3:
            e = Binary("^", Binary("+", e, Constant(3.0)), Binary("/", Constant(1.0), Constant(3.0)))
        elif wrap == 4:
            e = Call("tan", Binary("*", Constant(1e-3), e))
        else:
            e = Binary("+", e, Call("ln", Constant(float(level))))
    hazards = _hazards(e)
    assert hazards == _hazards_by_rewalking(e)
    assert len(hazards) > 100


def test_hazards_of_deeply_nested_powers_match_their_first_definition():
    # (x+1)^((x+1)^(...)), 200 levels: each exponent is folded once, in
    # the walk, where simplify per exponent was quadratic in the depth
    e = Variable()
    for _ in range(200):
        e = Binary("^", Binary("+", Variable(), Constant(1.0)), e)
    hazards = _hazards(e)
    assert hazards == _hazards_by_rewalking(e)
    assert len(hazards) == 200


def test_nested_power_exponents_fold_in_linear_time(monkeypatch):
    # (x+1)^((x+1)^(...)): every exponent holds the one below it, so
    # folding each exponent anew calls _binary about 4 times as often at
    # twice the depth; one fold of f per analysis folds each node once
    calls = []
    binary = calculus._binary

    def counted_binary(op, left, right):
        calls.append(op)
        return binary(op, left, right)

    monkeypatch.setattr(calculus, "_binary", counted_binary)
    counts = []
    for levels in (100, 200):
        e = parse("(x + 1)^(" * levels + "x" + ")" * levels)
        calls.clear()
        calculus._collect_hazards(e.tape, e.slot)
        counts.append(len(calls))
    assert counts[0] >= 100 and counts[1] <= 2.2 * counts[0]


@pytest.mark.parametrize(
    "text, folds",
    [
        # a literal exponent is its own fold: f is not folded at all
        ("x^2 + x^3*sin(x)^2", 0),
        # the first exponent that is not a literal folds f once, for every power
        ("x^(1/3) + x^(2*x)", 1),
        ("(x+1)^" * 50 + "x", 1),
    ],
    ids=["literal", "non-literal", "nest-50"],
)
def test_the_hazard_search_folds_f_at_most_once(monkeypatch, text, folds):
    calls = []
    fold = calculus._simplify

    def counted_fold(*args):
        calls.append(args)
        return fold(*args)

    monkeypatch.setattr(calculus, "_simplify", counted_fold)
    e = parse(text)
    calculus._collect_hazards(e.tape, e.slot)
    assert len(calls) == folds


def test_domain_arguments_are_the_real_ones():
    # bounds prove a node undefined on all of [a, b] where the argument of ln
    # or sqrt, or the base of a non-integer constant power, leaves its
    # domain there, and the error is the rule's, at a.  abs is kept:
    # ln(abs(u)) is undefined only where u is zero, so u's sign proves
    # nothing; x^x has no constant exponent, and x^2 allows any base
    for text, a, b, kind in [
        ("ln(x - 0.5)", 0.0, 0.4, DomainErrorKind.LOG_OF_NON_POSITIVE),
        ("sqrt(x)", -2.0, -1.0, DomainErrorKind.ROOT_OF_NEGATIVE),
        ("x^0.5", -2.0, 0.0, DomainErrorKind.POWER_OF_NON_POSITIVE),
    ]:
        with pytest.raises(DomainError) as raised:
            enclose(*_taped(parse(text)), a, b)
        assert (raised.value.kind, raised.value.point) == (kind, a)
    for text in ("ln(abs(x - 0.5))", "x^x", "x^2"):
        enclose(*_taped(parse(text)), -2.0, -1.0)
    e = parse("ln(abs(x - 0.5)) + sqrt(x) + x^(1/2) + x^2 + x^x + ln(2)")
    iv = Interval(-1.0, 1.0)
    assert analyze_smoothness(e, iv, SAMPLES) == _scanned(e, iv, SAMPLES)


@pytest.mark.parametrize(
    "text",
    [
        # exponents with x that fold to a constant all the same
        "x^sin(x*0)",
        "x^(-(0*x) - 2)",
        "x^(ln(1 + 0*x) + 0.5)",
        "x^(1*(x*0 + 2))",
        "x^((x*0)^1 - 3)",
        # a zero factor folds away even a factor that fails to fold
        "x^(0^-1 * 0)",
        # exponents that do not fold
        "x^(x^0)",
        "x^(0^-1 + 1)",
        "(x - 1)^(2^(1/2))",
    ],
)
def test_hazards_of_folding_exponents_match_their_first_definition(text):
    e = reference_parse(text)
    assert _hazards(e) == _hazards_by_rewalking(e)


def test_one_analysis_keys_each_node_once(monkeypatch):
    # bounds on [-1, 1] settle neither the grid nor its halves, as the
    # divisor comes near 0 on both: three passes of bounds, on f's tape
    e = parse("tan(x) / (x*x + 1e-6)")
    t = e.tape
    lookups, passes = [], []
    bound = calculus.enclose

    class Lookups(dict):
        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

    def counted_enclose(tape, outs, a, b):
        passes.append((tape, steps(tape, outs)))
        return bound(tape, outs, a, b)

    t._keys = Lookups(t._keys)
    monkeypatch.setattr(calculus, "enclose", counted_enclose)
    analyze_smoothness(e, Interval(-1.0, 1.0), SAMPLES)
    # f's tape, and its steps listed once for every pass of bounds
    assert len(passes) >= 3 and all(tape is t and listed is passes[0][1] for tape, listed in passes)
    # the 6 nodes of f were keyed by parse; the analysis keys only the
    # cos(x) of tan's pole hazard, once
    assert lookups == [("cos", 0)]
    assert len(t.keys) == 7
