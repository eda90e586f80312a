import copy
import math
import pickle
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvtcheck import calculus, expr, theorem
from mvtcheck.calculus import analyze_smoothness, differentiate, simplify
from mvtcheck.expr import (
    DomainError,
    DomainErrorKind,
    Expr,
    Tape,
    compile_evaluator,
    evaluate,
    format_expr,
    parse,
    steps,
)
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

from oracles import (
    Binary,
    Call,
    Constant,
    Neg,
    ReferenceDomainError,
    Variable,
    central_difference,
    reference_evaluate,
    reference_format,
    reference_parse,
)
from strategies import grammar_exprs, poly_coefficients, polynomial, smooth_exprs


def _parsed(tree) -> Expr:
    """The package's handle on the reference tree ``tree``, parsed from its text."""
    return parse(reference_format(tree))


def _onto(t: Tape, f: Expr) -> Expr:
    """``f`` keyed onto ``t`` after what ``t`` holds: each key up to f's slot, in turn."""
    moved = []
    for part, *args in f.tape.keys[: f.slot + 1]:
        moved.append(t.put((part, *[moved[j] for j in args])))
    return Expr(t, moved[-1])

# independently computed: bisection of cos(x) - 2/pi on [0, pi/2]
ARCCOS_2_OVER_PI = 0.8806892354203566


def test_config_validation():
    for eps_c in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            Config(eps_c=eps_c)
    with pytest.raises(ValueError):
        Config(samples=1)
    with pytest.raises(ValueError, match="at most"):
        Config(samples=MAX_SAMPLES + 1)
    with pytest.raises(ValueError, match="integer"):
        Config(samples=2.5)


# --- secant_slope -----------------------------------------------------------


def test_secant_slope_sine():
    m = secant_slope(parse("sin(x)"), Interval(0.0, math.pi / 2))
    assert m == 2.0 / math.pi


def test_secant_slope_quadratic_with_equal_endpoints():
    assert secant_slope(parse("x^2 - 4*x + 3"), Interval(1.0, 3.0)) == 0.0


def test_secant_slope_constant():
    assert secant_slope(parse("5"), Interval(0.0, 1.0)) == 0.0


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


@pytest.mark.parametrize(
    "text, a, b",
    [("sin(x)", 0.0, math.pi / 2), ("1e308*x", -1.5, 1.5), ("ln(x)", -1.0, 1.0), ("x^2 + exp(x)", -2.0, 3.0)],
)
def test_secant_slope_does_not_depend_on_the_tape(text, a, b):
    # on f's own tape, and on a tape that holds more before f, which it
    # reads f on without adding to it
    f, iv = parse(text), Interval(a, b)

    def slope(f):
        try:
            return repr(secant_slope(f, iv))
        except DomainError as err:
            return repr((err.point, err.kind))

    other = _onto(parse("cos(x) + 1").tape, f)
    size = len(other.tape.keys)
    assert slope(f) == slope(other)
    assert len(other.tape.keys) == size


@given(st.one_of(grammar_exprs(), smooth_exprs()), st.floats(-5.0, 5.0), st.floats(0.01, 5.0), st.booleans())
@settings(deadline=None)
def test_a_verdict_does_not_depend_on_the_tape(e, a, width, rolle):
    # on f's own tape, and on a tape that holds more before f: the verdict
    # copies f's keys up to its slot, what comes before f among them
    iv, verify = Interval(a, a + width), verify_rolle if rolle else verify_mvt
    f = _parsed(e)
    other = _onto(parse("cos(x) / (x - 0.5) + sqrt(x)").tape, f)
    assert verify(other, iv) == verify(f, iv)


@given(st.one_of(grammar_exprs(), smooth_exprs()), st.floats(-5.0, 5.0), st.floats(0.01, 5.0), st.booleans())
@settings(deadline=None)
def test_a_verdict_does_not_depend_on_reuse(e, a, width, rolle):
    # twice in a row, and after differentiate, simplify, evaluate and
    # analyze_smoothness have extended f's tape: the same verdict, and
    # f's tape, its keys and its kept step lists, as the verdict found it
    iv, verify = Interval(a, a + width), verify_rolle if rolle else verify_mvt
    f = _parsed(e)
    first = verify(f, iv)
    assert verify(f, iv) == first
    differentiate(f)
    simplify(f)
    try:
        evaluate(f, a)
    except DomainError:
        pass
    analyze_smoothness(f, iv, 97)
    size, kept = len(f.tape.keys), dict(f.tape._steps)
    assert verify(f, iv) == first
    assert len(f.tape.keys) == size and f.tape._steps == kept
    # an evaluated handle survives pickle and deepcopy, with its text and its verdicts
    for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert format_expr(copied) == format_expr(f)
        assert verify(copied, iv) == first


def test_one_tape_serves_any_number_of_verdicts():
    # each verdict reads its own copy of f's keys: none finds f' or the
    # hazards of an earlier one on f's tape, and all agree
    f = parse("sqrt(x)")
    iv = Interval(0.0, 1.0)
    first = verify_mvt(f, iv)
    assert isinstance(first, Applicable)
    assert verify_mvt(f, iv) == first == verify_mvt(parse("sqrt(x)"), iv)
    assert len(f.tape.keys) == 2


def test_a_failed_rolle_precondition_is_read_before_any_analysis():
    # f(a) != f(b): the answer comes from f(a) and f(b) alone
    with mock.patch.object(theorem, "analyze_smoothness") as analysis:
        result = verify_rolle(parse("x"), Interval(0.0, 1.0))
    assert result == NotApplicable(Reason.ROLLE_PRECONDITION_FAILED)
    analysis.assert_not_called()


@pytest.mark.parametrize(
    "text, a, b, verify",
    [
        # no hazard; hazards that bounds clear, tan's cos(u) among them;
        # Rolle's, with and without a hazard that the scan reads
        ("x^3 - 4*x + sin(2*x)", -1.0, 2.0, verify_mvt),
        ("sqrt(x + 1) + ln(x + 2) / (x - 3) + tan(x)", -0.5, 1.0, verify_mvt),
        ("x^2 - 4*x + 3", 1.0, 3.0, verify_rolle),
        ("sqrt(x) * (x - 1)", 0.0, 1.0, verify_rolle),
    ],
)
def test_a_verdict_lists_f_and_its_derivative_once(monkeypatch, text, a, b, verify):
    # steps keeps each list it makes on the verdict's tape, and a list of
    # f and its hazards starts from the one of f: every kept list that
    # holds the step of f, or of f', holds the one step object listed first
    tapes = []

    class Recorded(Tape):
        def __init__(self, *args):
            super().__init__(*args)
            tapes.append(self)

    monkeypatch.setattr(theorem, "Tape", Recorded)
    f = parse(text)
    assert isinstance(verify(f, Interval(a, b)), Applicable)
    (t,) = tapes
    size = len(t.keys)
    # f' is on the verdict's tape already: deriving f there keys nothing
    for slot in (f.slot, differentiate(Expr(t, f.slot)).slot):
        listed = [step for kept in t._steps.values() for step in kept if step[0] == slot]
        assert listed and all(step is listed[0] for step in listed)
    assert len(t.keys) == size


def test_a_verdict_lists_f_once_where_its_literals_are_negative(monkeypatch):
    # (-0.365) parses as one constant, which the fold leaves as it is: the
    # verdict lists two cones, f and f', and no folded f, and simplify
    # returns f's own slot
    listings = []

    def counted(t, outs):
        if tuple(outs) not in t._steps:
            listings.append(tuple(outs))
        return steps(t, outs)

    monkeypatch.setattr(expr, "steps", counted)
    monkeypatch.setattr(calculus, "steps", counted)
    f = parse("(-0.365)*cos(0.628*x + (-0.365)) - x")
    assert isinstance(verify_mvt(f, Interval(0.0, 2.0)), Applicable)
    assert len(listings) == 2
    assert simplify(f).slot == f.slot


# hazards of every kind, exponents that fold, tan's cos(u), and each path
_NO_NODE_CORPUS = [
    ("x^3 - 4*x + sin(2*x)", -1.0, 2.0),
    ("tan(x) + x^(4/2) + sqrt(x + 1) + ln(x + 2) + abs(x - 3)", -0.5, 1.0),
    ("1/x + x^0.5", -1.0, 1.0),
    ("abs(x)", -1.0, 1.0),
    ("3*x + 1", 0.0, 2.0),
    ("exp(x)/(x^2 + 1)", 0.0, 1.0),
]


@pytest.mark.parametrize("text, a, b", _NO_NODE_CORPUS)
def test_a_verdict_builds_no_node(text, a, b):
    # the analysis, the fold, f' and every scan run on the verdict's copy
    # of f's keys: no node is keyed on f's tape and no step list is kept
    # there, whatever that tape held before
    f = parse(text)
    iv = Interval(a, b)
    differentiate(f)
    keys, kept = list(f.tape.keys), dict(f.tape._steps)
    results = [verify_mvt(f, iv), verify_rolle(f, iv)]
    assert f.tape.keys == keys and f.tape._steps == kept
    assert results == [verify_mvt(parse(text), iv), verify_rolle(parse(text), iv)]


def _swapped(e):
    """``e`` with the operands of every ``+`` and ``*`` swapped."""
    if isinstance(e, Binary):
        left, right = _swapped(e.left), _swapped(e.right)
        return Binary(e.op, right, left) if e.op in "+*" else Binary(e.op, left, right)
    if isinstance(e, Neg):
        return Neg(_swapped(e.child))
    if isinstance(e, Call):
        return Call(e.fn, _swapped(e.argument))
    return e


@settings(max_examples=200, deadline=None)
@given(grammar_exprs())
def test_swapping_the_operands_of_sums_and_products_changes_no_verdict(e):
    # float + and * are commutative, exactly, and so is every bound and
    # fold rule over them: the verdicts, with every number in them, are
    # the same
    e, swapped = _parsed(e), _parsed(_swapped(e))
    for a, b in [(-1.0, 1.1), (0.19, 2.94), (1e-3, 5.0), (-3.0, -0.5)]:
        iv = Interval(a, b)
        for samples in (1024, 97):
            cfg = Config(samples=samples)
            for verify in (verify_mvt, verify_rolle):
                assert repr(verify(swapped, iv, cfg)) == repr(verify(e, iv, cfg))


def test_flat_sum_of_1000_terms_gets_a_verdict():
    # f(a), f(b) and f' are all read on one tape, which no length of a sum
    # limits
    f = parse("+".join(["x"] * 1000))
    result = verify_mvt(f, Interval(0.0, 1.0))
    assert isinstance(result, Applicable)
    assert result.m == 1000.0
    assert isinstance(verify_rolle(f, Interval(-1.0, 1.0)), NotApplicable)


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


@pytest.mark.parametrize("text", ["1/abs(x)", "ln(abs(x))", "abs(x)^-1"])
def test_mvt_abs_wrapped_zero_is_not_continuous(text):
    # abs(x) only touches 0, between grid points: f is undefined there, so
    # the pole or boundary, not the kink, decides the reason
    result = verify_mvt(parse(text), Interval(-1.0, 1.1))
    assert isinstance(result, NotApplicable)
    assert result.reason is Reason.NOT_CONTINUOUS
    assert abs(result.witness) <= 1e-9


# known wrong verdicts, each pinned to the open ROADMAP item that fixes it:
# strict, so the fix turns each one into a failure that asks to unmark it
def _known_wrong(item, verify, a, b, expected, reason, texts):
    mark = pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}")
    return [
        pytest.param(verify, text, a, b, expected, reason, marks=mark, id=f"{verify.__name__}-{text}")
        for text in texts
    ]


@pytest.mark.parametrize(
    "verify, text, a, b, expected, reason",
    _known_wrong("1: an abs zero where f is differentiable reads as a kink",
                 verify_mvt, -1.0, 1.1, Applicable, None, ["x*abs(x)", "abs(x)^2", "abs(x^3)"])
    + _known_wrong("11: an abs zero under a pole or an ln reads as a kink",
                   verify_mvt, -1.0, 1.1, NotApplicable, Reason.NOT_CONTINUOUS,
                   ["1/(2*abs(x))", "1/(-abs(x))", "ln(abs(x)*3)"])
    + _known_wrong("11: a power by an exponent equal to 1 reads as broken where its base is 0",
                   verify_mvt, 0.5, 2.0, Applicable, None, ["(1-x)^(x/x)", "(1-x)^(x^0)"])
    + _known_wrong("12: the quotient rule overflows where f' does not",
                   verify_mvt, -1.0, 1.1, Applicable, None, ["x^2/1e300"])
    + _known_wrong("12: the abs rule overflows where f' does not",
                   verify_mvt, 1.0, 2.0, Applicable, None, ["abs(x*1e200)"])
    + _known_wrong("12: the abs rule raises where its argument is exactly 0",
                   verify_rolle, -1.0, 1.0, Applicable, None, ["abs(x^2)"]),
)
def test_known_wrong_verdict(verify, text, a, b, expected, reason):
    result = verify(parse(text), Interval(a, b))
    assert isinstance(result, expected)
    if reason is not None:
        assert result.reason is reason


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
    "text, slope",
    [
        ("x/1e-6", 1e6),
        ("x/(2*1e-6)", 5e5),
        ("sqrt(1e-9)*x", math.sqrt(1e-9)),
        ("sqrt(0)*x + x", 1.0),
    ],
)
def test_mvt_line_with_a_constant_divisor_or_root(text, slope):
    # a divisor or root argument without x has one value on all of [a, b]:
    # however close to zero it is, it is no hazard
    result = verify_mvt(parse(text), Interval(0.0, 1.0))
    assert result == Applicable(0.5, slope, slope, 0.0, 0, Method.DEGENERATE_CONSTANT)


def test_mvt_power_of_a_small_constant_base():
    result = verify_mvt(parse("(1e-5)^x"), Interval(0.0, 1.0))
    assert isinstance(result, Applicable)
    assert result.method is Method.BRACKET_BISECT
    assert result.residual <= EPS_RES
    # f'(c) = ln(1e-5) * 1e-5^c = 1e-5 - 1
    assert abs(result.c - math.log((1e-5 - 1.0) / math.log(1e-5)) / math.log(1e-5)) <= 1e-8


@pytest.mark.parametrize("text", ["x/0", "ln(-1)*x"])
def test_mvt_constant_outside_its_domain_is_not_continuous(text):
    # f raises at every point; the scan reports the first one
    result = verify_mvt(parse(text), Interval(0.0, 1.0))
    assert result == NotApplicable(Reason.NOT_CONTINUOUS, 0.0)


@pytest.mark.parametrize("text", ["x^(4/2)", "x^(2*1)", "x^--2", "(-x)^(3/3)"])
def test_mvt_integer_power_spelled_as_an_expression(text):
    # the evaluators multiply out any exponent whose value is a small
    # integer, however it is spelled: these are plain polynomials
    result = verify_mvt(parse(text), Interval(-1.0, 1.0))
    assert isinstance(result, Applicable)
    assert result.residual <= EPS_RES


def test_mvt_negative_integer_power_spelled_as_an_expression():
    result = verify_mvt(parse("x^(-4/2)"), Interval(-1.0, 1.0))
    assert result == NotApplicable(Reason.NOT_CONTINUOUS, 0.0)


@pytest.mark.parametrize(
    "text, a, b",
    [("x^2", 0.0, 5e-324), ("x^2", 1.0, 1.0000000000000002), ("x^3", 1.0, 1.0000000000000002)],
)
def test_mvt_interval_without_an_inner_float_is_unknown(text, a, b):
    # the midpoint rounds to an endpoint, which is no c strictly inside (a, b)
    result = verify_mvt(parse(text), Interval(a, b))
    assert result == Unknown("no float lies strictly inside (a, b)")


# two ulps wide: with samples=2, both ends of the half-step inset round to
# the one float between a and b
TWO_ULPS = Interval(1.0000000000000002, 1.0000000000000007)


@pytest.mark.parametrize(
    "verify, text, m",
    [(verify_mvt, "x^2", 2.0), (verify_mvt, "x^3 - x", 2.0), (verify_rolle, "x^2 - 2*x", 0.0)],
)
def test_an_inset_of_one_float_makes_that_float_c(verify, text, m):
    # the one float strictly inside (a, b) is the only candidate c, and
    # the residual rule decides it
    result = verify(parse(text), TWO_ULPS, Config(samples=2))
    assert isinstance(result, Applicable)
    assert (result.c, result.m, result.method) == (1.0000000000000004, m, Method.RESIDUAL_MIN)
    assert result.residual == abs(result.f_prime_at_c - m) <= EPS_RES


def test_an_inset_of_one_float_above_the_residual_bound_is_unknown():
    # f' at that float misses m by far more than EPS_RES
    result = verify_mvt(parse("1e20*x^2"), TWO_ULPS, Config(samples=2))
    assert result == Unknown("no sign change at sample resolution; smallest residual 1.553e+19 exceeds tolerance")


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


def test_mvt_wide_interval_stays_within_the_itp_bound():
    # eps_c = 1e-10 is about 2^-531 of this width: no cap on the steps, but
    # ITP takes at most one more than bisection would
    result = verify_mvt(parse("x^2"), Interval(-1e150, 1e150))
    assert isinstance(result, Applicable)
    assert result.method is Method.BRACKET_BISECT
    assert result.iterations <= math.ceil(math.log2(2e150 / 1e-10)) + 1
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


# --- coarse-to-fine root scan -----------------------------------------------
#
# The scan of f' - m tries dyadic levels of 3 to 65 points before the full
# grid of Config.samples points.


def _count_derivative_calls(monkeypatch):
    """Count evaluations of f' (``calls``) and the evaluators compiled of
    f' (``compiles``): the pipeline reads f itself through ``evaluator``,
    for the secant slope or Rolle's precondition only."""
    counts = {"calls": 0, "compiles": 0}
    compile_evaluator = theorem.compile_evaluator

    def counting_compile(e):
        deriv = compile_evaluator(e)
        counts["compiles"] += 1

        def counted(t):
            counts["calls"] += 1
            return deriv(t)

        return counted

    monkeypatch.setattr(theorem, "compile_evaluator", counting_compile)
    return counts


def test_coarse_bracket_spends_few_derivative_evaluations(monkeypatch):
    # a full scan alone spends 1024 evaluations before bisection starts
    f = parse("sin(x)")
    counts = _count_derivative_calls(monkeypatch)
    result = verify_mvt(f, Interval(0.0, math.pi / 2))
    assert isinstance(result, Applicable)
    assert result.method is Method.BRACKET_BISECT
    assert result.c == pytest.approx(ARCCOS_2_OVER_PI, abs=1e-9)
    assert counts["calls"] <= 20
    assert counts["compiles"] == 1


def test_no_coarse_bracket_costs_at_most_the_coarse_levels(monkeypatch):
    # no level has a sign change: the coarse levels (3 + 5 + ... + 65 = 132
    # points) come on top of the full grid and the golden-section probes
    # (64 steps, 2 starting probes, 1 final evaluation)
    f = parse("x^3")
    counts = _count_derivative_calls(monkeypatch)
    cfg = Config()
    result = verify_rolle(f, Interval(-7e-5, 8e-5), cfg)
    assert isinstance(result, Applicable)
    assert result.method is Method.RESIDUAL_MIN
    assert cfg.samples < counts["calls"] <= cfg.samples + 132 + 64 + 3
    assert counts["compiles"] == 1


def test_degenerate_constant_compiles_the_derivative_once(monkeypatch):
    # f' - m vanishes everywhere: every coarse level and the full grid are
    # scanned, all by one compiled evaluator.  f' is ((x + x) - (x + x)) + 3,
    # which does not fold to a constant
    f = parse("x*x - x*x + 3*x + 1")
    counts = _count_derivative_calls(monkeypatch)
    result = verify_mvt(f, Interval(0.0, 2.0))
    assert isinstance(result, Applicable)
    assert result.method is Method.DEGENERATE_CONSTANT
    assert counts["compiles"] == 1
    assert counts["calls"] > Config().samples


def test_constant_derivative_is_neither_evaluated_nor_compiled(monkeypatch):
    f = parse("3*x + 1")
    counts = _count_derivative_calls(monkeypatch)
    result = verify_mvt(f, Interval(0.0, 2.0))
    assert result == Applicable(1.0, 3.0, 3.0, 0.0, 0, Method.DEGENERATE_CONSTANT)
    assert counts == {"calls": 0, "compiles": 0}


def _never_constant(f):
    # f' as differentiate gives it, but -(-k) for a constant k: the same
    # value at every x, and the pipeline scans it as it scans any f'
    d = differentiate(f)
    t = d.tape
    return Expr(t, t.put(("-", t.put(("-", d.slot))))) if d.slot in t.constants else d


_MAX = 1.7976931348623157e308


@pytest.mark.parametrize(
    "text, a, b",
    [
        ("3*x + 1", 0.0, 2.0),
        ("-x", -1.0, 1.0),
        ("5", 0.0, 1.0),
        ("0*x + 7", -3.0, 4.0),
        ("1e-9*x", 0.0, 1.0),
        # the slope rounds away from 0.1, within EPS_RES
        ("0.1*x", 0.3, 0.7),
        # the slope misses 1e300 by more than EPS_RES
        ("1e300*x", 0.1, 0.3),
        ("x", 0.525946434186146, 0.5259464341861467),
        # f(b) - f(a) over b - a rounds to m = inf and m = -inf
        (f"{_MAX!r}*x", 0.75, 0.7500000000000004),
        (f"-{_MAX!r}*x", 0.75, 0.7500000000000004),
    ],
)
def test_constant_derivative_answers_as_the_scans_did(text, a, b):
    f, iv = parse(text), Interval(a, b)
    calls = [
        lambda: verify_mvt(f, iv),
        lambda: verify_mvt(f, iv, Config(samples=2)),
        lambda: verify_mvt(f, iv, Config(samples=97)),
        lambda: verify_rolle(f, iv),
    ]
    shortcut = [repr(call()) for call in calls]
    with mock.patch.object(theorem, "differentiate", _never_constant):
        scanned = [repr(call()) for call in calls]
    assert shortcut == scanned


def test_constant_derivative_with_infinite_slope_is_unknown():
    f = parse(f"{_MAX!r}*x")
    iv = Interval(0.75, 0.7500000000000004)
    assert secant_slope(f, iv) == math.inf
    assert verify_mvt(f, iv) == Unknown(
        "no sign change at sample resolution; smallest residual inf exceeds tolerance"
    )


# verdicts that evaluate f' a few times, many times or never, and that
# evaluate hazards or not; the 600-factor product's f' is too deep for the
# reference's recursive walk
_PRODUCT = "*".join(["x"] * 600)
_PARITY_CORPUS = [
    ("sin(x)", 0.0, math.pi / 2),
    ("x^3", 0.0, 2.0),
    ("x^2", -1e150, 1e150),
    ("3*x + 1", 0.0, 2.0),
    ("sqrt(x)", 0.0, 1.0),
    ("x^3 - x", -1.0, 1.0),
    ("sin(1/x)", 1e-3, 1.0),
    ("1/x", -1.0, 1.0),
    ("abs(x^2)", -1.0, 1.0),
    ("exp(x) + sin(3*x)", -2.0, 2.0),
    (_PRODUCT, 0.5, 1.0),
]


@pytest.mark.parametrize("text, a, b", _PARITY_CORPUS)
def test_verdicts_do_not_depend_on_the_walk_budget(monkeypatch, text, a, b):
    # the two ends of how many evaluations are walked, none and all of
    # them, give the same verdicts: f, f' and every hazard interpreted on
    # a tape, as the pipeline does, and walked as trees by the reference
    f, iv = parse(text), Interval(a, b)
    interpreted = (repr(verify_mvt(f, iv)), repr(verify_rolle(f, iv)))

    def walked(t, slot):
        tree = reference_parse(format_expr(Expr(t, slot)))

        def at(x):
            try:
                return reference_evaluate(tree, x)
            except ReferenceDomainError as err:
                raise DomainError(err.point, DomainErrorKind[err.kind]) from None

        return at

    monkeypatch.setattr(theorem, "evaluator", walked)
    monkeypatch.setattr(theorem, "compile_evaluator", lambda e: walked(e.tape, e.slot))
    monkeypatch.setattr(calculus, "evaluator", walked)
    if text != _PRODUCT:
        assert interpreted == (repr(verify_mvt(f, iv)), repr(verify_rolle(f, iv)))
        return
    # too deep for the walk, which no evaluator of the pipeline needs
    with pytest.raises(RecursionError):
        verify_mvt(f, iv)
    assert interpreted == (
        "Applicable(c=0.9905230179272346, m=2.0, f_prime_at_c=1.999999995697642, "
        "residual=4.302358025398689e-09, iterations=33, method=<Method.BRACKET_BISECT: 'bracket_bisect'>)",
        "NotApplicable(reason=<Reason.ROLLE_PRECONDITION_FAILED: 'rolle_precondition_failed'>, witness=None)",
    )


def test_coarse_level_brackets_a_zero_the_full_grid_misses():
    # the full grid's first bracket leaves a residual of 1.4e-8; a coarse
    # level brackets another zero of f' - m, where the residual meets EPS_RES
    result = verify_mvt(parse("sin(1/x)"), Interval(1e-3, 1.0))
    assert isinstance(result, Applicable)
    assert result.method is Method.BRACKET_BISECT
    assert 1e-3 < result.c < 1.0
    assert result.residual <= EPS_RES
    m = (math.sin(1.0) - math.sin(1e3)) / (1.0 - 1e-3)
    assert abs(-math.cos(1.0 / result.c) / result.c**2 - m) <= 1e-7


def test_coarse_bracket_above_tolerance_falls_back_to_the_full_grid():
    # the first coarse bracket bisects to a residual of 60; the full grid's
    # first bracket gives the c that a full scan alone gives
    iv = Interval(3.2707674326688334, 7.938840496612227)
    result = verify_mvt(parse("sin(x^x * (x + x))"), iv)
    assert isinstance(result, Applicable)
    assert result.method is Method.BRACKET_BISECT
    assert result.c == pytest.approx(3.275053072774644, abs=1e-9)
    assert result.residual <= EPS_RES


def test_failed_bisection_still_reports_the_full_grid_verdict():
    # f' of abs(x^2) is undefined at 0, where bisection of every level lands
    result = verify_mvt(parse("abs(x^2)"), Interval(-1.0, 1.0))
    assert result == Unknown("bisection failed inside the located bracket")


def test_constant_derivative_keeps_the_degenerate_path():
    result = verify_mvt(parse("2*x+1"), Interval(0.0, 1.0))
    assert isinstance(result, Applicable)
    assert result.method is Method.DEGENERATE_CONSTANT
    assert result.c == 0.5
    assert result.residual == 0.0


def test_mvt_interval_a_few_floats_wide_is_degenerate():
    # every coarse level repeats a float; f' - m is 0 at each point
    result = verify_mvt(parse("x"), Interval(0.525946434186146, 0.5259464341861467))
    assert isinstance(result, Applicable)
    assert result.method is Method.DEGENERATE_CONSTANT


@given(
    smooth_exprs(),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.1, max_value=5.0),
)
@settings(deadline=None, max_examples=80)
def test_applicable_c_is_a_mean_value_point(e, a, width):
    e, iv = _parsed(e), Interval(a, a + width)
    result = verify_mvt(e, iv)
    assume(isinstance(result, Applicable))
    assert iv.a < result.c < iv.b
    assert result.residual == abs(result.f_prime_at_c - result.m)
    assert result.residual <= EPS_RES
    f = compile_evaluator(e)
    # truncation error scales with the slope, rounding error with f
    tol = 1e-5 * max(1.0, abs(result.m)) + 1e-9 * abs(f(result.c))
    assert abs(central_difference(f, result.c, 1e-5) - result.m) <= tol


# --- residual minimum -------------------------------------------------------
#
# Where the scan of f' - m finds no sign change, a golden-section search
# around the sample of smallest |f' - m| looks for c.


def test_residual_min_finds_a_touching_zero():
    # f' = 3x^2 touches m = 0 at 0 without changing sign; on this asymmetric
    # interval no point of any scan level lands on 0 exactly
    iv = Interval(-7e-5, 8e-5)
    result = verify_rolle(parse("x^3"), iv)
    assert isinstance(result, Applicable)
    assert result.method is Method.RESIDUAL_MIN
    assert result.residual <= EPS_RES
    assert result.residual == abs(result.f_prime_at_c - result.m)
    assert iv.a < result.c < iv.b


def test_touching_zero_hit_by_a_coarse_level_is_bisected():
    # on the symmetric interval the middle point of the 3-point level is a
    # zero of f' - m, which the first bracket holds
    iv = Interval(-7e-5, 7e-5)
    result = verify_rolle(parse("x^3"), iv)
    assert isinstance(result, Applicable)
    assert result.method is Method.BRACKET_BISECT
    assert iv.a < result.c < iv.b
    assert result.residual <= EPS_RES
    assert result.residual == abs(result.f_prime_at_c - result.m)


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
    result = verify_rolle(parse("3"), Interval(0.0, 1.0))
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


@pytest.mark.parametrize(
    "text, a, b, expected",
    [
        ("1/x", -1.0, 2.0, NotApplicable(Reason.ROLLE_PRECONDITION_FAILED)),
        ("1/(x - 1)", 1.0, 2.0, NotApplicable(Reason.UNDEFINED, 1.0)),
        ("exp(1e16*(x - 1))", 1.0, 1.0000000000000002, NotApplicable(Reason.ROLLE_PRECONDITION_FAILED)),
        ("1/(x - 1)", 1.0, 1.0000000000000002, NotApplicable(Reason.UNDEFINED, 1.0)),
        ("x", 1.0, 1.0000000000000002, Unknown("no float lies strictly inside (a, b)")),
    ],
)
def test_rolle_precondition_answers_first(text, a, b, expected):
    # f(a) and f(b) are read before f is analyzed: a failed precondition
    # is the answer whatever the analysis would find (a pole inside, the
    # pole at a), and where no float lies strictly inside (a, b), which
    # verify_mvt reports as Unknown
    assert verify_rolle(parse(text), Interval(a, b)) == expected


# --- properties -------------------------------------------------------------


@given(
    poly_coefficients,
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=0.5, max_value=6.0, allow_nan=False),
)
@settings(deadline=None, max_examples=60)
def test_polynomial_completeness_and_soundness(coeffs, a, width):
    f = _parsed(polynomial(coeffs))
    result = verify_mvt(f, Interval(a, a + width))
    assert isinstance(result, Applicable)
    assert result.residual == abs(result.f_prime_at_c - result.m)
    assert result.residual <= 1e-8
    assert a < result.c < a + width


@given(
    grammar_exprs(),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.1, max_value=10.0),
)
@settings(deadline=None)
def test_not_applicable_witness_lies_where_its_reason_says(e, a, width):
    # a discontinuity is witnessed in [a, b], a missing derivative in (a, b)
    iv = Interval(a, a + width)
    result = verify_mvt(_parsed(e), iv)
    if isinstance(result, NotApplicable) and result.reason is Reason.NOT_CONTINUOUS:
        assert iv.a <= result.witness <= iv.b
    if isinstance(result, NotApplicable) and result.reason is Reason.NOT_DIFFERENTIABLE:
        assert iv.contains_open(result.witness)


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
    f = _parsed(Binary(
        "*",
        polynomial(coeffs),
        Binary("*", Binary("-", Variable(), Constant(a)), Binary("-", Variable(), Constant(b))),
    ))
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
    tree = polynomial([float(c) for c in int_coeffs])
    f, shifted = _parsed(tree), _parsed(Binary("+", tree, Constant(float(k))))
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


@given(
    grammar_exprs(),
    st.sampled_from(
        [
            Interval(1e-300, 2e-300),
            Interval(-1e300, 1e300),
            Interval(1.0, math.nextafter(1.0, 2.0)),
            Interval(1 + 2**-52, 1 + 3 * 2**-52),
            Interval(1e308, 1.7e308),
            Interval(1e6, 1e6 + 1e-6),
            Interval(-700.0, 700.0),
        ]
    ),
    st.sampled_from([Config(samples=2), Config(samples=3), Config(samples=17), Config(eps_c=5e-324, samples=64)]),
)
@settings(deadline=None, max_examples=500)
def test_no_verdict_raises_at_the_extremes_of_the_floats(e, iv, cfg):
    # intervals of subnormal width, one ulp wide, far out, or where exp
    # overflows, and grids of a few points: every outcome is a result
    e = _parsed(e)
    assert isinstance(verify_mvt(e, iv, cfg), (Applicable, NotApplicable, Unknown))
    assert isinstance(verify_rolle(e, iv, cfg), (Applicable, NotApplicable, Unknown))


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
                   Applicable(0.5, 1.0, 1.0, 0.0, 3, Method.BRACKET_BISECT)]:
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
    # a handle copies onto a tape of its own, so its text is what compares
    e = parse("x^2+sin(x)")
    for copied in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert copied.tape is not e.tape and format_expr(copied) == format_expr(e)


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
