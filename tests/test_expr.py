import functools
import math
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvtcheck import calculus, expr
from mvtcheck.calculus import differentiate
from mvtcheck.expr import (
    DomainError,
    DomainErrorKind,
    Expr,
    FUNCTIONS,
    LexError,
    ParseError,
    SourceError,
    Tape,
    UnknownIdentifier,
    compile_evaluator,
    enclose,
    evaluate,
    evaluator,
    format_expr,
    integer_exponent,
    parse,
    steps,
    tabulate,
    tokenize,
)
from mvtcheck.numeric import Interval, grid

from oracles import (
    Binary,
    Call,
    Constant,
    Neg,
    ReferenceDomainError,
    ReferenceSourceError,
    ReferenceTape,
    Variable,
    reference_evaluate,
    reference_format,
    reference_parse,
)
from strategies import grammar_exprs, smooth_exprs


def _parsed(tree) -> Expr:
    """The package's handle on the reference tree ``tree``, parsed from its text."""
    return parse(reference_format(tree))


def _tree(e: Expr):
    """The reference tree of the handle ``e``: its text, as the reference parser reads it."""
    return reference_parse(format_expr(e))


def _reference_keys(tree) -> list:
    """The keys of a reference tape holding ``tree``."""
    reference = ReferenceTape()
    reference.add(tree)
    return reference.keys


def _put(t: Tape, e: Expr) -> int:
    """The slot of ``e``'s expression on ``t``, its cone keyed there
    through ``put``, children first."""
    moved = {}
    for i, _, _ in steps(e.tape, [e.slot]):
        part, *args = e.tape.keys[i]
        moved[i] = t.put((part, *[moved[j] for j in args]))
    return moved[e.slot]


def _taped(*exprs: Expr) -> tuple[Tape, list[int]]:
    """A new tape holding ``exprs``, keyed in turn, and their slots on it."""
    t = Tape()
    return t, [_put(t, e) for e in exprs]


def _handle(*keys: tuple) -> Expr:
    """The handle on the last of ``keys``, each put in turn on a new tape."""
    t = Tape()
    for key in keys:
        slot = t.put(key)
    return Expr(t, slot)


def _wrap(e: Expr, part: str) -> Expr:
    """The handle on ``part`` of ``e`` (a function name or "-"), on ``e``'s tape."""
    return Expr(e.tape, e.tape.put((part, e.slot)))


# --- tokenize ---------------------------------------------------------------


def test_tokenize_quadratic():
    tokens = tokenize("x^2 - 4*x + 3")
    assert [text for text, _ in tokens] == ["x", "^", "2", "-", "4", "*", "x", "+", "3"]
    assert [position for _, position in tokens] == [0, 1, 2, 4, 6, 7, 8, 10, 12]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_scientific_is_one_token():
    assert tokenize("3.5e2") == [("3.5e2", 0)]
    assert float("3.5e2") == 350.0


def test_tokenize_longest_match():
    assert tokenize("350") == [("350", 0)]


def test_tokenize_unrecognized_character():
    with pytest.raises(LexError) as err:
        tokenize("3 $ 4")
    assert err.value.position == 2


def test_tokenize_number_overflow():
    with pytest.raises(LexError):
        tokenize("1e999")


@given(grammar_exprs())
def test_tokenize_positions_strictly_increase(e):
    tokens = tokenize(reference_format(e))
    positions = [position for _, position in tokens]
    assert positions == sorted(set(positions))


# --- parse ------------------------------------------------------------------


def test_parse_function_call():
    e = parse("sin(x)")
    assert e.tape.keys == [("x",), ("sin", 0)] and e.slot == 1


def test_parse_precedence():
    assert parse("2+3*x").tape.keys == _reference_keys(Binary("+", Constant(2.0), Binary("*", Constant(3.0), Variable())))


def test_parse_power_right_associative():
    e = parse("2^3^2")
    assert e.tape.keys == _reference_keys(Binary("^", Constant(2.0), Binary("^", Constant(3.0), Constant(2.0))))
    assert evaluate(e, 0.0) == 512.0


def test_parse_unary_minus_binds_looser_than_power():
    assert parse("-x^2").tape.keys == _reference_keys(Neg(Binary("^", Variable(), Constant(2.0))))


def test_parse_unary_minus_in_product():
    assert parse("2*-x").tape.keys == _reference_keys(Binary("*", Constant(2.0), Neg(Variable())))


def test_parse_named_constants_fold():
    assert parse("pi").tape.keys == [(repr(math.pi),)] and parse("pi").tape.constants == {0: math.pi}
    assert parse("e").tape.constants == {0: math.e}
    assert evaluate(parse("pi/2"), 0.0) == math.pi / 2


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as err:
        parse("foo(x)")
    assert err.value.name == "foo"
    assert err.value.position == 0


def test_parse_no_implicit_multiplication():
    with pytest.raises(ParseError) as err:
        parse("4x")
    assert err.value.position == 1


def test_parse_function_requires_parens():
    with pytest.raises(ParseError):
        parse("sin x")


def test_parse_unclosed_paren():
    with pytest.raises(ParseError) as err:
        parse("(x")
    assert err.value.position == 2


def test_parse_empty_input():
    with pytest.raises(ParseError) as err:
        parse("")
    assert err.value.position == 0


def test_parse_comma_rejected():
    with pytest.raises(ParseError):
        parse("sin(x, 1)")


# every way the lexer and parser reject a text: the class, the position, the
# message and what was expected (None for a LexError, which expects nothing)
@pytest.mark.parametrize(
    "source, error, position, message, expected",
    [
        ("", ParseError, 0, "expected an expression", "an expression"),
        ("x +", ParseError, 3, "expected an expression", "an expression"),
        ("(x", ParseError, 2, "expected ')'", "')'"),
        ("sin x", ParseError, 4, "expected '(' after 'sin'", "'(' after 'sin'"),
        ("sin", ParseError, 3, "expected '(' after 'sin'", "'(' after 'sin'"),
        ("sin(x, 1)", ParseError, 5, "expected ')'", "')'"),
        ("(2 3)", ParseError, 3, "expected ')'", "')'"),
        ("x)", ParseError, 1, "expected end of input", "end of input"),
        ("4x", ParseError, 1, "expected end of input", "end of input"),
        ("*x", ParseError, 0, "expected a number, a name, or '('", "a number, a name, or '('"),
        ("foo(x)", UnknownIdentifier, 0, "unknown identifier 'foo'", "x, pi, e, or a function name"),
        ("3 $ 4", LexError, 2, "unrecognized character '$'", None),
        (".5", LexError, 0, "unrecognized character '.'", None),
        ("1.", LexError, 1, "unrecognized character '.'", None),
        ("x é", LexError, 2, "unrecognized character 'é'", None),
        ("٣", LexError, 0, "unrecognized character '٣'", None),
        ("1e999", LexError, 0, "number literal '1e999' overflows binary64", None),
    ],
)
def test_parse_errors(source, error, position, message, expected):
    with pytest.raises(SourceError) as err:
        parse(source)
    assert type(err.value) is error
    assert err.value.position == position
    assert str(err.value) == f"{message} (position {position})"
    assert getattr(err.value, "expected", None) == expected


@pytest.mark.parametrize(
    "source, tree",
    [
        ("2^-x^2", "(2 ^ (-(x ^ 2)))"),
        ("-2^2*3", "((-(2 ^ 2)) * 3)"),
        ("1-2-3", "((1 - 2) - 3)"),
        ("2--x", "(2 - (-x))"),
        ("2/x/3", "((2 / x) / 3)"),
        ("x\u00a0+ 1", "(x + 1)"),  # a no-break space is whitespace
    ],
)
def test_parse_associativity_and_binding(source, tree):
    assert format_expr(parse(source)) == tree


# a nest of each kind of level, with the text format_expr gives for it:
# parentheses vanish, and every other level is written out
NESTS = {
    "parentheses": ("(", ")", lambda levels: "x"),
    "calls": ("sin(", ")", lambda levels: "sin(" * levels + "x" + ")" * levels),
    "unary-minus": ("-", "", lambda levels: "(-" * levels + "x" + ")" * levels),
    "exponents": ("x^", "", lambda levels: "(x ^ " * levels + "x" + ")" * levels),
}


@pytest.mark.parametrize("opener, closer, text", NESTS.values(), ids=NESTS)
def test_parse_nesting_limit(opener, closer, text):
    # there is none: a 20,000-level nest parses, and its text parses back
    # to a tree that formats the same (comparing the trees themselves with
    # == would recurse once per level)
    levels = 20000
    e = parse(opener * levels + "x" + closer * levels)
    assert format_expr(e) == text(levels)
    assert format_expr(parse(format_expr(e))) == text(levels)


@pytest.mark.parametrize("opener", ["(", "sin(", "x+x*(", "x-x/sqrt("])
def test_parse_spends_at_most_five_frames_per_nesting_level(opener):
    # it spends none: a 20,000-level nest parses within a few dozen frames
    # of the caller's depth
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    source = opener * 20000 + "x" + ")" * 20000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        parse(source)
    finally:
        sys.setrecursionlimit(limit)


# one token of the grammar each: numbers, names (one of them unknown), the
# operators and punctuation, and a space that keeps neighbours apart
GRAMMAR_TOKENS = ["0", "2", "3.5", "1e3", "x", "pi", "e", *FUNCTIONS, "foo", *"+-*/^(),", " "]


def _parse_outcome(source):
    try:
        return parse(source).tape.keys
    except SourceError as err:
        return type(err).__name__, err.position, str(err), getattr(err, "expected", None)


def _reference_outcome(source):
    try:
        return _reference_keys(reference_parse(source))
    except ReferenceSourceError as err:
        return err.kind, err.position, str(err), err.expected


@settings(max_examples=1000)
@given(st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=30).map("".join))
def test_parse_matches_the_reference_parser(source):
    # the keys of the reference's tree, in the reference tape's order, or
    # the same error class, position, message and expectation
    assert _parse_outcome(source) == _reference_outcome(source)


def test_nesting_limit_counts_open_levels_only():
    # a thousand sibling groups, each one level deep
    flat = "+".join(["(x)"] * 1000)
    assert compile_evaluator(parse(flat))(0.5) == 500.0


@given(st.text(max_size=30))
def test_parse_totality(source):
    # every text parses or fails with a position inside the source
    try:
        parse(source)
    except (LexError, ParseError) as err:
        assert 0 <= err.position <= len(source)


def test_parse_shares_equal_subexpressions():
    assert parse("x*x").tape.keys == [("x",), ("*", 0, 0)]
    e = parse("sin(x)/2 + sin(x)")
    assert e.tape.keys == [("x",), ("sin", 0), ("2.0",), ("/", 1, 2), ("+", 3, 1)]


@pytest.mark.parametrize("source", ["x", "2", "x*x - 4*x + 3", "sin(x)^2 + cos(x)^2", "-(x + pi)/sqrt(x)"])
def test_parse_puts_the_tree_on_the_tape_it_is_given(source):
    # parse keys the text on a new tape in the reference tape's order, the
    # root last, and builds nothing else there: putting each key again
    # finds its slot and appends nothing
    e = parse(source)
    assert e.tape.keys == _reference_keys(reference_parse(source))
    assert e.slot == len(e.tape.keys) - 1
    assert [e.tape.put(key) for key in list(e.tape.keys)] == list(range(len(e.tape.keys)))
    assert e.slot == len(e.tape.keys) - 1


@given(st.lists(grammar_exprs(max_leaves=8), min_size=1, max_size=3))
def test_parse_onto_a_shared_tape_matches_the_reference_tape(exprs):
    # the sum of the expressions: later terms find the subexpressions of
    # earlier ones on the tape, and each term's slot there holds its text
    whole = functools.reduce(lambda u, v: Binary("+", u, v), exprs)
    e = _parsed(whole)
    reference = ReferenceTape()
    assert e.slot == reference.add(whole)
    assert e.tape.keys == reference.keys
    for tree in exprs:
        assert format_expr(Expr(e.tape, reference.add(tree))) == reference_format(tree)
    assert len(reference.keys) == len(e.tape.keys)


# --- format -----------------------------------------------------------------


def test_format_binary():
    assert format_expr(_handle(("x",), ("1.0",), ("+", 0, 1))) == "(x + 1)"


def test_format_call():
    assert format_expr(_handle(("x",), ("cos", 0))) == "cos(x)"


def test_format_neg():
    assert format_expr(_handle(("x",), ("-", 0))) == "(-x)"


def test_format_non_integer_constant():
    assert format_expr(_handle(("0.5",))) == "0.5"
    assert parse(format_expr(_handle((repr(math.pi),)))).tape.constants == {0: math.pi}


@pytest.mark.parametrize(
    "value, text",
    [(3.0, "3"), (-2.5, "(-2.5)"), (-0.0, "(-0)"), (0.0, "0"), (1e16, "1e+16"), (-1e17, "(-1e+17)")],
)
def test_format_constants(value, text):
    # a negative constant, -0.0 included, is written as a unary minus
    assert format_expr(_handle((repr(value),))) == text
    assert format_expr(_handle((repr(value),))) == reference_format(Constant(value))


@given(grammar_exprs())
def test_parse_format_round_trip(e):
    # the text of a parsed tree is the reference's, and parses to the same keys
    h = _parsed(e)
    assert format_expr(h) == reference_format(e)
    assert parse(format_expr(h)).tape.keys == h.tape.keys


# --- evaluate ---------------------------------------------------------------


def test_evaluate_quadratic_roots():
    f = parse("x^2 - 4*x + 3")
    assert evaluate(f, 1.0) == 0.0
    assert evaluate(f, 3.0) == 0.0


def test_evaluate_sin_at_half_pi():
    assert evaluate(parse("sin(x)"), math.pi / 2) == 1.0


def test_evaluate_ln_of_negative():
    with pytest.raises(DomainError) as err:
        evaluate(parse("ln(x)"), -1.0)
    assert err.value.point == -1.0
    assert err.value.kind is DomainErrorKind.LOG_OF_NON_POSITIVE


def test_evaluate_sqrt_of_negative():
    with pytest.raises(DomainError) as err:
        evaluate(parse("sqrt(x)"), -4.0)
    assert err.value.kind is DomainErrorKind.ROOT_OF_NEGATIVE


def test_evaluate_division_by_zero():
    with pytest.raises(DomainError) as err:
        evaluate(parse("1/x"), 0.0)
    assert "division by zero" in err.value.kind.value
    assert err.value.kind is DomainErrorKind.DIVISION_BY_ZERO


def test_evaluate_integer_power_any_base():
    assert evaluate(parse("x^3"), -2.0) == -8.0
    assert evaluate(parse("x^0"), 0.0) == 1.0
    assert evaluate(parse("x^-2"), 2.0) == 0.25


def test_evaluate_negative_integer_power_at_zero():
    with pytest.raises(DomainError):
        evaluate(parse("x^-2"), 0.0)


def test_evaluate_non_integer_power_needs_positive_base():
    assert evaluate(parse("x^0.5"), 4.0) == pytest.approx(2.0)
    with pytest.raises(DomainError) as err:
        evaluate(parse("x^0.5"), -4.0)
    assert "non-positive base" in err.value.kind.value
    assert err.value.kind is DomainErrorKind.POWER_OF_NON_POSITIVE
    with pytest.raises(DomainError):
        evaluate(parse("x^0.5"), 0.0)


def test_evaluate_large_integer_exponent_goes_through_exp_ln():
    # |exponent| > 64 leaves the repeated-multiplication regime
    assert evaluate(parse("2^65"), 0.0) == pytest.approx(2.0**65, rel=1e-12)
    with pytest.raises(DomainError):
        evaluate(parse("(-2)^65"), 0.0)


@pytest.mark.parametrize(
    "k, n",
    [(2.0, 2), (64.0, 64), (-64.0, -64), (-0.0, 0), (64.5, None), (65.0, None), (-65.0, None),
     (0.5, None), (math.inf, None), (-math.inf, None), (math.nan, None)],
)
def test_integer_exponent(k, n):
    assert expr.integer_exponent(k) == n


def test_evaluate_overflow_is_domain_error():
    with pytest.raises(DomainError) as err:
        evaluate(parse("exp(x)"), 1000.0)
    assert err.value.kind.value == "non-finite result"
    assert err.value.kind is DomainErrorKind.NON_FINITE
    assert str(err.value) == "non-finite result at x = 1000.0"


def test_evaluate_requires_finite_x():
    with pytest.raises(ValueError):
        evaluate(parse("x"), math.inf)


def test_evaluate_deterministic():
    f = parse("sin(x) * exp(x) - x^3 / 7")
    assert evaluate(f, 1.234) == evaluate(f, 1.234)


def test_constant_rejects_non_finite():
    # a constant is parsed from a literal, which may not overflow, or
    # named, and no name is nan or inf
    with pytest.raises(LexError):
        parse("1e999")
    for name in ("nan", "inf"):
        with pytest.raises(UnknownIdentifier):
            parse(name)


def _assert_matches_reference(f, e, x):
    """``f(x)`` is ``reference_evaluate(e, x)``, bit for bit (the sign of
    zero included), or raises the DomainError of its kind at ``x``."""
    try:
        expected = reference_evaluate(e, x)
    except ReferenceDomainError as err:
        with pytest.raises(DomainError) as caught:
            f(x)
        assert (caught.value.kind.name, caught.value.point) == (err.kind, err.point)
    else:
        assert repr(f(x)) == repr(expected)


@given(grammar_exprs(), st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_compiled_evaluator_matches_reference(e, x):
    h = _parsed(e)
    _assert_matches_reference(compile_evaluator(h), e, x)
    _assert_matches_reference(lambda point: evaluate(h, point), e, x)


def _power(base: str, k: float) -> Expr:
    # the parser reads x^-2 as x^(-(2)); folded derivatives hold the literal -2
    e = parse(base)
    return Expr(e.tape, e.tape.put(("^", e.slot, e.tape.put((repr(k),)))))


EDGE_CASES = [
    # integer powers: the product's test, the base's test, the pole and 1/p
    (parse("x^2"), 1e200),
    (parse("exp(-(x^2))"), 1e200),
    (_power("x", -2.0), 1e200),
    (_power("x", -2.0), 0.0),
    (_power("x*x", -2.0), 1e200),
    (_wrap(_wrap(_power("x", -1.0), "-"), "exp"), 1e-310),
    (parse("(x*x)^0"), 1e200),
    (parse("x^3"), -0.0),
    (parse("x^1"), 1e300),
    (parse("x^0.5"), -1.0),
    # exp overflowing inside _pow
    (parse("x^1.5"), 1e300),
    (parse("x^x"), 1000.0),
    # the root's own test
    (parse("x*x"), 1e200),
    # math's ValueError and OverflowError, and the ln and sqrt domains
    (parse("sin(x*x)"), 1e200),
    (parse("exp(x)"), 800.0),
    (parse("ln(x*x - x*x)"), 1e200),
    (parse("ln(-x)"), 1.0),
    (parse("sqrt(x*x - x*x)"), 1e200),
    (parse("sqrt(-x)"), 1.0),
    # division: operand tests, then the zero test, then the quotient's test
    (parse("1/(x*x)"), 1e200),
    (parse("(x*x)/(x*x)"), 1e200),
    (parse("(x*x)/(x-x)"), 1e200),
    (parse("x/(x-x)"), 1.0),
    (parse("x/0"), 1.0),
    (parse("exp(-(x/0.5))"), 1e308),
    # a derivative sharing x*x between a power's product and a divisor, and
    # a root that is a literal
    (differentiate(parse("x^3 - 2*x^2/x + 1/(x^2+1)")), 0.5),
    (parse("2"), 1.0),
]


def _edge_id(value) -> str:
    return repr(value) if isinstance(value, float) else format_expr(value)


@pytest.mark.parametrize("e, x", EDGE_CASES, ids=_edge_id)
def test_compiled_code_matches_reference_at_the_edges(e, x):
    _assert_matches_reference(compile_evaluator(e), _tree(e), x)
    (column,) = tabulate(*_taped(e), [x])
    assert [repr(v) for v in column] == [repr(_reference(_tree(e), x))]


def test_a_power_keeps_its_test_beside_a_product_of_its_base():
    # x*x and x^2 compute the same product, which overflows at 1e200: the
    # power fails there, as the reference does, and the product does not, so
    # exp(-(x*x)) is exp(-inf) = 0.0 and exp(-(x^2)) is undefined
    product, power = parse("exp(-(x*x))"), parse("exp(-(x^2))")
    assert reference_evaluate(_tree(product), 1e200) == evaluate(product, 1e200) == 0.0
    assert _reference(_tree(power), 1e200) is None
    with pytest.raises(DomainError) as expected:
        evaluate(power, 1e200)
    assert expected.value.kind is DomainErrorKind.NON_FINITE
    assert tabulate(*_taped(product, power), [1e200]) == [[0.0], [None]]
    assert tabulate(*_taped(power, product), [1e200]) == [[None], [0.0]]


def _subtrees(e) -> list:
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, Neg):
            stack.append(node.child)
        elif isinstance(node, Binary):
            stack += [node.left, node.right]
        elif isinstance(node, Call):
            stack.append(node.argument)
    return out


def _reference(e, x: float) -> float | None:
    try:
        return reference_evaluate(e, x)
    except ReferenceDomainError:
        return None


@given(grammar_exprs(), st.data())
def test_one_program_computes_every_output(e, data):
    # the shape the smoothness scan tabulates: e, some of its subtrees, and
    # cos(u) for the argument u of each tan in e
    subtrees = _subtrees(e)
    picked = data.draw(st.lists(st.sampled_from(subtrees), max_size=4))
    extras = [Call("cos", t.argument) for t in subtrees if isinstance(t, Call) and t.fn == "tan"]
    outputs = [e, *picked, *extras]
    xs = grid(Interval(-4.0, 4.0), 33)
    columns = tabulate(*_taped(*map(_parsed, outputs)), xs)
    for i, x in enumerate(xs):
        row = [column[i] for column in columns]
        # every row where e fails is read too, and no output of it is lost
        for out, value in zip(outputs, row, strict=True):
            # None where undefined; bit-identical values, including zero sign
            assert repr(value) == repr(_reference(out, x))


def test_equal_subtrees_lower_to_one_statement(monkeypatch):
    # sin(x) twice in the text: one call to sin per evaluation
    calls = []

    def counted_sin(u):
        calls.append(u)
        return math.sin(u)

    monkeypatch.setitem(expr._RULES, "sin", expr._Rule(counted_sin, expr._RULES["sin"].bounds))
    compiled = compile_evaluator(parse("sin(x) * sin(x)"))
    assert compiled(0.5) == math.sin(0.5) * math.sin(0.5)
    assert compiled(0.25) == math.sin(0.25) * math.sin(0.25)
    assert calls == [0.5, 0.25]


def test_evaluator_computes_only_the_cone_of_its_slot():
    # sqrt(x) comes first on the tape and fails at -0.75, but x + 0.5 does
    # not read it
    e = parse("sqrt(x) + 1/(x+0.5)")
    t = e.tape
    inner = t.put(("+", t.put(("x",)), t.put(("0.5",))))
    assert evaluator(t, inner)(-0.75) == -0.25
    with pytest.raises(DomainError) as caught:
        evaluator(t, e.slot)(-0.75)
    assert caught.value.kind is DomainErrorKind.ROOT_OF_NEGATIVE


def test_steps_list_each_outputs_cone_in_postorder():
    # ln(x) comes first on the tape, but sqrt(x) + ln(x) reaches sqrt(x)
    # first; a later output lists only what an earlier one did not, and
    # x^2, a power by a literal exponent, reads its base only, its exponent
    # listed as a leaf all the same
    t = Tape()
    ln = _put(t, parse("ln(x)"))  # x at 0, ln(x) at 1
    top = _put(t, parse("sqrt(x) + ln(x)"))  # sqrt(x) at 2, the sum at 3
    square = _put(t, parse("x^2"))  # 2 at 4, x^2 at 5
    listed = steps(t, [top, square, ln])
    assert [(i, reads) for i, _, reads in listed] == [(0, ()), (2, (0,)), (1, (0,)), (3, (2, 1)), (4, ()), (5, (0,))]
    assert listed[0][1] is None and listed[3][1] is expr._RULES["+"] and listed[4][1] == 2.0
    assert steps(t, [4]) == [(4, 2.0, ())]
    # the list is kept on the tape
    assert steps(t, [top, square, ln]) is listed


def test_enclose_and_tabulate_read_only_the_cone_of_their_outputs(monkeypatch):
    # sqrt(x) comes first on the tape and fails on all of [-2, -1], but
    # x + 1 does not read it: neither pass computes it
    def unread(*values):
        pytest.fail(f"sqrt's step ran on {values!r}")

    monkeypatch.setitem(expr._RULES, "sqrt", expr._Rule(unread, unread, unread))
    t = Tape()
    _put(t, parse("sqrt(x)"))
    slot = _put(t, parse("x+1"))
    assert [i for i, _, _ in steps(t, [slot])] == [0, 2, 3]
    assert enclose(t, [slot], -2.0, -1.0) == [(-1.0, 0.0)]
    assert tabulate(t, [slot], [-2.0, -1.0]) == [[-1.0, 0.0]]


def test_a_list_of_steps_made_before_more_keys_are_put_stays_that_of_its_expression():
    # steps keeps each list on its tape: what is put there later, the
    # derivative, its hazards' cos(u) and other roots, changes no cone
    text = "tan(x)^2 / (x - 0.5) + sqrt(abs(x))^1.5"
    f = parse(text)
    t, top = f.tape, f.slot
    listed = list(steps(t, [top]))
    calculus.analyze_smoothness(f, Interval(-1.0, 1.0), 97)
    calculus.differentiate(f)
    _put(t, parse("ln(x) * " + text))
    fresh = parse(text)
    assert fresh.slot == top and len(t.keys) > len(fresh.tape.keys)
    assert steps(t, [top]) == listed == steps(fresh.tape, [top])


def test_a_literal_exponent_is_decided_once_per_listing(monkeypatch):
    # which rule x^2.75 and x^3 follow is decided when their steps are
    # listed, not at each of the 100 rows and the 100 points
    calls = []

    def counted(k):
        calls.append(k)
        return integer_exponent(k)

    monkeypatch.setattr(expr, "integer_exponent", counted)
    t, (top,) = _taped(parse("x^2.75 + x^3"))
    xs = grid(Interval(0.5, 2.0), 100)
    (column,) = tabulate(t, [top], xs)
    at = evaluator(t, top)
    assert [at(x) for x in xs] == column
    assert len(calls) < len(xs)


@given(st.lists(grammar_exprs(), min_size=2, max_size=4), st.floats(min_value=-50.0, max_value=50.0))
# ln(x) comes first on the tape, but the sum reaches sqrt(x) first
@example([reference_parse("ln(x)"), reference_parse("sqrt(x)+ln(x)")], -1.0)
def test_evaluator_matches_reference_at_every_slot(exprs, x):
    # a tape that the expressions share, so a slot's cone may skip the
    # nodes between its own
    t, _ = _taped(*map(_parsed, exprs))
    for slot in range(len(t.keys)):
        _assert_matches_reference(evaluator(t, slot), _tree(Expr(t, slot)), x)


def test_constants_keep_the_sign_of_zero_apart():
    # 0*x + (-0.0)*x, the -0.0 a literal key as a fold would leave it
    e = _handle(("0.0",), ("x",), ("*", 0, 1), ("-0.0",), ("*", 3, 1), ("+", 2, 4))
    columns = tabulate(e.tape, [e.slot, 2, 4], [-1.0])
    assert [repr(v) for (v,) in columns] == ["0.0", "-0.0", "0.0"]


def test_outputs_are_none_where_not_finite():
    # 1e200*1e200 overflows to inf without raising; exp(-inf) is 0.0
    e = parse("exp(-(1e200*1e200)) + x")
    t = e.tape
    inner = t.put(("*", t.put(("1e+200",)), t.put(("1e+200",))))
    assert tabulate(t, [e.slot, inner], [1.0]) == [[1.0], [None]]


@given(grammar_exprs(), st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=6))
def test_each_column_is_its_nodes_evaluation(e, xs):
    # every slot of e's tape an output: its value wherever the reference
    # gives one, None exactly where it raises, also at a row where a
    # function of math raises at some node (exp overflowing, sin of an
    # infinity): only the nodes that read it are None there
    t = _parsed(e).tape
    columns = tabulate(t, range(len(t.keys)), xs)
    nodes = [_tree(Expr(t, slot)) for slot in range(len(t.keys))]
    for row, x in enumerate(xs):
        for node, column in zip(nodes, columns, strict=True):
            assert repr(column[row]) == repr(_reference(node, x))


def test_tabulate_cases():
    # no points: one empty column per output
    e = parse("sin(x) + 1/x")
    t = e.tape
    assert tabulate(t, [e.slot, t.put(("/", t.put(("1.0",)), t.put(("x",))))], []) == [[], []]
    # exp(800*x) overflows right of 0.887: the top is None at those rows,
    # as the reference raises NON_FINITE for e, but 800*x, which does not
    # read exp, keeps its values there
    e = parse("sin(exp(800*x))")
    t = e.tape
    xs = grid(Interval(0.0, 1.0), 11)
    top, inner = tabulate(t, [e.slot, t.put(("*", t.put(("800.0",)), t.put(("x",))))], xs)
    assert top[9:] == [None, None]
    assert [repr(v) for v in top[:9]] == [repr(reference_evaluate(_tree(e), x)) for x in xs[:9]]
    assert inner == [800.0 * x for x in xs]
    for x in xs[9:]:
        with pytest.raises(ReferenceDomainError) as caught:
            reference_evaluate(_tree(e), x)
        assert caught.value.kind == "NON_FINITE"
    # x^64 is multiplied out: at 1e5 the product overflows to inf without
    # raising, and the value is None
    power = parse("x^64")
    assert tabulate(*_taped(power), [2.0, 1e5]) == [[2.0**64, None]]
    with pytest.raises(ReferenceDomainError) as caught:
        reference_evaluate(_tree(power), 1e5)
    assert caught.value.kind == "NON_FINITE"


def test_tabulate_memory_follows_the_tapes_width():
    # a 500-term flat sum is 500 slots deep and 2 wide: each partial sum's
    # column is dropped after the next one reads it, so the pass peaks at a
    # few columns, where keeping every column would take 500
    e = parse("+".join(["x"] * 500))
    t, outs = _taped(e)
    xs = grid(Interval(-1.0, 1.0), 1024)
    tracemalloc.start()
    try:
        (column,) = tabulate(t, outs, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert column[-1] == 500.0
    one_column = sys.getsizeof(column) + sum(sys.getsizeof(v) for v in column)
    assert peak < 6 * one_column


def test_tabulate_has_no_nesting_limit():
    # the derivative of a 600-factor product is too deep for the
    # reference's recursive parser and walk, and evaluates and tabulates
    # to the same values
    d = differentiate(parse("*".join(["x"] * 600)))
    with pytest.raises(RecursionError):
        reference_evaluate(_tree(d), 0.7)
    xs = [0.7, 1.0, 1.01]
    (column,) = tabulate(*_taped(d), xs)
    assert [repr(v) for v in column] == [repr(evaluate(d, x)) for x in xs]


def test_compile_has_no_nesting_limit():
    flat_sum = parse("+".join(["x"] * 400))
    assert compile_evaluator(flat_sum)(0.5) == 200.0


# --- tape and enclose --------------------------------------------------------


def test_tape_holds_children_first_and_shared_nodes_once():
    e = parse("sin(x) + -sin(x)")
    t = e.tape
    assert e.slot == 3
    assert t.keys == [("x",), ("sin", 0), ("-", 1), ("+", 1, 2)]
    # a node on the tape keeps its slot, and putting it appends nothing
    assert t.put(("sin", 0)) == 1
    assert len(t.keys) == 4
    # a new root appends only what is not on the tape yet
    assert _put(t, parse("cos(sin(x))")) == 4
    assert t.keys[4:] == [("cos", 1)]


def test_equal_expressions_take_one_slot():
    # both copies of x - 0.3 take the first copy's slot
    e = parse("(x - 0.3) / (x - 0.3)")
    t = e.tape
    assert e.slot == 3 and t.keys == [("x",), ("0.3",), ("-", 0, 1), ("/", 2, 2)]
    # a constant is keyed by its repr: 0.0, -0.0 and -(0.0) take three
    # slots, and the tape keeps each constant's value, its sign too
    assert [t.put(("0.0",)), t.put(("-0.0",)), t.put(("-", t.put(("0.0",))))] == [4, 5, 6]
    assert {slot: repr(value) for slot, value in t.constants.items()} == {1: "0.3", 4: "0.0", 5: "-0.0"}
    # an equal expression from another tape finds the old slot and appends nothing
    assert _put(t, parse("(x - 0.3) / (x - 0.3)")) == 3
    assert len(t.keys) == 7


def test_tape_has_no_depth_limit():
    e = parse("-" * 20000 + "x")
    assert e.slot == 20000
    assert e.tape.keys == [("x",), *[("-", i) for i in range(20000)]]
    assert format_expr(e) == "(-" * 20000 + "x" + ")" * 20000


def test_tape_keys_a_shared_dag_once_per_object():
    # u * u, two hundred times over: a tree of 2^200 leaves in 201 keys,
    # each listed, and so computed, once
    t = Tape()
    u = t.put(("x",))
    for _ in range(200):
        u = t.put(("*", u, u))
    assert u == 200 and len(t.keys) == 201
    assert len(steps(t, [u])) == 201
    assert evaluator(t, u)(1.0) == 1.0


def test_put_keys_a_node_and_format_reads_the_keys():
    # put keys a slot over slots already on the tape and builds nothing;
    # format_expr reads the keys, with no recursion
    sin = parse("sin(x)")
    t = sin.tape
    negated = t.put(("-", sin.slot))
    top = t.put(("*", negated, t.put(("-0.0",))))
    assert len(t.keys) == 5
    assert format_expr(Expr(t, top)) == "((-sin(x)) * (-0))"
    assert format_expr(sin) == "sin(x)"
    # 20000 negations keyed by put
    t = Tape()
    slot = t.put(("x",))
    for _ in range(20000):
        slot = t.put(("-", slot))
    assert slot == 20000
    assert format_expr(Expr(t, slot)) == "(-" * 20000 + "x" + ")" * 20000


@given(st.lists(grammar_exprs(max_leaves=8), min_size=1, max_size=2), st.data())
@settings(deadline=None)
def test_tape_matches_the_reference_tape(exprs, data):
    # roots that may repeat, summed into one text: the tape holds the keys
    # a reference tape holds for the same tree, in the same order
    picks = data.draw(st.lists(st.sampled_from(exprs), min_size=1, max_size=4), label="roots")
    whole = functools.reduce(lambda u, v: Binary("+", u, v), picks)
    reference = ReferenceTape()
    e = _parsed(whole)
    assert e.slot == reference.add(whole)
    assert e.tape.keys == reference.keys


def _assert_encloses(t, outs, iv, bounds):
    # every output of the column pass over the sample grids is defined
    # and lies within its bounds, and so is the reference's value on the
    # coarser grid
    for n in (97, 1024):
        xs = grid(iv, n)
        columns = tabulate(t, outs, xs)
        for x, row in zip(xs, zip(*columns)):
            for value, (lo, hi) in zip(row, bounds, strict=True):
                assert value is not None and lo <= value <= hi, (x, value, lo, hi)
    nodes = [_tree(Expr(t, out)) for out in outs]
    for x in grid(iv, 97):
        for node, (lo, hi) in zip(nodes, bounds):
            assert lo <= reference_evaluate(node, x) <= hi


@given(st.one_of(grammar_exprs(), smooth_exprs()), st.data())
@settings(deadline=None)
def test_enclosures_hold_every_compiled_value(e, data):
    a = data.draw(st.floats(min_value=-50.0, max_value=50.0), label="a")
    width = data.draw(st.floats(min_value=1e-6, max_value=60.0), label="width")
    iv = Interval(a, a + width)
    # the tape and slots that analyze_smoothness bounds and tabulates: e,
    # then its hazards' inner expressions, tan(u)'s cos(u) added last
    h = _parsed(e)
    t, top = h.tape, h.slot
    outs = [top, *(slot for slot, _, _ in calculus._collect_hazards(t, top))]
    # and some more of the nodes that the pass reads, whose bounds hold too
    outs += data.draw(st.lists(st.integers(0, max(outs)), max_size=4), label="more")
    try:
        bounds = enclose(t, outs, iv.a, iv.b)
    except DomainError:
        # a node of e leaves its domain on all of [a, b]: e is undefined at
        # every grid point
        for n in (97, 1024):
            assert all(v is None for v in tabulate(t, outs, grid(iv, n))[0])
        assert all(_reference(e, x) is None for x in grid(iv, 97))
        return
    if bounds is not None:
        assert len(bounds) == len(outs)
        _assert_encloses(t, outs, iv, bounds)


def _domain_boundaries() -> st.SearchStrategy:
    """sqrt(c - x), ln(x - c) and (c - x)^0.75, each plus a smooth term:
    undefined on one side of c."""

    def boundary(c: float, which: int, smooth):
        below, above = Binary("-", Constant(c), Variable()), Binary("-", Variable(), Constant(c))
        inner = (Call("sqrt", below), Call("ln", above), Binary("^", below, Constant(0.75)))[which]
        return Binary("+", inner, smooth)

    return st.builds(boundary, st.floats(min_value=-5.0, max_value=5.0), st.integers(0, 2), smooth_exprs())


@given(
    st.one_of(grammar_exprs(), _domain_boundaries()),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=1e-6, max_value=20.0),
    st.sampled_from([33, 97]),
)
@settings(deadline=None)
def test_a_slot_that_bounds_prove_undefined_is_undefined_at_every_grid_point(e, a, width, samples):
    # what lets analyze_smoothness skip f's column on proven cells: where
    # enclose raises for a slot over [a, b], both evaluators fail at every
    # grid point of [a, b].  Every slot of the tape the analysis bounds is
    # checked, tan(u)'s cos(u) included
    iv = Interval(a, a + width)
    h = _parsed(e)
    t = h.tape
    calculus._collect_hazards(t, h.slot)
    xs = grid(iv, samples)
    for slot in range(len(t.keys)):
        try:
            enclose(t, [slot], iv.a, iv.b)
        except DomainError:
            assert tabulate(t, [slot], xs) == [[None] * samples]
            at = evaluator(t, slot)
            for x in xs:
                with pytest.raises(DomainError):
                    at(x)


def test_no_outputs_have_no_steps_no_columns_and_no_bounds():
    t, _ = _taped(parse("sqrt(x) + 1/x"))
    assert steps(t, []) == []
    assert tabulate(t, [], [0.0, 1.0]) == []
    assert enclose(t, [], -1.0, 1.0) == []


@pytest.mark.parametrize(
    "text, a, b, bounded",
    [
        # cos crosses zero inside: bounds straddle 0
        ("cos(x)", 1.5, 1.7, True),
        # tan's pole at pi/2 lies inside
        ("tan(x)", 1.5, 1.6, False),
        # integer powers by repeated multiplication, on either sign of the base
        ("x^2", -2.0, 1.0, True),
        ("x^3", -2.0, 1.0, True),
        ("x^-3", -2.0, -0.5, True),
        ("x^-2", -1.0, 1.0, False),
        # x*x underflows to 0 near 1e-170, where x^-2 divides by zero
        ("x^-2", 1e-170, 1.0, False),
        ("x^-2", 1e-150, 1.0, True),
        # exp overflows just above 709.78
        ("exp(x)", 700.0, 709.78, True),
        ("exp(x)", 700.0, 709.79, False),
        # a pole 1e-12 past b: finite, but huge
        ("1/(x - 1.000000000001)", 0.0, 1.0, True),
        ("tan(x)", 0.0, math.pi / 2 - 1e-12, False),
        # a base that may be 0 or below, and whose upper bound's power
        # overflows: neither bounded nor proven undefined
        ("x^2.5", -1.0, 1e300, False),
    ],
)
def test_enclosure_edge_cases(text, a, b, bounded):
    e = parse(text)
    bounds = enclose(*_taped(e), a, b)
    assert (bounds is not None) is bounded
    if bounded:
        _assert_encloses(*_taped(e), Interval(a, b), bounds)


def test_enclosure_of_cos_near_its_zero_straddles_zero():
    ((lo, hi),) = enclose(*_taped(parse("cos(x)")), 1.5, 1.7)
    assert lo < 0.0 < hi


@pytest.mark.parametrize(
    "text, a, b, raises_at",
    [("x^-2", 1e-170, 1.0, 1e-170), ("exp(x)", 700.0, 709.79, 709.79), ("ln(x)", 0.0, 1.0, 0.0)],
)
def test_enclosure_is_none_where_the_compiled_code_raises(text, a, b, raises_at):
    e = parse(text)
    with pytest.raises(DomainError):
        compile_evaluator(e)(raises_at)
    assert enclose(*_taped(e), a, b) is None


def test_enclose_requires_an_ordered_finite_interval():
    with pytest.raises(ValueError):
        enclose(*_taped(parse("x")), 1.0, 0.0)
    with pytest.raises(ValueError):
        enclose(*_taped(parse("x")), 0.0, math.inf)


# --- records ----------------------------------------------------------------


def test_tree_reprs():
    # a handle prints as its text, not as its tape
    assert repr(parse("x^2+sin(x)")) == "Expr('((x ^ 2) + sin(x))')"


def test_trees_compare_and_hash_by_value():
    # on one tape, handles are equal exactly when their expressions are
    e = parse("x^2 + sin(x) + sin(x)")
    t = e.tape
    one, other = Expr(t, t.put(("sin", 0))), Expr(t, e.tape.keys[e.slot][2])
    assert one == other and not one != other
    assert hash(one) == hash(other)
    assert Expr(t, 0) != one
    assert len({one, other, Expr(t, 0)}) == 2
    # across tapes, their texts are
    first, second = parse("x^2+sin(x)"), parse("(x^2) + sin(x)")
    assert first != second and format_expr(first) == format_expr(second)


def test_trees_of_different_classes_are_unequal():
    # a handle equals no other class, not even the tuple of its fields
    e = parse("x")
    assert e != (e.tape, e.slot)
    assert e != 0
    assert e.__eq__(()) is NotImplemented


@pytest.mark.parametrize(
    "record, field",
    [(parse("1"), "value"), (parse("x + x"), "op"), (parse("sin(x)"), "fn"), (parse("x"), "child")],
)
def test_trees_refuse_assignment_and_deletion(record, field):
    # neither a handle's fields nor any other attribute can be set or deleted
    for name in (field, "tape", "slot"):
        with pytest.raises(AttributeError):
            setattr(record, name, parse("x"))
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_node_validation_is_kept():
    # every way in validates what it keys: constants are finite floats,
    # and only the grammar's operators and functions are read
    assert type(parse("3").tape.constants[0]) is float
    with pytest.raises(LexError, match="overflows binary64"):
        parse("1e999")
    with pytest.raises(LexError, match="unrecognized character"):
        parse("x % x")
    with pytest.raises(UnknownIdentifier, match="unknown identifier 'log'"):
        parse("log(x)")

