"""Shared strategies and tree builders for the test suite.

They build the reference trees of ``oracles``, which the tests hand to the
package as ``reference_format`` text; nothing here imports mvtcheck.
"""

from hypothesis import strategies as st

from oracles import Binary, Call, Constant, Neg, Variable

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")

# Constants as the grammar produces them: non-negative and finite (negative
# literals do not exist; negation is a Neg node).
nonneg_constants = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
).map(abs)


def grammar_exprs(max_leaves: int = 12) -> st.SearchStrategy:
    """Trees drawn from the full grammar (the round-trip family)."""
    leaf = st.one_of(
        st.builds(Constant, nonneg_constants),
        st.just(Variable()),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Binary, st.sampled_from("+-*/^"), children, children),
            st.builds(Call, st.sampled_from(FUNCTIONS), children),
        )

    return st.recursive(leaf, extend, max_leaves=max_leaves)


def smooth_exprs(max_leaves: int = 8) -> st.SearchStrategy:
    """Hazard-free family: polynomials plus sin/cos/exp of affine arguments.

    Keeping call arguments affine (constant coefficients) bounds the third
    derivative, which is what makes the finite-difference oracle reliable
    at h = 1e-5.
    """
    affine = st.builds(
        lambda c, d: Binary("+", Binary("*", Constant(c), Variable()), Constant(d)),
        st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    )
    leaf = st.one_of(
        st.builds(Constant, st.floats(0.0, 3.0, allow_nan=False)),
        st.just(Variable()),
        st.builds(Call, st.sampled_from(("sin", "cos", "exp")), affine),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Binary, st.sampled_from("+-*"), children, children),
            st.builds(
                lambda base, k: Binary("^", base, Constant(float(k))),
                children,
                st.integers(min_value=1, max_value=2),
            ),
        )

    return st.recursive(leaf, extend, max_leaves=max_leaves)


def polynomial(coefficients):
    """Build c0 + c1*x + c2*x^2 + ... as an expression tree."""
    expr = None
    for k, ck in enumerate(coefficients):
        if k == 0:
            term = Constant(ck)
        elif k == 1:
            term = Binary("*", Constant(ck), Variable())
        else:
            term = Binary("*", Constant(ck), Binary("^", Variable(), Constant(float(k))))
        expr = term if expr is None else Binary("+", expr, term)
    return expr


poly_coefficients = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)


def proven_hazard_exprs() -> st.SearchStrategy:
    """A term undefined on one side of ``c`` plus one hazard term, whose
    zero may lie on either side.

    The first term is ``sqrt(c - x)``, ``ln(x - c)`` or ``(c - x)^0.75``; the
    hazard is ``1/(x - p)``, ``abs(x - p)``, ``ln(x - p)`` or ``tan(k*x)``,
    with p in [0, 1] and k in [1, 10].  c lies in [0.1, 0.4] or [0.6, 0.9],
    so that on about [0, 1] bounds can prove f undefined on cells that make
    up less than half of a grid, and the hazard is scanned on the others.
    """
    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    right = st.floats(min_value=0.6, max_value=0.9, allow_nan=False)
    left = st.floats(min_value=0.1, max_value=0.4, allow_nan=False)
    x = Variable()

    def minus(u, v) -> Binary:
        return Binary("-", u, v)

    proven = st.one_of(
        st.builds(lambda c: Call("sqrt", minus(Constant(c), x)), right),
        st.builds(lambda c: Call("ln", minus(x, Constant(c))), left),
        st.builds(lambda c: Binary("^", minus(Constant(c), x), Constant(0.75)), right),
    )
    hazard = st.one_of(
        st.builds(lambda p: Binary("/", Constant(1.0), minus(x, Constant(p))), unit),
        st.builds(lambda p: Call("abs", minus(x, Constant(p))), unit),
        st.builds(lambda p: Call("ln", minus(x, Constant(p))), unit),
        st.builds(
            lambda k: Call("tan", Binary("*", Constant(k), x)),
            st.floats(min_value=1.0, max_value=10.0, allow_nan=False),
        ),
    )
    return st.builds(lambda u, v: Binary("+", u, v), proven, hazard)
