"""Reference computations the tests compare the package against.

They share no code with mvtcheck: the reference parser and the reference
derivative are handed the package's node classes (and the parser its
lexer and error classes), and each reference states every rule itself.
They walk trees by plain recursion, so they serve trees of modest depth
only.
"""

import math


def central_difference(f, x: float, h: float) -> float:
    """Symmetric difference quotient (f(x+h) - f(x-h)) / (2h)."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    return (f(x + h) - f(x - h)) / (2.0 * h)


class ReferenceTape:
    """A tape built by plain recursion: the distinct subexpressions of the
    roots added, children before their parent, left before right.

    A node is told apart by its fields alone: ``op`` (a binary node),
    ``fn`` (a call), ``child`` (a negation), ``value`` (a constant) or none
    (the variable).  It is keyed by its operator, function name, ``"-"``,
    ``"x"`` or its value's ``repr``, and its children's slots, and the
    first node object with a key holds its slot.  ``add(root)`` returns
    the slot of ``root``.
    """

    def __init__(self):
        self.nodes = []
        self.args = []
        self._keys = {}
        self._seen = {}  # id(node) -> (slot, node), which keeps node alive

    def add(self, node) -> int:
        seen = self._seen.get(id(node))
        if seen is not None:
            return seen[0]
        if hasattr(node, "op"):
            part, children = node.op, (node.left, node.right)
        elif hasattr(node, "fn"):
            part, children = node.fn, (node.argument,)
        elif hasattr(node, "child"):
            part, children = "-", (node.child,)
        elif hasattr(node, "value"):
            part, children = repr(node.value), ()
        else:
            part, children = "x", ()
        key = (part, *[self.add(child) for child in children])
        if key not in self._keys:
            self._keys[key] = len(self.nodes)
            self.nodes.append(node)
            self.args.append(key[1:])
        self._seen[id(node)] = (self._keys[key], node)
        return self._keys[key]


def reference_derivative(e, nodes):
    """The derivative of ``e`` by the recursive rules that ``differentiate``
    applies slot by slot on a tape: fold ``e``, then derive the folded tree,
    folding each node it builds.

    ``nodes`` is the module that holds the node classes ``Constant``,
    ``Neg``, ``Binary`` and ``Call``: a node over constants folds to
    :func:`reference_evaluate` of it, and stays as it is where that
    raises.  The rules are read off the nodes' fields as
    :class:`ReferenceTape` reads them.
    """

    def is_constant(node):
        return hasattr(node, "value")

    def is_zero(node):
        return is_constant(node) and node.value == 0.0

    def is_one(node):
        return is_constant(node) and node.value == 1.0

    def folded(node):
        try:
            return nodes.Constant(reference_evaluate(node, 0.0))
        except ReferenceDomainError:
            return None

    def neg(child):
        if is_constant(child):
            return nodes.Constant(-child.value)
        return nodes.Neg(child)

    def binary(op, left, right):
        if is_constant(left) and is_constant(right):
            out = folded(nodes.Binary(op, left, right))
            if out is not None:
                return out
        if op == "+":
            if is_zero(left):
                return right
            if is_zero(right):
                return left
        elif op == "*":
            if is_zero(left) or is_zero(right):
                return nodes.Constant(0.0)
            if is_one(left):
                return right
            if is_one(right):
                return left
        elif op == "^" and is_one(right):
            return left
        return nodes.Binary(op, left, right)

    def call(fn, arg):
        if is_constant(arg):
            out = folded(nodes.Call(fn, arg))
            if out is not None:
                return out
        return nodes.Call(fn, arg)

    def simplify(node):
        if hasattr(node, "op"):
            return binary(node.op, simplify(node.left), simplify(node.right))
        if hasattr(node, "fn"):
            return call(node.fn, simplify(node.argument))
        if hasattr(node, "child"):
            return neg(simplify(node.child))
        return node

    def derive(node):
        if is_constant(node):
            return nodes.Constant(0.0)
        if hasattr(node, "child"):
            return neg(derive(node.child))
        if hasattr(node, "op"):
            u, v, op = node.left, node.right, node.op
            if op in ("+", "-"):
                return binary(op, derive(u), derive(v))
            if op == "*":
                return binary("+", binary("*", derive(u), v), binary("*", u, derive(v)))
            if op == "/":
                num = binary("-", binary("*", derive(u), v), binary("*", u, derive(v)))
                return binary("/", num, binary("^", v, nodes.Constant(2.0)))
            if is_constant(v):
                power = binary("^", u, nodes.Constant(v.value - 1.0))
                return binary("*", binary("*", v, power), derive(u))
            if is_constant(u):
                return binary("*", binary("*", node, call("ln", u)), derive(v))
            inner = binary("+", binary("*", derive(v), call("ln", u)), binary("/", binary("*", v, derive(u)), u))
            return binary("*", node, inner)
        if hasattr(node, "fn"):
            u, fn = node.argument, node.fn
            du = derive(u)
            if fn == "sin":
                return binary("*", call("cos", u), du)
            if fn == "cos":
                return binary("*", neg(call("sin", u)), du)
            if fn == "tan":
                return binary("/", du, binary("^", call("cos", u), nodes.Constant(2.0)))
            if fn == "exp":
                return binary("*", node, du)
            if fn == "ln":
                return binary("/", du, u)
            if fn == "sqrt":
                return binary("/", du, binary("*", nodes.Constant(2.0), node))
            return binary("/", binary("*", du, u), node)  # abs
        return nodes.Constant(1.0)  # x

    return derive(simplify(e))


class ReferenceDomainError(Exception):
    """Where :func:`reference_evaluate` finds its expression undefined: the
    point and the name of the failure's kind, one of ``NON_FINITE``,
    ``DIVISION_BY_ZERO``, ``LOG_OF_NON_POSITIVE``, ``ROOT_OF_NEGATIVE`` and
    ``POWER_OF_NON_POSITIVE``."""

    def __init__(self, point: float, kind: str):
        super().__init__(f"{kind} at x = {point!r}")
        self.point = point
        self.kind = kind


def reference_evaluate(e, x: float) -> float:
    """``e`` at the point ``x``, walked as a tree, children left to right
    before their parent.

    Raises ValueError where ``x`` is not finite, and ReferenceDomainError
    at the first node, in that order, whose rule fails, and where the value
    is not finite; a ValueError or OverflowError that a function of
    ``math`` raises is a non-finite value.  The rules:

    - ``u / v`` needs finite u and v, a v other than zero and a finite
      quotient;
    - ``u ^ v`` needs a finite u and v.  An integral v with ``abs(v) <= 64``
      multiplies u ``abs(v)`` times into 1.0, and a negative v then takes
      the reciprocal, which needs a product other than zero and gives a
      finite result.  Any other v needs u > 0 and is ``exp(v * ln(u))``;
    - ``ln(u)`` needs u > 0 and ``sqrt(u)`` needs u >= 0 (-0.0 included).
    """
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    try:
        out = _walk(e, x)
    except (ValueError, OverflowError):
        raise ReferenceDomainError(x, "NON_FINITE") from None
    if not math.isfinite(out):
        raise ReferenceDomainError(x, "NON_FINITE")
    return out


_MATH = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "abs": math.fabs,
}


def _walk(e, x):
    if hasattr(e, "op"):
        u, v = _walk(e.left, x), _walk(e.right, x)
        if e.op == "+":
            return u + v
        if e.op == "-":
            return u - v
        if e.op == "*":
            return u * v
        if not (math.isfinite(u) and math.isfinite(v)):
            raise ReferenceDomainError(x, "NON_FINITE")
        if e.op == "/":
            if v == 0.0:
                raise ReferenceDomainError(x, "DIVISION_BY_ZERO")
            out = u / v
        elif v == int(v) and abs(v) <= 64.0:
            out = 1.0
            for _ in range(int(abs(v))):
                out *= u
            if v < 0.0:
                if out == 0.0:
                    raise ReferenceDomainError(x, "DIVISION_BY_ZERO")
                out = 1.0 / out
        elif u <= 0.0:
            raise ReferenceDomainError(x, "POWER_OF_NON_POSITIVE")
        else:
            return math.exp(v * math.log(u))
        if not math.isfinite(out):
            raise ReferenceDomainError(x, "NON_FINITE")
        return out
    if hasattr(e, "fn"):
        u = _walk(e.argument, x)
        if e.fn == "ln" and u <= 0.0:
            raise ReferenceDomainError(x, "LOG_OF_NON_POSITIVE")
        if e.fn == "sqrt" and u < 0.0:
            raise ReferenceDomainError(x, "ROOT_OF_NEGATIVE")
        return _MATH[e.fn](u)
    if hasattr(e, "child"):
        return -_walk(e.child, x)
    if hasattr(e, "value"):
        return e.value
    return x


def reference_parse(source: str, nodes):
    """``source`` parsed by recursive descent, one method per level of the
    grammar: the tree, or the error, that ``parse`` gives.

    ``nodes`` is the module that holds ``tokenize``, the node classes
    ``Constant``, ``Variable``, ``Neg``, ``Binary`` and ``Call`` and the
    errors ``ParseError`` and ``UnknownIdentifier``.  Precedence, loosest
    to tightest: ``+ -``, then ``* /``, both left associative, then unary
    minus, then ``^``, right associative, whose exponent may carry a unary
    minus; a function call binds tightest.
    """
    return _ReferenceParser(source, nodes).parse()


_FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")
_NAMED = {"pi": math.pi, "e": math.e}
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2}


class _ReferenceParser:
    def __init__(self, source, nodes):
        # the end marker gives every lookahead a text ("" at the end) and a position
        self._nodes = nodes
        self._tokens = nodes.tokenize(source)
        self._tokens.append(("", len(source)))
        self._pos = 0

    def parse(self):
        expr = self._expression()
        if self._peek():
            raise self._nodes.ParseError(self._position(), "end of input")
        return expr

    def _peek(self):
        return self._tokens[self._pos][0]

    def _position(self):
        return self._tokens[self._pos][1]

    def _advance(self):
        # consume the next token and return its position
        self._pos += 1
        return self._tokens[self._pos - 1][1]

    def _expect(self, text, what):
        if self._peek() != text:
            raise self._nodes.ParseError(self._position(), what)
        return self._advance()

    def _expression(self, binding=1):
        # a right operand holds only tighter operators: each level is left associative
        expr = self._unary()
        while _BINDING.get(op := self._peek(), 0) >= binding:
            self._advance()
            tighter = _BINDING[op] + 1
            right = self._expression(tighter) if tighter <= max(_BINDING.values()) else self._unary()
            expr = self._nodes.Binary(op, expr, right)
        return expr

    def _unary(self):
        # ``-`` and ``^`` take a _unary operand, so ``^`` is right associative,
        # binds tighter than ``-``, and its exponent may carry a unary minus
        if self._peek() == "-":
            self._advance()
            return self._nodes.Neg(self._unary())
        base = self._primary()
        if self._peek() == "^":
            self._advance()
            return self._nodes.Binary("^", base, self._unary())
        return base

    def _primary(self):
        text, nodes = self._peek(), self._nodes
        if not text:
            raise nodes.ParseError(self._position(), "an expression")
        if text[0].isdigit():
            self._advance()
            return nodes.Constant(float(text))
        if text[0].isalpha():
            position = self._advance()
            if text == "x":
                return nodes.Variable()
            if text in _NAMED:
                return nodes.Constant(_NAMED[text])
            if text in _FUNCTIONS:
                self._expect("(", f"'(' after {text!r}")
                arg = self._expression()
                self._expect(")", "')'")
                return nodes.Call(text, arg)
            raise nodes.UnknownIdentifier(position, text)
        if text == "(":
            self._advance()
            expr = self._expression()
            self._expect(")", "')'")
            return expr
        raise nodes.ParseError(self._position(), "a number, a name, or '('")
