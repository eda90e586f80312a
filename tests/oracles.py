"""Reference computations the tests compare the package against.

They share no code with mvtcheck and import nothing from it.  Expressions
here are trees of the records below, which tests hand to the package as
the text :func:`reference_format` gives them; the package parses that
text onto a tape of its own.  The references walk trees by plain
recursion, so they serve trees of modest depth only.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Variable:
    pass


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    argument: object


def reference_format(e) -> str:
    """``e`` as fully parenthesized text: ``(u op v)``, ``fn(u)``, ``(-u)``,
    ``x`` and numbers, a negative one (-0.0 included) as ``(-n)``, an
    integral one below 1e16 without a fraction and any other as its
    ``repr``."""
    if isinstance(e, Binary):
        return f"({reference_format(e.left)} {e.op} {reference_format(e.right)})"
    if isinstance(e, Call):
        return f"{e.fn}({reference_format(e.argument)})"
    if isinstance(e, Neg):
        return f"(-{reference_format(e.child)})"
    if isinstance(e, Variable):
        return "x"
    v = e.value
    u = abs(v)
    text = str(int(u)) if u == int(u) and u < 1e16 else repr(u)
    return f"(-{text})" if math.copysign(1.0, v) < 0.0 else text


def central_difference(f, x: float, h: float) -> float:
    """Symmetric difference quotient (f(x+h) - f(x-h)) / (2h)."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    return (f(x + h) - f(x - h)) / (2.0 * h)


class ReferenceTape:
    """A tape built by plain recursion: the distinct subexpressions of the
    roots added, children before their parent, left before right.

    ``keys[i]`` is the key of slot ``i``: the operator, function name,
    ``"-"``, ``"x"`` or the constant's ``repr``, then the children's
    slots.  ``add(root)`` returns the slot of ``root``.
    """

    def __init__(self):
        self.keys = []
        self._slots = {}  # key -> slot

    def add(self, node) -> int:
        if isinstance(node, Binary):
            part, children = node.op, (node.left, node.right)
        elif isinstance(node, Call):
            part, children = node.fn, (node.argument,)
        elif isinstance(node, Neg):
            part, children = "-", (node.child,)
        elif isinstance(node, Constant):
            part, children = repr(node.value), ()
        else:
            part, children = "x", ()
        key = (part, *[self.add(child) for child in children])
        if key not in self._slots:
            self._slots[key] = len(self.keys)
            self.keys.append(key)
        return self._slots[key]


def reference_derivative(e):
    """The derivative of ``e`` by the recursive rules that ``differentiate``
    applies slot by slot on a tape: fold ``e``, then derive the folded tree,
    folding each node it builds.  A node over constants folds to
    :func:`reference_evaluate` of it, and stays as it is where that raises.
    """

    def is_constant(node):
        return hasattr(node, "value")

    def is_zero(node):
        return is_constant(node) and node.value == 0.0

    def is_one(node):
        return is_constant(node) and node.value == 1.0

    def folded(node):
        try:
            return Constant(reference_evaluate(node, 0.0))
        except ReferenceDomainError:
            return None

    def neg(child):
        if is_constant(child):
            return Constant(-child.value)
        return Neg(child)

    def binary(op, left, right):
        if is_constant(left) and is_constant(right):
            out = folded(Binary(op, left, right))
            if out is not None:
                return out
        if op == "+":
            if is_zero(left):
                return right
            if is_zero(right):
                return left
        elif op == "*":
            if is_zero(left) or is_zero(right):
                return Constant(0.0)
            if is_one(left):
                return right
            if is_one(right):
                return left
        elif op == "^" and is_one(right):
            return left
        return Binary(op, left, right)

    def call(fn, arg):
        if is_constant(arg):
            out = folded(Call(fn, arg))
            if out is not None:
                return out
        return Call(fn, arg)

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
            return Constant(0.0)
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
                return binary("/", num, binary("^", v, Constant(2.0)))
            if is_constant(v):
                power = binary("^", u, Constant(v.value - 1.0))
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
                return binary("/", du, binary("^", call("cos", u), Constant(2.0)))
            if fn == "exp":
                return binary("*", node, du)
            if fn == "ln":
                return binary("/", du, u)
            if fn == "sqrt":
                return binary("/", du, binary("*", Constant(2.0), node))
            return binary("/", binary("*", du, u), node)  # abs
        return Constant(1.0)  # x

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


class ReferenceSourceError(Exception):
    """Where :func:`reference_parse` rejects a text: the name of the
    package's error class it expects (``LexError``, ``ParseError`` or
    ``UnknownIdentifier``), the position, the message, which ends in the
    position, and what was expected (None for a lex error)."""

    def __init__(self, kind: str, position: int, message: str, expected=None):
        super().__init__(f"{message} (position {position})")
        self.kind = kind
        self.position = position
        self.expected = expected


def _is_digit(c: str) -> bool:
    return "0" <= c <= "9"


def _is_letter(c: str) -> bool:
    return "a" <= c <= "z" or "A" <= c <= "Z"


def reference_tokenize(source: str) -> list:
    """``(text, position)`` per token of ``source``, read one character at
    a time: whitespace between tokens, a number (digits, then ``.`` and
    digits, then ``e`` or ``E``, an optional sign and digits, each part
    taken only where it is complete), a run of ASCII letters, or one of
    ``+-*/^(),``.  Any other character, and a number past the float range,
    is a lex error."""
    tokens, i = [], 0
    while i < len(source):
        c, start = source[i], i
        if c.isspace():
            i += 1
            continue
        if _is_digit(c):
            while i < len(source) and _is_digit(source[i]):
                i += 1
            if source[i : i + 1] == "." and _is_digit(source[i + 1 : i + 2]):
                i += 2
                while i < len(source) and _is_digit(source[i]):
                    i += 1
            if source[i : i + 1] in ("e", "E"):
                sign = 1 if source[i + 1 : i + 2] in ("+", "-") else 0
                if _is_digit(source[i + 1 + sign : i + 2 + sign]):
                    i += 1 + sign
                    while i < len(source) and _is_digit(source[i]):
                        i += 1
            if not math.isfinite(float(source[start:i])):
                raise ReferenceSourceError(
                    "LexError", start, f"number literal {source[start:i]!r} overflows binary64"
                )
        elif _is_letter(c):
            while i < len(source) and _is_letter(source[i]):
                i += 1
        elif c in "+-*/^(),":
            i += 1
        else:
            raise ReferenceSourceError("LexError", start, f"unrecognized character {c!r}")
        tokens.append((source[start:i], start))
    return tokens


def reference_parse(source: str):
    """``source`` parsed by recursive descent, one method per level of the
    grammar: the tree that ``parse`` keys, or the ReferenceSourceError of
    the error it raises.

    Precedence, loosest to tightest: ``+ -``, then ``* /``, both left
    associative, then unary minus, then ``^``, right associative, whose
    exponent may carry a unary minus; a function call binds tightest.
    """
    return _ReferenceParser(source).parse()


_FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")
_NAMED = {"pi": math.pi, "e": math.e}
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2}


def _expected(position, what):
    return ReferenceSourceError("ParseError", position, f"expected {what}", what)


class _ReferenceParser:
    def __init__(self, source):
        # the end marker gives every lookahead a text ("" at the end) and a position
        self._tokens = reference_tokenize(source)
        self._tokens.append(("", len(source)))
        self._pos = 0

    def parse(self):
        expr = self._expression()
        if self._peek():
            raise _expected(self._position(), "end of input")
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
            raise _expected(self._position(), what)
        return self._advance()

    def _expression(self, binding=1):
        # a right operand holds only tighter operators: each level is left associative
        expr = self._unary()
        while _BINDING.get(op := self._peek(), 0) >= binding:
            self._advance()
            tighter = _BINDING[op] + 1
            right = self._expression(tighter) if tighter <= max(_BINDING.values()) else self._unary()
            expr = Binary(op, expr, right)
        return expr

    def _unary(self):
        # ``-`` and ``^`` take a _unary operand, so ``^`` is right associative,
        # binds tighter than ``-``, and its exponent may carry a unary minus
        if self._peek() == "-":
            self._advance()
            return Neg(self._unary())
        base = self._primary()
        if self._peek() == "^":
            self._advance()
            return Binary("^", base, self._unary())
        return base

    def _primary(self):
        text = self._peek()
        if not text:
            raise _expected(self._position(), "an expression")
        if text[0].isdigit():
            self._advance()
            return Constant(float(text))
        if text[0].isalpha():
            position = self._advance()
            if text == "x":
                return Variable()
            if text in _NAMED:
                return Constant(_NAMED[text])
            if text in _FUNCTIONS:
                self._expect("(", f"'(' after {text!r}")
                arg = self._expression()
                self._expect(")", "')'")
                return Call(text, arg)
            raise ReferenceSourceError(
                "UnknownIdentifier", position, f"unknown identifier {text!r}", "x, pi, e, or a function name"
            )
        if text == "(":
            self._advance()
            expr = self._expression()
            self._expect(")", "')'")
            return expr
        raise _expected(self._position(), "a number, a name, or '('")
