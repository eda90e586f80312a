"""Expression language for real-valued functions of one variable.

Lexer, operator-precedence parser, canonical formatter, and evaluators for
a small grammar: the five binary operators ``+ - * / ^``, unary minus, the
functions sin, cos, tan, exp, ln, sqrt, abs, the variable ``x``, and the
named constants ``pi`` and ``e`` (folded to numbers at parse time).  The
tape interpreter :func:`evaluator` (which :func:`evaluate` runs on a tape
of its own), the column pass :func:`tabulate` and the interval bounds read
a :class:`Tape`, which holds each distinct subexpression once, so an
expression on it is walked once.  No function here calls itself: the
parser, the formatter and :meth:`Tape.add` keep explicit stacks, so no
depth of nesting and no length of a sum limits them.

Precedence, loosest to tightest: additive, multiplicative, unary minus,
``^`` (right associative); function application binds tightest.  There is
no implicit multiplication: ``4x`` is a parse error, write ``4*x``.
"""

from __future__ import annotations

import math
import operator
import re
from enum import Enum
from typing import Callable, Sequence

__all__ = [
    "Record",
    "Expr",
    "Constant",
    "Variable",
    "Neg",
    "Binary",
    "Call",
    "SourceError",
    "LexError",
    "ParseError",
    "UnknownIdentifier",
    "DomainError",
    "DomainErrorKind",
    "FUNCTIONS",
    "BINARY_OPS",
    "tokenize",
    "parse",
    "format_expr",
    "evaluate",
    "fold",
    "compile_evaluator",
    "evaluator",
    "tabulate",
    "integer_exponent",
    "Tape",
    "enclose",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")
BINARY_OPS = ("+", "-", "*", "/", "^")

_NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}

class SourceError(Exception):
    """Lex or parse failure, carrying the offending source position."""

    def __init__(self, position: int, message: str):
        super().__init__(f"{message} (position {position})")
        self.position = position


class LexError(SourceError):
    pass


class ParseError(SourceError):
    def __init__(self, position: int, expected: str):
        super().__init__(position, f"expected {expected}")
        self.expected = expected


class UnknownIdentifier(ParseError):
    def __init__(self, position: int, name: str):
        SourceError.__init__(self, position, f"unknown identifier {name!r}")
        self.expected = "x, pi, e, or a function name"
        self.name = name


class DomainErrorKind(Enum):
    """Why evaluation left the real domain; the value is the message text."""

    NON_FINITE = "non-finite result"
    DIVISION_BY_ZERO = "division by zero"
    LOG_OF_NON_POSITIVE = "ln of a non-positive value"
    ROOT_OF_NEGATIVE = "square root of a negative value"
    POWER_OF_NON_POSITIVE = "non-integer power of a non-positive base"


class DomainError(Exception):
    """Evaluation left the real domain at a specific point."""

    def __init__(self, point: float, kind: DomainErrorKind):
        super().__init__(f"{kind.value} at x = {point!r}")
        self.point = point
        self.kind = kind


class Record:
    """Base of mvtcheck's immutable records.

    A subclass lists its fields in ``__slots__`` and sets them in its
    ``__init__`` through ``object.__setattr__``.  Records compare equal when
    they are of the same class and their fields are equal, hash by their
    fields, print as ``Name(field=value, ...)`` and refuse assignment and
    deletion with AttributeError.  ``copy`` and ``pickle`` rebuild them by
    calling the class with the field values in slot order.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class Expr(Record):
    """Base class of the immutable expression tree."""

    __slots__ = ()


class Constant(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        value = float(value)
        object.__setattr__(self, "value", value)
        if not math.isfinite(value):
            raise ValueError("constants must be finite")


class Variable(Expr):
    __slots__ = ()


class Neg(Expr):
    __slots__ = ("child",)

    def __init__(self, child: Expr):
        object.__setattr__(self, "child", child)


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if op not in BINARY_OPS:
            raise ValueError(f"unknown operator {op!r}")


class Call(Expr):
    __slots__ = ("fn", "argument")

    def __init__(self, fn: str, argument: Expr):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "argument", argument)
        if fn not in FUNCTIONS:
            raise ValueError(f"unknown function {fn!r}")


# a number (group 1), a name, one of ``+-*/^(),``, or any other non-space (group 2)
_TOKEN_RE = re.compile(r"([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)|[A-Za-z]+|[-+*/^(),]|(\S)")


def tokenize(source: str) -> list[tuple[str, int]]:
    """Split ``source`` into ``(text, position)`` pairs, skipping whitespace.

    A token is a number, a name, or one character of ``+-*/^(),``; a number
    begins with a digit and a name with a letter.  Numbers are matched
    longest-first (digits, optional fraction, optional exponent); names are
    runs of ASCII letters.  Raises LexError on any other character and on
    numeric literals that overflow binary64.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        number, other = m.groups()
        if other is not None:
            raise LexError(m.start(), f"unrecognized character {other!r}")
        if number is not None and not math.isfinite(float(number)):
            raise LexError(m.start(), f"number literal {number!r} overflows binary64")
        tokens.append((m.group(), m.start()))
    return tokens


def parse(source: str) -> Expr:
    """Parse ``source`` into an expression tree.

    ``pi`` and ``e`` become Constants; ``x`` is the only variable.  Raises
    ParseError (or UnknownIdentifier) with the source position on
    malformed input.

    One loop reads the tokens left to right with a stack of operands and a
    stack of operators that wait for their right operand (operator
    precedence parsing, after R. W. Floyd, "Syntactic analysis and operator
    precedence", *J. ACM* 10, 1963), so no depth of nesting limits it.  An
    operator takes its operands once the next operator binds no tighter,
    or, for the right associative ``^``, less tightly; ``(`` and ``fn(``
    bind 0 and wait for their ``)``.
    """
    # the end marker gives every token a text ("" at the end) and a position
    tokens = tokenize(source)
    tokens.append(("", len(source)))
    operands: list[Expr] = []
    waiting: list[tuple[int, str]] = []  # (binding, an operator, "(" or a function name)
    i, operand = 0, True  # operand: whether an operand comes next
    while True:
        text, position = tokens[i]
        i += 1
        if operand:
            if text == "-":
                waiting.append((_NEGATION, text))
            elif text == "(":
                waiting.append((0, text))
            elif text in FUNCTIONS:
                if tokens[i][0] != "(":
                    raise ParseError(tokens[i][1], f"'(' after {text!r}")
                i += 1
                waiting.append((0, text))
            else:
                operands.append(_operand(text, position))
                operand = False
            continue
        binding = _BINDING.get(text, 0)
        least = binding + 1 if text == "^" else binding or 1
        while waiting and waiting[-1][0] >= least:
            tightness, op = waiting.pop()
            right = operands.pop()
            if tightness == _NEGATION:
                operands.append(Neg(right))
            else:
                operands[-1] = Binary(op, operands[-1], right)
        if binding:
            waiting.append((binding, text))
            operand = True
        elif text == ")" and waiting:
            opener = waiting.pop()[1]
            if opener != "(":
                operands[-1] = Call(opener, operands[-1])
        elif text or waiting:
            # only openers wait now: the innermost one needs its ")"
            raise ParseError(position, "')'" if waiting else "end of input")
        else:
            return operands[0]


# how tightly each binary operator binds; a unary minus binds _NEGATION
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEGATION = 3


def _operand(text: str, position: int) -> Expr:
    # the operand that the token ``text`` at ``position`` begins, other than
    # a "(" or a function call
    if not text:
        raise ParseError(position, "an expression")
    if text[0].isdigit():
        return Constant(float(text))
    if text == "x":
        return Variable()
    if text in _NAMED_CONSTANTS:
        return Constant(_NAMED_CONSTANTS[text])
    if text[0].isalpha():
        raise UnknownIdentifier(position, text)
    raise ParseError(position, "a number, a name, or '('")


def format_expr(e: Expr) -> str:
    """Render ``e`` as fully parenthesized text.

    For every tree the parser can produce, ``parse(format_expr(e))`` is
    structurally identical to ``e``.  Each node writes the text before its
    first child and pushes what follows, last first, on one stack of text
    pieces and nodes, so no depth of nesting limits it.
    """
    pieces: list[str] = []
    stack: list[Expr | str] = [e]
    while stack:
        item = stack.pop()
        if isinstance(item, Binary):
            pieces.append("(")
            stack += (")", item.right, f" {item.op} ", item.left)
        elif isinstance(item, str):
            pieces.append(item)
        elif isinstance(item, Constant):
            pieces.append(_format_number(item.value))
        elif isinstance(item, Variable):
            pieces.append("x")
        elif isinstance(item, Call):
            pieces.append(f"{item.fn}(")
            stack += (")", item.argument)
        elif isinstance(item, Neg):
            pieces.append("(-")
            stack += (")", item.child)
        else:
            raise TypeError(f"not an expression: {item!r}")
    return "".join(pieces)


def _format_number(v: float) -> str:
    # negative constants cannot appear as literals; wrap them in unary minus
    negative = v < 0.0 or (v == 0.0 and math.copysign(1.0, v) < 0.0)
    u = -v if negative else v
    text = str(int(u)) if u.is_integer() and u < 1e16 else repr(u)
    return f"(-{text})" if negative else text


# --- evaluation -------------------------------------------------------------
#
# Two interpreters read a tape, and generate no code: evaluator, one point
# at a time (evaluate is evaluator on a tape of its own), and the column
# pass tabulate, many points at once.  _div and _pow, for the two risky
# operators, return an _Undefined NaN where they fail, and _DOMAINS holds
# the domains of ln and sqrt; both interpreters read them, so each rule is
# stated once, there.  The one exception is the column pass's product for
# a literal exponent that _pow multiplies out to k >= 1: u * ... * u, which
# is _repeat's product (that starts from 1.0, and 1.0 * u is u), with one
# finiteness test after it, which fails where _pow's tests do, since a
# non-finite base gives a non-finite product.  Both call the same functions
# of math.  The evaluator maps a ValueError or OverflowError raised anywhere
# inside it to NON_FINITE, and the column pass puts NaN at the row where
# one is raised, which flows on as a failed rule's NaN does; only those
# functions (math.exp in _pow included) raise either.

# what ``fn(u)`` calls, in every evaluator
_LIBM = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "abs": math.fabs,
}

# the least argument at which ln and sqrt are defined, and how they fail
# below it: ln below the least positive float, sqrt below zero
_DOMAINS = {
    "ln": (math.ulp(0.0), DomainErrorKind.LOG_OF_NON_POSITIVE),
    "sqrt": (0.0, DomainErrorKind.ROOT_OF_NEGATIVE),
}


class _Undefined(float):
    """The NaN that _div, _pow and the evaluator's ln and sqrt return where
    they fail, with the kind of the failure.  Arithmetic on it gives a
    plain NaN, and so does every operation after that: a failure flows on
    to every result it feeds."""

    __slots__ = ("kind",)

    def __new__(cls, kind: DomainErrorKind):
        out = super().__new__(cls, math.nan)
        out.kind = kind
        return out


# by kind name, which hashes faster than the kind
_UNDEFINED = {kind.name: _Undefined(kind) for kind in DomainErrorKind}


def _div(num: float, den: float) -> float:
    if not (math.isfinite(num) and math.isfinite(den)):
        return _UNDEFINED["NON_FINITE"]
    if den == 0.0:
        return _UNDEFINED["DIVISION_BY_ZERO"]
    out = num / den
    if not math.isfinite(out):
        return _UNDEFINED["NON_FINITE"]
    return out


def integer_exponent(k: float) -> int | None:
    """``int(k)`` when ``^`` raises to the power ``k`` by repeated
    multiplication: ``k`` is integral and ``abs(k) <= 64``.  None for any
    other ``k``, infinities and nan included."""
    if abs(k) <= 64.0 and k == int(k):
        return int(k)
    return None


def _repeat(base: float, k: int) -> float:
    # base multiplied k times into 1.0: monotone in base for odd k and in
    # abs(base) for even k, because rounding to nearest is
    out = 1.0
    for _ in range(k):
        out *= base
    return out


def _pow(base: float, exponent: float) -> float:
    if not (math.isfinite(base) and math.isfinite(exponent)):
        return _UNDEFINED["NON_FINITE"]
    n = integer_exponent(exponent)
    if n is not None:
        out = _repeat(base, abs(n))
        if n < 0:
            if out == 0.0:
                return _UNDEFINED["DIVISION_BY_ZERO"]
            out = 1.0 / out
        if not math.isfinite(out):
            return _UNDEFINED["NON_FINITE"]
        return out
    if base <= 0.0:
        return _UNDEFINED["POWER_OF_NON_POSITIVE"]
    # math.exp may raise OverflowError: both callers map it to NON_FINITE
    return math.exp(exponent * math.log(base))


# what computes each binary operator from its operands' values, in both interpreters
_OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div, "^": _pow}


def evaluate(e: Expr, x: float) -> float:
    """Evaluate ``e`` at the point ``x``: :func:`compile_evaluator` of ``e`` at ``x``.

    ``^`` with an integral exponent of magnitude <= 64 uses repeated
    multiplication and allows any base; other exponents are defined as
    exp(exponent * ln(base)) and require a positive base.  Raises
    DomainError for division by zero, ln/sqrt outside their real domains,
    non-integer powers of non-positive bases, and non-finite results, and
    ValueError where ``x`` is not finite.
    """
    return compile_evaluator(e)(x)


def fold(part: str, *values: float) -> float | None:
    """The binary operator or function ``part`` of the finite ``values``,
    as :func:`evaluate` computes a node over constants: the same value
    where that is defined, None where :func:`evaluate` raises DomainError."""
    try:
        if len(values) == 2:
            out = _OPERATIONS[part](*values)
        else:
            (u,) = values
            domain = _DOMAINS.get(part)
            if domain is not None and u < domain[0]:
                return None
            out = _LIBM[part](u)
    except (ValueError, OverflowError):
        return None
    return out if math.isfinite(out) else None


def compile_evaluator(e: Expr) -> Callable[[float], float]:
    """:func:`evaluator` of ``e`` on a tape of its own: a function of x
    that computes each distinct subexpression of ``e`` once per call, with
    no nesting limit, as :func:`evaluate` states."""
    t = Tape()
    return evaluator(t, t.add(e))


def evaluator(t: Tape, slot: int) -> Callable[[float], float]:
    """The node at ``slot`` of ``t`` as a function of x: its value, as
    :func:`evaluate` states it, or DomainError.

    The steps are listed once: the operations of the cone of ``slot``, the
    slots it reads, in tape order, so each distinct subexpression is
    computed once and no other node of ``t`` is.  Each call runs them over
    one list of values by slot that already holds the constants (the tape
    interpretation of A. Griewank and A. Walther, *Evaluating Derivatives*,
    SIAM 2008), so no code is generated and no depth of nesting limits it.
    It raises at the first step whose rule fails, in tape order: children
    before their parent, left before right.
    """
    cone = [False] * slot + [True]
    for i in range(slot, -1, -1):
        if cone[i]:
            for j in t.args[i]:
                cone[j] = True
    start = [0.0] * (slot + 1)  # per slot: a constant's value, set once; each call sets the rest
    variable = None  # the slot of x, where the cone holds it
    steps = []  # (slot, operation, first child's slot, second child's slot or None)
    for i, (node, args) in enumerate(zip(t.nodes[: slot + 1], t.args)):
        if not cone[i]:
            continue
        if isinstance(node, Constant):
            start[i] = node.value
        elif isinstance(node, Variable):
            variable = i
        else:
            steps.append((i, _operation(node), args[0], args[1] if len(args) == 2 else None))

    def at(x: float) -> float:
        if not math.isfinite(x):
            raise ValueError("x must be finite")
        values = start.copy()
        if variable is not None:
            values[variable] = x
        try:
            for i, operation, a, b in steps:
                out = values[i] = operation(values[a]) if b is None else operation(values[a], values[b])
                if out.__class__ is _Undefined:
                    raise DomainError(x, out.kind)
        except (ValueError, OverflowError):
            raise DomainError(x, DomainErrorKind.NON_FINITE) from None
        out = values[slot]
        if not math.isfinite(out):
            raise DomainError(x, DomainErrorKind.NON_FINITE)
        return out

    return at


def _operation(node: Expr) -> Callable[..., float]:
    # what computes ``node`` from its children's values, returning the
    # _Undefined of its rule where that fails
    if isinstance(node, Neg):
        return operator.neg
    if isinstance(node, Binary):
        return _OPERATIONS[node.op]
    fn = _LIBM[node.fn]
    if node.fn not in _DOMAINS:
        return fn
    least, kind = _DOMAINS[node.fn]
    failed = _UNDEFINED[kind.name]
    return lambda u: failed if u < least else fn(u)


def _multiplied_out(node: Expr) -> int | None:
    # k where ``node`` is a power of a literal exponent that _pow multiplies
    # out to k >= 1, else None
    if not (isinstance(node, Binary) and node.op == "^" and isinstance(node.right, Constant)):
        return None
    k = integer_exponent(node.right.value)
    return k if k is not None and k >= 1 else None


def tabulate(t: Tape, outs: Sequence[int], xs: Sequence[float]) -> list[list[float | None]]:
    """The slots ``outs`` of ``t`` at every finite point of ``xs``, as one column each.

    Returns one list per slot of ``outs``, holding at each row its node's
    value, bit-identical to :func:`evaluate`, or None exactly where
    :func:`evaluate` on that node raises DomainError or gives a value that
    is not finite.

    The nodes are computed in tape order, each slot once, one operation over
    the whole column at a time, so the interpreter's cost per operation is
    spread over every row and no code is generated (the vectorised
    interpretation of P. Boncz, M. Zukowski and N. Nes, "MonetDB/X100:
    Hyper-pipelining query execution", CIDR 2005).  A failed rule of ``/``,
    ``^``, ln or sqrt gives NaN, which flows on to every result it feeds,
    so an undefined point costs no more than a defined one.  A column whose
    function of math raises (sin of an infinity, exp overflowing) is redone
    row by row, with NaN at each row where it raises.  Each column is dropped
    after its last reader, so memory follows the tape's width, not its
    length, and no depth of nesting limits the pass.
    """
    top = max(outs)
    # per slot, the last slot that reads it, itself where none does; the
    # outputs' columns are never dropped
    last = list(range(top + 1))
    for i, slots in enumerate(t.args[: top + 1]):
        for j in slots:
            last[j] = i
    for o in outs:
        last[o] = top + 1
    columns: list[list[float] | None] = []  # per slot
    for i, (node, slots) in enumerate(zip(t.nodes[: top + 1], t.args)):
        columns.append(_column(node, [columns[j] for j in slots], xs))
        for j in (*slots, i):
            if last[j] == i:
                columns[j] = None
    isfinite = math.isfinite
    return [[v if isfinite(v) else None for v in columns[o]] for o in outs]


def _column(node: Expr, args: list[list[float]], xs: Sequence[float]) -> list[float]:
    # ``node``'s value at each row, from its children's columns ``args``
    if not args:
        return list(xs) if isinstance(node, Variable) else [node.value] * len(xs)
    if isinstance(node, Call) and node.fn in _DOMAINS:
        # tested inline, which is faster here than _operation's closure
        fn, least = _LIBM[node.fn], _DOMAINS[node.fn][0]
        return [math.nan if u < least else fn(u) for u in args[0]]
    k = _multiplied_out(node)
    if k is not None:
        base = out = args[0]
        for _ in range(k - 1):
            out = list(map(operator.mul, out, base))
        isfinite = math.isfinite
        return [v if isfinite(v) else math.nan for v in out]
    fn = _operation(node)
    try:
        return list(map(fn, *args))
    except (ValueError, OverflowError):
        pass
    out = []
    for values in zip(*args):
        try:
            out.append(fn(*values))
        except (ValueError, OverflowError):
            out.append(math.nan)
    return out


class Tape:
    """The distinct subexpressions of some roots, children before their parent.

    ``nodes[i]`` is a node and ``args[i]`` holds its children's slots, each
    below ``i``.  ``add(root)`` puts ``root`` and every node below it on the
    tape, children left to right, and returns the slot of ``root``.  A node
    is keyed by its operator, function name or constant ``repr`` (which
    keeps ``0.0`` and ``-0.0`` apart) and its children's slots, so equal
    expressions take one slot, held by the first node met.  ``add`` keys
    each node object once, from an explicit stack, so no depth of nesting
    limits it; the tape's id map holds every node object it keyed, copies
    too, so no id in it can pass to a new node.  ``put(key)`` keys one node
    over slots already on the tape, and ``add`` keys through it, so one
    method decides which nodes are equal.
    """

    def __init__(self):
        self.nodes: list[Expr] = []
        self.args: list[tuple[int, ...]] = []
        self._keys: dict[tuple, int] = {}  # (part, *child slots) -> slot
        self._slots: dict[int, tuple[int, Expr]] = {}  # id(node) -> (slot, node)

    def add(self, root: Expr) -> int:
        # a node waits on the stack until each of its children has a slot:
        # it pushes them, right then left, and is keyed when it is back on
        # top; a node met again pops at once
        slots = self._slots
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in slots:
                stack.pop()
                continue
            if isinstance(node, Binary):
                left, right = slots.get(id(node.left)), slots.get(id(node.right))
                if left is None or right is None:
                    stack += (node.right, node.left)
                    continue
                key = (node.op, left[0], right[0])
            elif isinstance(node, (Call, Neg)):
                part, child = (node.fn, node.argument) if isinstance(node, Call) else ("-", node.child)
                below = slots.get(id(child))
                if below is None:
                    stack.append(child)
                    continue
                key = (part, below[0])
            else:
                key = ("x" if isinstance(node, Variable) else repr(node.value),)
            slots[id(node)] = (self.put(key, node), node)
            stack.pop()
        return slots[id(root)][0]

    def put(self, key: tuple, node: Expr | None = None) -> int:
        """The slot of the node keyed ``key``: its operator, function name,
        ``"-"`` for a negation, ``"x"`` or its constant's ``repr``, then its
        children's slots.  Where no node on the tape has that key, ``node``
        takes a new slot, or, where ``node`` is None, a node built from
        ``key`` over the nodes at those slots: so a pass that builds nodes
        slot by slot keys each one as it builds it, and builds only the
        nodes that are new."""
        slot = self._keys.get(key)
        if slot is None:
            if node is None:
                part, nodes = key[0], self.nodes
                if len(key) == 3:
                    node = Binary(part, nodes[key[1]], nodes[key[2]])
                elif len(key) == 2:
                    node = Neg(nodes[key[1]]) if part == "-" else Call(part, nodes[key[1]])
                else:
                    node = Variable() if part == "x" else Constant(float(part))
            slot = self._keys[key] = len(self.nodes)
            self.nodes.append(node)
            self.args.append(key[1:])
        return slot


# --- interval bounds ----------------------------------------------------------
#
# Interval arithmetic in the sense of R. E. Moore, *Interval Analysis* (1966),
# and W. Tucker, *Validated Numerics* (2011), made to enclose the floats the
# evaluators compute rather than the real values.  + - * / abs sqrt are
# correctly rounded and monotone in each argument, so the results at the
# endpoints, rounded to nearest as the evaluators round them, already
# bound every result in between.  libm results (exp, ln, sin, cos, tan) are
# only accurate to an ulp or so and need not be monotone; their bounds are
# widened outward by _LIBM_STEPS representable numbers.

_LIBM_STEPS = 4

Bounds = tuple[float, float]


def enclose(t: Tape, outs: Sequence[int], a: float, b: float) -> list[Bounds] | None:
    """Bounds ``(lo, hi)`` on the computed value of each slot of ``outs`` for x in [a, b].

    For every float x with a <= x <= b, the evaluators that
    :func:`evaluator` builds for these slots raise nothing, and they and
    :func:`tabulate` give, for each slot, a value within its bounds.
    Returns None when that cannot be shown for some
    node: a bound that is not finite, a divisor or a negative power's base
    that may be zero, a ln or sqrt argument that may leave its domain, a
    power whose exponent is not one constant, and a tan argument that may
    hold a pole.
    The nodes of ``t`` up to ``max(outs)`` are bounded in tape order, each
    once, and the pass stops at the first node it cannot bound.

    Raises DomainError, at ``a`` and of the failed rule's kind, where it
    reaches, before any node it cannot bound, a node whose argument's
    bounds lie wholly outside that node's domain: a ln or sqrt argument, or
    the base of a power by a constant non-integer exponent.  Both
    evaluators evaluate every node, so each node above it is undefined at
    every x in [a, b].
    """
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValueError("need finite a <= b")
    bounds: list[Bounds] = []  # per slot
    for node, slots in zip(t.nodes[: max(outs) + 1], t.args):
        if isinstance(node, Constant):
            box = (node.value, node.value)
        elif isinstance(node, Variable):
            box = (a, b)
        elif isinstance(node, Neg):
            lo, hi = bounds[slots[0]]
            box = (-hi, -lo)
        elif isinstance(node, Binary):
            box = _BINARY_BOUNDS[node.op](bounds[slots[0]], bounds[slots[1]])
        else:
            box = _CALL_BOUNDS[node.fn](*bounds[slots[0]])
        if box is None:
            return None
        if box.__class__ is _Undefined:
            raise DomainError(a, box.kind)
        if not (math.isfinite(box[0]) and math.isfinite(box[1])):
            return None
        bounds.append(box)
    return [bounds[i] for i in outs]


def _widen(lo: float, hi: float) -> Bounds:
    for _ in range(_LIBM_STEPS):
        lo = math.nextafter(lo, -math.inf)
        hi = math.nextafter(hi, math.inf)
    return lo, hi


def _corners(values: tuple[float, ...]) -> Bounds:
    return min(values), max(values)


def _div_bounds(num: Bounds, den: Bounds) -> Bounds | None:
    if den[0] <= 0.0 <= den[1]:
        return None
    return _corners(tuple(n / d for n in num for d in den))


def _pow_bounds(base: Bounds, exponent: Bounds) -> Bounds | _Undefined | None:
    e, e_hi = exponent
    if e != e_hi:
        return None
    lo, hi = base
    n = integer_exponent(e)
    if n is not None:
        k = abs(n)
        if k % 2:
            out = (_repeat(lo, k), _repeat(hi, k))
        else:
            near = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
            out = (_repeat(near, k), _repeat(max(-lo, hi), k))
        if n >= 0:
            return out
        return _div_bounds((1.0, 1.0), out)
    if lo <= 0.0:
        # every base fails _pow's rule where the upper bound does
        try:
            top = _pow(hi, e)
        except OverflowError:
            return None
        return top if top.__class__ is _Undefined else None
    log_lo, log_hi = _widen(math.log(lo), math.log(hi))
    return _exp_bounds(*_corners((e * log_lo, e * log_hi)))


def _exp_bounds(lo: float, hi: float) -> Bounds | None:
    try:
        top = math.exp(hi)
    except OverflowError:
        return None
    low, top = _widen(math.exp(lo), top)
    return max(low, 0.0), top


def _meets(lo: float, hi: float, point: float, period: float) -> bool:
    """Whether [lo, hi] may hold ``point + k*period`` for some integer k.

    The slack, a billionth of a period plus the rounding of far-out
    arguments, makes the answer True whenever in doubt.
    """
    k_lo = (lo - point) / period
    k_hi = (hi - point) / period
    slack = 1e-9 * (1.0 + max(abs(k_lo), abs(k_hi)))
    return math.floor(k_hi + slack) >= math.ceil(k_lo - slack)


def _wave_bounds(fn: Callable[[float], float], peak: float, lo: float, hi: float) -> Bounds:
    # sin or cos: maximum 1 at peak + 2k*pi, minimum -1 half a period on,
    # monotone in between
    low, top = _widen(*sorted((fn(lo), fn(hi))))
    if _meets(lo, hi, peak, 2.0 * math.pi):
        top = 1.0
    if _meets(lo, hi, peak + math.pi, 2.0 * math.pi):
        low = -1.0
    return max(low, -1.0), min(top, 1.0)


def _tan_bounds(lo: float, hi: float) -> Bounds | None:
    if _meets(lo, hi, 0.5 * math.pi, math.pi):
        return None
    return _widen(math.tan(lo), math.tan(hi))


def _domain_bounds(fn: str, lo: float, hi: float) -> Bounds | _Undefined | None:
    # ln or sqrt: its rule's failure where every argument, up to ``hi``, lies
    # below the least it accepts; sqrt is correctly rounded, ln is widened
    least, kind = _DOMAINS[fn]
    if lo < least:
        return _UNDEFINED[kind.name] if hi < least else None
    box = _LIBM[fn](lo), _LIBM[fn](hi)
    return _widen(*box) if fn == "ln" else box


def _abs_bounds(lo: float, hi: float) -> Bounds:
    if lo >= 0.0:
        return lo, hi
    if hi <= 0.0:
        return -hi, -lo
    return 0.0, max(-lo, hi)


_BINARY_BOUNDS: dict[str, Callable[[Bounds, Bounds], Bounds | _Undefined | None]] = {
    "+": lambda l, r: (l[0] + r[0], l[1] + r[1]),
    "-": lambda l, r: (l[0] - r[1], l[1] - r[0]),
    "*": lambda l, r: _corners((l[0] * r[0], l[0] * r[1], l[1] * r[0], l[1] * r[1])),
    "/": _div_bounds,
    "^": _pow_bounds,
}

_CALL_BOUNDS: dict[str, Callable[[float, float], Bounds | _Undefined | None]] = {
    "sin": lambda lo, hi: _wave_bounds(math.sin, 0.5 * math.pi, lo, hi),
    "cos": lambda lo, hi: _wave_bounds(math.cos, 0.0, lo, hi),
    "tan": _tan_bounds,
    "exp": _exp_bounds,
    "ln": lambda lo, hi: _domain_bounds("ln", lo, hi),
    "sqrt": lambda lo, hi: _domain_bounds("sqrt", lo, hi),
    "abs": _abs_bounds,
}
