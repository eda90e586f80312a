"""Expression language for real-valued functions of one variable.

Lexer, recursive-descent parser, canonical formatter, and evaluator for a
small grammar: the five binary operators ``+ - * / ^``, unary minus, the
functions sin, cos, tan, exp, ln, sqrt, abs, the variable ``x``, and the
named constants ``pi`` and ``e`` (folded to numbers at parse time).  The
compiler, the column pass :func:`tabulate` and the interval bounds read a
:class:`Tape`, which holds each distinct subexpression once, so an
expression on it is walked once.

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
    "NestingTooDeep",
    "DomainError",
    "DomainErrorKind",
    "FUNCTIONS",
    "BINARY_OPS",
    "MAX_NESTING",
    "tokenize",
    "parse",
    "format_expr",
    "evaluate",
    "compile_evaluator",
    "tabulate",
    "integer_exponent",
    "Tape",
    "enclose",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")
BINARY_OPS = ("+", "-", "*", "/", "^")

_NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}

# deepest nesting the parser accepts: parenthesized groups, function
# arguments, unary-minus operands and exponents each open one level.  The
# parser and the tree walkers downstream recurse once or more per level, so
# this keeps every command well inside Python's default recursion limit.
MAX_NESTING = 150


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


class NestingTooDeep(ParseError):
    def __init__(self, position: int):
        SourceError.__init__(self, position, f"nesting too deep (more than {MAX_NESTING} levels)")
        self.expected = f"at most {MAX_NESTING} nested levels"


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
    malformed input, and NestingTooDeep past MAX_NESTING levels.
    """
    return _Parser(source).parse()


# how tightly each left-associative operator binds; _unary parses ``-`` and ``^``
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2}
_TIGHTEST = max(_BINDING.values())


class _Parser:
    def __init__(self, source: str):
        # the end marker gives every lookahead a text ("" at the end) and a position
        self._tokens = tokenize(source)
        self._tokens.append(("", len(source)))
        self._pos = 0
        self._depth = 0

    def parse(self) -> Expr:
        expr = self._expression()
        if self._peek():
            raise ParseError(self._position(), "end of input")
        return expr

    def _peek(self) -> str:
        return self._tokens[self._pos][0]

    def _position(self) -> int:
        return self._tokens[self._pos][1]

    def _advance(self) -> int:
        # consume the next token and return its position
        self._pos += 1
        return self._tokens[self._pos - 1][1]

    def _nested(self, opener: int, parse: Callable[[], Expr]) -> Expr:
        # ``parse`` one level deeper than the token at ``opener``
        if self._depth == MAX_NESTING:
            raise NestingTooDeep(opener)
        self._depth += 1
        expr = parse()
        self._depth -= 1
        return expr

    def _expect(self, text: str, what: str) -> int:
        if self._peek() != text:
            raise ParseError(self._position(), what)
        return self._advance()

    def _expression(self, binding: int = 1) -> Expr:
        # a right operand holds only tighter operators: each level is left
        # associative.  Past the tightest level it is a _unary, called directly
        # to spend one frame less per nesting level.
        expr = self._unary()
        while _BINDING.get(op := self._peek(), 0) >= binding:
            self._advance()
            tighter = _BINDING[op] + 1
            right = self._expression(tighter) if tighter <= _TIGHTEST else self._unary()
            expr = Binary(op, expr, right)
        return expr

    def _unary(self) -> Expr:
        # ``-`` and ``^`` take a _unary operand, so ``^`` is right associative,
        # binds tighter than ``-``, and its exponent may carry a unary minus
        if self._peek() == "-":
            return Neg(self._nested(self._advance(), self._unary))
        base = self._primary()
        if self._peek() == "^":
            return Binary("^", base, self._nested(self._advance(), self._unary))
        return base

    def _primary(self) -> Expr:
        text = self._peek()
        if not text:
            raise ParseError(self._position(), "an expression")
        if text[0].isdigit():
            self._advance()
            return Constant(float(text))
        if text[0].isalpha():
            position = self._advance()
            if text == "x":
                return Variable()
            if text in _NAMED_CONSTANTS:
                return Constant(_NAMED_CONSTANTS[text])
            if text in FUNCTIONS:
                arg = self._nested(self._expect("(", f"'(' after {text!r}"), self._expression)
                self._expect(")", "')'")
                return Call(text, arg)
            raise UnknownIdentifier(position, text)
        if text == "(":
            expr = self._nested(self._advance(), self._expression)
            self._expect(")", "')'")
            return expr
        raise ParseError(self._position(), "a number, a name, or '('")


def format_expr(e: Expr) -> str:
    """Render ``e`` as fully parenthesized text.

    For every tree the parser can produce, ``parse(format_expr(e))`` is
    structurally identical to ``e``.
    """
    if isinstance(e, Constant):
        return _format_number(e.value)
    if isinstance(e, Variable):
        return "x"
    if isinstance(e, Neg):
        return f"(-{format_expr(e.child)})"
    if isinstance(e, Binary):
        return f"({format_expr(e.left)} {e.op} {format_expr(e.right)})"
    if isinstance(e, Call):
        return f"{e.fn}({format_expr(e.argument)})"
    raise TypeError(f"not an expression: {e!r}")


def _format_number(v: float) -> str:
    # negative constants cannot appear as literals; wrap them in unary minus
    if v < 0.0 or (v == 0.0 and math.copysign(1.0, v) < 0.0):
        return f"(-{_format_number(-v)})"
    if v.is_integer() and v < 1e16:
        return str(int(v))
    return repr(v)


# --- evaluation -------------------------------------------------------------
#
# The tree-walking evaluator is the reference: _eval, with _div and _pow for
# the two risky operators and _DOMAINS for ln and sqrt.  _div and _pow return
# an _Undefined NaN where they fail, and the compiled code and the column
# pass call them as well, so each rule of division and of powers is stated
# once, there.  The one exception is a literal exponent that _pow multiplies
# out to k >= 1: it is written out as u * ... * u, which is _repeat's
# product (that starts from 1.0, and 1.0 * u is u), with one finiteness
# test after it, which fails where _pow's tests do, since a non-finite base
# gives a non-finite product.  All three call the same functions of math.
# The evaluators map a ValueError or OverflowError raised anywhere inside
# them to NON_FINITE, and the column pass aborts the row, as only those
# functions (math.exp in _pow included) raise either.

# what ``fn(u)`` calls, in both evaluators
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
    """The NaN that _div and _pow return where they fail, with the kind of
    the failure.  Arithmetic on it gives a plain NaN, and so does every
    operation after that: a failure flows on to every result it feeds."""

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


def evaluate(e: Expr, x: float) -> float:
    """Evaluate ``e`` at the point ``x``.

    ``^`` with an integral exponent of magnitude <= 64 uses repeated
    multiplication and allows any base; other exponents are defined as
    exp(exponent * ln(base)) and require a positive base.  Raises
    DomainError for division by zero, ln/sqrt outside their real domains,
    non-integer powers of non-positive bases, and non-finite results.
    """
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    try:
        out = _eval(e, x)
    except (ValueError, OverflowError):
        raise DomainError(x, DomainErrorKind.NON_FINITE) from None
    if not math.isfinite(out):
        raise DomainError(x, DomainErrorKind.NON_FINITE)
    return out


def _eval(e: Expr, x: float) -> float:
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Variable):
        return x
    if isinstance(e, Neg):
        return -_eval(e.child, x)
    if isinstance(e, Binary):
        left = _eval(e.left, x)
        right = _eval(e.right, x)
        op = e.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        out = _div(left, right) if op == "/" else _pow(left, right)
        if out.__class__ is _Undefined:
            raise DomainError(x, out.kind)
        return out
    if isinstance(e, Call):
        a = _eval(e.argument, x)
        domain = _DOMAINS.get(e.fn)
        if domain is not None and a < domain[0]:
            raise DomainError(x, domain[1])
        return _LIBM[e.fn](a)
    raise TypeError(f"not an expression: {e!r}")


def compile_evaluator(e: Expr) -> Callable[[float], float]:
    """Compile ``e`` into a fast single-call evaluator.

    Semantically identical to :func:`evaluate` (bit-identical values, same
    DomainError behaviour); it exists because the verification pipeline
    evaluates expressions at thousands of sample points.
    """
    tape = Tape()
    body, out = _lower(tape, tape.add(e))
    body += [f"if not -inf < {out} < inf: raise DomainError(x, NON_FINITE)", f"return {out}"]
    source = "\n".join(
        [
            "def _compiled(x):",
            "    if not isfinite(x):",
            "        raise ValueError('x must be finite')",
            "    try:",
            *[f"        {line}" for line in body],
            "    except (ValueError, OverflowError):",
            "        raise DomainError(x, NON_FINITE) from None",
        ]
    )
    namespace: dict[str, object] = {
        "isfinite": math.isfinite,
        "inf": math.inf,
        "_div": _div,
        "_pow": _pow,
        "_Undefined": _Undefined,
        "DomainError": DomainError,
        "ValueError": ValueError,
        "OverflowError": OverflowError,
        "__builtins__": {},
        **DomainErrorKind.__members__,
        **_LIBM,
    }
    exec(compile(source, "<compiled expression>", "exec"), namespace)
    return namespace["_compiled"]  # type: ignore[return-value]


def _lower(t: Tape, root: int) -> tuple[list[str], str]:
    """SSA statements computing ``t`` up to the slot ``root``, and the operand of ``root``.

    Nodes are lowered in tape order, so no depth of nesting limits the
    lowering.  Each slot of an operation becomes the statements of one
    temporary ``tN``, so equal subexpressions, which share a slot, are
    computed once.  Constants are inlined as literals (``repr`` keeps the
    sign of zero apart) and the variable is ``x``.  Where an operation
    fails, its statements raise its DomainError.
    """
    body: list[str] = []
    operands: list[str] = []  # per slot
    for i, (node, slots) in enumerate(zip(t.nodes[: root + 1], t.args)):
        if not slots:
            operands.append("x" if isinstance(node, Variable) else f"({node.value!r})")
            continue
        args = [operands[j] for j in slots]
        if isinstance(node, Neg):
            operation = f"-{args[0]}"
        elif isinstance(node, Call):
            operation = f"{node.fn}({args[0]})"
        elif node.op in "+-*":
            operation = f"{args[0]} {node.op} {args[1]}"
        else:
            operation = f"{'_div' if node.op == '/' else '_pow'}({args[0]}, {args[1]})"
        body += _statements(node, f"t{i}", operation, args[0])
        operands.append(f"t{i}")
    return body, operands[root]


def _statements(node: Expr, name: str, operation: str, first: str) -> list[str]:
    # the statements of _lower that set ``name`` to ``node``'s value;
    # ``first`` is the operand text of its first child
    domain = _DOMAINS.get(node.fn) if isinstance(node, Call) else None
    if domain is not None:
        least, kind = domain
        return [f"if {first} < {least!r}: raise DomainError(x, {kind.name})", f"{name} = {operation}"]
    k = _multiplied_out(node)
    if k is not None:
        return [f"{name} = {' * '.join([first] * k)}", f"if not -inf < {name} < inf: raise DomainError(x, NON_FINITE)"]
    if isinstance(node, Binary) and node.op in "/^":
        return [f"{name} = {operation}", f"if {name}.__class__ is _Undefined: raise DomainError(x, {name}.kind)"]
    return [f"{name} = {operation}"]


def _multiplied_out(node: Expr) -> int | None:
    # k where ``node`` is a power of a literal exponent that _pow multiplies
    # out to k >= 1, else None
    if not (isinstance(node, Binary) and node.op == "^" and isinstance(node.right, Constant)):
        return None
    k = integer_exponent(node.right.value)
    return k if k is not None and k >= 1 else None


def tabulate(t: Tape, outs: Sequence[int], xs: Sequence[float]) -> tuple[list[list[float | None]], list[int]]:
    """The slots ``outs`` of ``t`` at every finite point of ``xs``, as one column each.

    Returns one list per slot of ``outs``, holding at each row its node's
    value, bit-identical to :func:`evaluate`, or None exactly where
    :func:`evaluate` on that node raises DomainError or gives a value that
    is not finite; and, in order, the aborted rows: those where a function
    of math raised (sin of an infinity, exp overflowing) at any node
    computed, which are None in every output.

    The nodes are computed in tape order, each slot once, one operation over
    the whole column at a time, so the interpreter's cost per operation is
    spread over every row and no code is generated (the vectorised
    interpretation of P. Boncz, M. Zukowski and N. Nes, "MonetDB/X100:
    Hyper-pipelining query execution", CIDR 2005).  A failed rule of ``/``,
    ``^``, ln or sqrt gives NaN, which flows on to every result it feeds,
    so an undefined point costs no more than a defined one.  A column whose
    function of math raises is redone row by row.  Each column is dropped
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
    aborted: set[int] = set()
    for i, (node, slots) in enumerate(zip(t.nodes[: top + 1], t.args)):
        columns.append(_column(node, [columns[j] for j in slots], xs, aborted))
        for j in (*slots, i):
            if last[j] == i:
                columns[j] = None
    rows = sorted(aborted)
    results = []
    isfinite = math.isfinite
    for o in outs:
        column: list[float | None] = [v if isfinite(v) else None for v in columns[o]]
        for row in rows:
            column[row] = None
        results.append(column)
    return results, rows


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _column(node: Expr, args: list[list[float]], xs: Sequence[float], aborted: set[int]) -> list[float]:
    # ``node``'s value at each row, from its children's columns ``args``;
    # adds to ``aborted`` each row where a function of math raises
    if not args:
        return list(xs) if isinstance(node, Variable) else [node.value] * len(xs)
    if isinstance(node, Neg):
        return list(map(operator.neg, args[0]))
    if isinstance(node, Call):
        fn = _LIBM[node.fn]
        domain = _DOMAINS.get(node.fn)
        if domain is not None:
            least = domain[0]
            return [math.nan if u < least else fn(u) for u in args[0]]
    elif node.op in _ARITHMETIC:
        return list(map(_ARITHMETIC[node.op], *args))
    else:
        k = _multiplied_out(node)
        if k is not None:
            base = out = args[0]
            for _ in range(k - 1):
                out = list(map(operator.mul, out, base))
            isfinite = math.isfinite
            return [v if isfinite(v) else math.nan for v in out]
        fn = _div if node.op == "/" else _pow
    try:
        return list(map(fn, *args))
    except (ValueError, OverflowError):
        pass
    out = []
    for row, values in enumerate(zip(*args)):
        try:
            out.append(fn(*values))
        except (ValueError, OverflowError):
            aborted.add(row)
            out.append(math.nan)
    return out


class Tape:
    """The distinct subexpressions of some roots, children before their parent.

    ``nodes[i]`` is a node and ``args[i]`` holds its children's slots, each
    below ``i``.  ``add(root)`` puts ``root`` and every node below it on the
    tape, children left to right, and returns the slot of ``root``.  A node
    is keyed by its operator, function name or constant ``repr`` (which
    keeps ``0.0`` and ``-0.0`` apart) and its children's slots, so equal
    expressions take one slot, held by the first node met.  An explicit
    stack walks each node object once, so no depth of nesting limits it;
    the tape's id map holds every node object it walked, copies too, so
    no id in it can pass to a new node.
    """

    def __init__(self):
        self.nodes: list[Expr] = []
        self.args: list[tuple[int, ...]] = []
        self._keys: dict[tuple, int] = {}  # (part, *child slots) -> slot
        self._slots: dict[int, tuple[int, Expr]] = {}  # id(node) -> (slot, node)

    def add(self, root: Expr) -> int:
        # (node, None, 0) is a node to walk, and (node, part, arity) one
        # whose children are walked first: it comes back above them and takes
        # their slots off ``done``, where each node walked leaves its own
        stack: list[tuple[Expr, str | None, int]] = [(root, None, 0)]
        done: list[int] = []
        while stack:
            node, part, arity = stack.pop()
            if part is None:
                walked = self._slots.get(id(node))
                if walked is not None:
                    done.append(walked[0])
                    continue
                part, children = _parts(node)
                arity = len(children)
                if arity:
                    stack.append((node, part, arity))
                    stack.extend([(c, None, 0) for c in reversed(children)])
                    continue
            key = (part, *done[len(done) - arity :])
            del done[len(done) - arity :]
            slot = self._keys.get(key)
            if slot is None:
                slot = self._keys[key] = len(self.nodes)
                self.nodes.append(node)
                self.args.append(key[1:])
            self._slots[id(node)] = (slot, node)
            done.append(slot)
        return done[0]


def _parts(e: Expr) -> tuple[str, tuple[Expr, ...]]:
    # ``e``'s key part, what it computes from its children, and its
    # children; a node of no other class is a Constant
    if isinstance(e, Binary):
        return e.op, (e.left, e.right)
    if isinstance(e, Variable):
        return "x", ()
    if isinstance(e, Call):
        return e.fn, (e.argument,)
    if isinstance(e, Neg):
        return "-", (e.child,)
    return repr(e.value), ()


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
    :func:`compile_evaluator` builds for these slots raise nothing,
    :func:`tabulate` aborts no row, and each gives, for each slot, a value
    within its bounds.  Returns None when that cannot be shown for some
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
