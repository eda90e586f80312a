"""Expression language for real-valued functions of one variable.

Lexer, operator-precedence parser, canonical formatter, and evaluators for
a small grammar: the five binary operators ``+ - * / ^``, unary minus, the
functions sin, cos, tan, exp, ln, sqrt, abs, the variable ``x``, and the
named constants ``pi`` and ``e`` (folded to numbers at parse time).

A :class:`Tape` holds each distinct subexpression once, as a key over its
children's slots, and an :class:`Expr` is a handle on one slot of a tape:
the one expression IR.  :func:`parse` keys a text onto a new tape, and
:func:`format_expr`, the point evaluator :func:`evaluator`, the column pass
:func:`tabulate` and the interval bounds :func:`enclose` read those keys,
the last three by the :func:`steps` of a cone, each listed once, with one
operator table.  No function here calls itself: the parser, the formatter
and :func:`steps` keep explicit stacks, so no depth of nesting and no
length of a sum limits them.

Precedence, loosest to tightest: additive, multiplicative, unary minus,
``^`` (right associative); function application binds tightest.  There is
no implicit multiplication: ``4x`` is a parse error, write ``4*x``.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from enum import Enum
from typing import Callable, Sequence

__all__ = [
    "Record",
    "Expr",
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
    "steps",
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
    """An expression: a handle on the node at ``slot`` of ``tape``.

    Handles on one tape are equal exactly when their expressions are, as
    equal expressions take one slot; across tapes, compare their
    :func:`format_expr` texts.  A handle prints as its text, and ``copy``
    and ``pickle`` rebuild it by parsing that text onto a tape of its own.
    """

    __slots__ = ("tape", "slot")

    def __init__(self, tape: Tape, slot: int):
        object.__setattr__(self, "tape", tape)
        object.__setattr__(self, "slot", slot)

    def __repr__(self) -> str:
        return f"Expr({format_expr(self)!r})"

    def __reduce__(self):
        return parse, (format_expr(self),)


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
    """Parse ``source`` onto a new tape and return the handle on its root.

    ``pi`` and ``e`` become constants; ``x`` is the only variable.  A
    unary minus right before a constant (a number, ``pi`` or ``e``) that
    no ``^`` follows is keyed with it as one negative constant: ``-2*x``
    and ``x^-2`` read the constant ``-2.0``, as :func:`format_expr` writes
    one, while ``-2^2`` stays ``-(2^2)`` and ``-(2)`` a negation.  Raises
    ParseError (or UnknownIdentifier) with the source position on
    malformed input.

    One loop reads the tokens left to right with a stack of operands and a
    stack of operators that wait for their right operand (operator
    precedence parsing, after R. W. Floyd, "Syntactic analysis and operator
    precedence", *J. ACM* 10, 1963), so no depth of nesting limits it.  An
    operator takes its operands once the next operator binds no tighter,
    or, for the right associative ``^``, less tightly; ``(`` and ``fn(``
    bind 0 and wait for their ``)``.

    The operands are slots of the new tape, and each node is keyed there
    with :meth:`Tape.put` as it is reduced (hash-consing, after J.-C.
    Filliâtre and S. Conchon, "Type-safe modular hash-consing", ML Workshop
    2006), so no node object is built, equal subexpressions take one slot,
    and children come before their parent, left before right.
    """
    t = Tape()
    # the end marker gives every token a text ("" at the end) and a position
    tokens = tokenize(source)
    tokens.append(("", len(source)))
    operands: list[int] = []  # slots of t
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
                key = _operand(text, position)
                if key[0] != "x" and waiting and waiting[-1][0] == _NEGATION and tokens[i][0] != "^":
                    # a unary minus right before a constant that no ^ follows:
                    # the negative constant, as format_expr writes it
                    waiting.pop()
                    key = (repr(-float(key[0])),)
                operands.append(t.put(key))
                operand = False
            continue
        binding = _BINDING.get(text, 0)
        least = binding + 1 if text == "^" else binding or 1
        while waiting and waiting[-1][0] >= least:
            tightness, op = waiting.pop()
            right = operands.pop()
            if tightness == _NEGATION:
                operands.append(t.put(("-", right)))
            else:
                operands[-1] = t.put((op, operands[-1], right))
        if binding:
            waiting.append((binding, text))
            operand = True
        elif text == ")" and waiting:
            opener = waiting.pop()[1]
            if opener != "(":
                operands[-1] = t.put((opener, operands[-1]))
        elif text or waiting:
            # only openers wait now: the innermost one needs its ")"
            raise ParseError(position, "')'" if waiting else "end of input")
        else:
            return Expr(t, operands[0])


# how tightly each binary operator binds; a unary minus binds _NEGATION
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEGATION = 3


def _operand(text: str, position: int) -> tuple[str]:
    # the key of the leaf that the token ``text`` at ``position`` is: every
    # operand but a "(" or a function call
    if not text:
        raise ParseError(position, "an expression")
    if text[0].isdigit():
        return (repr(float(text)),)
    if text == "x":
        return ("x",)
    if text in _NAMED_CONSTANTS:
        return (repr(_NAMED_CONSTANTS[text]),)
    if text[0].isalpha():
        raise UnknownIdentifier(position, text)
    raise ParseError(position, "a number, a name, or '('")


def format_expr(e: Expr) -> str:
    """Render ``e`` as fully parenthesized text.

    For every expression the parser can produce, ``parse(format_expr(e))``
    keys the same nodes in the same order.  Each slot writes the text
    before its first child and pushes what follows, last first, on one
    stack of text pieces and slots, so no depth of nesting limits it.
    """
    keys, constants = e.tape.keys, e.tape.constants
    pieces: list[str] = []
    stack: list[int | str] = [e.slot]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            pieces.append(item)
            continue
        key = keys[item]
        if len(key) == 3:
            pieces.append("(")
            stack += (")", key[2], f" {key[0]} ", key[1])
        elif key[0] == "-" and key[1] in constants and math.copysign(1.0, constants[key[1]]) > 0.0:
            # the negation of a constant c written (-c) would parse as the
            # constant -c: c goes in parentheses of its own
            pieces.append("(-(")
            stack += ("))", key[1])
        elif len(key) == 2:
            pieces.append("(-" if key[0] == "-" else f"{key[0]}(")
            stack += (")", key[1])
        else:
            pieces.append("x" if key[0] == "x" else _format_number(constants[item]))
    return "".join(pieces)


def _format_number(v: float) -> str:
    # a negative constant (-0.0 included) is written (-c), which parse keys
    # back as that constant
    negative = v < 0.0 or (v == 0.0 and math.copysign(1.0, v) < 0.0)
    u = -v if negative else v
    text = str(int(u)) if u.is_integer() and u < 1e16 else repr(u)
    return f"(-{text})" if negative else text


# --- evaluation -------------------------------------------------------------
#
# Three interpreters read a tape and generate no code: evaluator, one point
# at a time (evaluate is evaluator on a tape of its own), the column pass
# tabulate, and the interval bounds enclose.  Each is one loop, with its own
# arithmetic, over the steps that steps() lists once per tape: each slot of
# a cone with its rule, an entry of the one operator table _RULES, chosen
# as the list is built.  _div and _pow return an _Undefined NaN where / and ^
# fail, and the ln and sqrt entries state their domains, so each rule is
# stated once.  The one exception is the column form of a literal power
# that _pow multiplies out to k >= 1: u * ... * u, which is _repeat's
# product (that starts from 1.0, and 1.0 * u is u), with one finiteness
# test after it, which fails where _pow's tests do, since a non-finite base
# gives a non-finite product.  A ValueError or OverflowError, which only
# the functions of math raise (math.exp in _pow included), is NON_FINITE to
# the evaluator and a NaN at its row to the column pass.


class _Undefined(float):
    """The NaN that _div, _pow and the ln and sqrt rules return where
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


def _pow(exponent: float) -> Callable[[float], float]:
    # ``base ^ exponent`` as a function of the base, the exponent decided once
    finite, n = math.isfinite(exponent), integer_exponent(exponent)

    def power(base: float) -> float:
        if not (finite and math.isfinite(base)):
            return _UNDEFINED["NON_FINITE"]
        if n is None:
            if base <= 0.0:
                return _UNDEFINED["POWER_OF_NON_POSITIVE"]
            # math.exp may raise OverflowError: every caller maps it to NON_FINITE
            return math.exp(exponent * math.log(base))
        out = _repeat(base, abs(n))
        if n < 0:
            if out == 0.0:
                return _UNDEFINED["DIVISION_BY_ZERO"]
            out = 1.0 / out
        return out if math.isfinite(out) else _UNDEFINED["NON_FINITE"]

    return power


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
        out = _RULES[part].point(*values)
    except (ValueError, OverflowError):
        return None
    return out if math.isfinite(out) else None


def compile_evaluator(e: Expr) -> Callable[[float], float]:
    """:func:`evaluator` of ``e`` on its tape: a function of x that
    computes each distinct subexpression of ``e`` once per call, with no
    nesting limit, as :func:`evaluate` states."""
    return evaluator(e.tape, e.slot)


def steps(t: Tape, outs: Sequence[int]) -> list[tuple]:
    """One ``(slot, rule, reads)`` per slot of the cone of the slots
    ``outs`` of ``t``, in the left-to-right postorder of each output in
    turn, each slot at its first place (the tape interpretation of A.
    Griewank and A. Walther, *Evaluating Derivatives*, SIAM 2008).  Keys
    never change, so each list is made once and kept on ``t``.

    ``rule`` is the operator table entry of the slot's key and ``reads``
    the slots of the values it takes; a leaf reads nothing, and its rule is
    its constant's value, or None for x.  A power by a constant exponent
    reads its base only, with a rule of its own, the exponent decided here
    and listed as a leaf all the same.
    """
    if tuple(outs) in t._steps:
        return t._steps[tuple(outs)]
    keys, constants = t.keys, t.constants
    listed = list(t._steps.get(tuple(outs[:1]), ()))  # from the first output's list, where kept
    pending = [None] * (max(outs, default=-1) + 1)  # per slot met, its step
    for step in listed:
        pending[step[0]] = step
    for out in outs:
        # a node met first pushes ~slot, listed once the slots below it
        # are, then those slots, right then left; a leaf is listed at once
        stack = [out]
        while stack:
            i = stack.pop()
            if i < 0:
                listed.append(pending[~i])
                continue
            if pending[i] is not None:
                continue
            key = keys[i]
            if len(key) == 1:
                pending[i] = step = (i, constants.get(i), ())
                listed.append(step)
                continue
            part, reads = key[0], key[1:]
            if len(reads) == 1:
                rule = _RULES["neg" if part == "-" else part]
            elif part == "^" and reads[1] in constants:
                rule, reads = _power(constants[reads[1]]), reads[:1]
            else:
                rule = _RULES[part]
            pending[i] = (i, rule, reads)
            stack.append(~i)
            stack += key[:0:-1]
    t._steps[tuple(outs)] = listed
    return listed


def evaluator(t: Tape, slot: int) -> Callable[[float], float]:
    """The node at ``slot`` of ``t`` as a function of x: its value, as
    :func:`evaluate` states it, or DomainError.

    Its :func:`steps` are listed once, so each distinct subexpression is
    computed once and no node outside the cone of ``slot`` is.  Each call
    runs their float operations over one list of values by slot that
    already holds the constants, so no code is generated and no depth of
    nesting limits it.  It raises for the first step whose rule fails, in
    that order: children before their parent, left before right, as a walk
    of the tree would, whatever other roots put on ``t`` before it.
    """
    start = [0.0] * (slot + 1)  # per slot: a constant's value, set once; each call sets the rest
    variable = None  # the slot of x, where the cone holds it
    program = []  # (slot, float operation, first slot read, second slot read or None)
    for i, rule, reads in steps(t, [slot]):
        if reads:
            program.append((i, rule.point, reads[0], reads[1] if len(reads) == 2 else None))
        elif rule is None:
            variable = i
        else:
            start[i] = rule

    def at(x: float) -> float:
        if not math.isfinite(x):
            raise ValueError("x must be finite")
        values = start.copy()
        if variable is not None:
            values[variable] = x
        try:
            for i, operation, a, b in program:
                values[i] = operation(values[a]) if b is None else operation(values[a], values[b])
        except (ValueError, OverflowError):
            pass
        else:
            if math.isfinite(values[slot]):
                return values[slot]
        # a failed rule's NaN flows on to the result, and a step after it
        # may raise: the first step that failed, in order, names the error
        failed = next((values[i] for i, _, _, _ in program if values[i].__class__ is _Undefined), None)
        raise DomainError(x, DomainErrorKind.NON_FINITE if failed is None else failed.kind)

    return at


def tabulate(t: Tape, outs: Sequence[int], xs: Sequence[float]) -> list[list[float | None]]:
    """The slots ``outs`` of ``t`` at every finite point of ``xs``, as one column each.

    Returns one list per slot of ``outs``, holding at each row its node's
    value, bit-identical to :func:`evaluate`, or None exactly where
    :func:`evaluate` on that node raises DomainError or gives a value that
    is not finite.

    The :func:`steps` of ``outs`` run in order, each by its column form, one
    operation over a whole column (the vectorised interpretation of P.
    Boncz, M. Zukowski and N. Nes, "MonetDB/X100: Hyper-pipelining query
    execution", CIDR 2005).  A failed rule of ``/``, ``^``, ln or sqrt
    gives NaN, which flows on to every result it feeds, so an undefined
    point costs no more than a defined one.  A function of math that raises
    (sin of an infinity, exp overflowing) has its column redone row by row,
    with NaN at each row where it raises.  Each column is dropped after its
    last reader, so memory follows the tape's width, not its length, and no
    depth of nesting limits the pass.
    """
    listed = steps(t, outs)
    # per slot read, the place in listed of its last reader; the outputs'
    # columns are never dropped
    last = {j: n for n, (_, _, reads) in enumerate(listed) for j in reads} | dict.fromkeys(outs, len(listed))
    columns: list[list[float] | None] = [None] * (max(outs, default=-1) + 1)  # per slot
    for n, (i, rule, reads) in enumerate(listed):
        if reads:
            columns[i] = rule.column(*[columns[j] for j in reads])
        elif i in last:  # a literal exponent that nothing else reads has none
            columns[i] = list(xs) if rule is None else [rule] * len(xs)
        for j in reads:
            if last[j] == n:
                columns[j] = None
    isfinite = math.isfinite
    return [[v if isfinite(v) else None for v in columns[o]] for o in outs]


class Tape:
    """The distinct subexpressions of some roots, children before their parent.

    ``keys[i]`` is the key of slot ``i``: its operator, function name,
    ``"-"`` for a negation, ``"x"`` or its constant's ``repr`` (which keeps
    ``0.0`` and ``-0.0`` apart), then its children's slots, each below
    ``i``; ``constants`` holds the value of each constant by slot.  Equal
    keys take one slot, so equal expressions do (hash-consing).  ``put(key)``
    keys one node over slots already on the tape, and every pass that
    builds an expression slot by slot (the parser, the fold and the
    derivative) keys it through ``put``; no key ever changes.
    ``Tape(source, slot)`` starts from a copy of the keys and constants of
    ``source`` up to ``slot``, at the same slots, and not its kept lists.
    :func:`steps` is the one walk of a cone, and the fold, the derivative
    and the hazard search run in its order.
    """

    def __init__(self, source: Tape | None = None, slot: int = -1):
        self.keys: list[tuple] = []
        self.constants: dict[int, float] = {}
        if source is not None:
            self.keys = source.keys[: slot + 1]
            self.constants = {i: v for i, v in source.constants.items() if i <= slot}
        self._keys: dict[tuple, int] = dict(zip(self.keys, range(len(self.keys))))  # key -> slot
        self._steps: dict[tuple[int, ...], list[tuple]] = {}  # tuple(outs) -> steps(self, outs)

    def put(self, key: tuple) -> int:
        """The slot of the node keyed ``key``, a new one where no slot has that key."""
        slot = self._keys.get(key)
        if slot is None:
            slot = self._keys[key] = len(self.keys)
            self.keys.append(key)
            if len(key) == 1 and key[0] != "x":
                self.constants[slot] = float(key[0])
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
    """Bounds ``(lo, hi)`` on the computed value of each slot ``outs`` of ``t`` for x in [a, b].

    It runs the :func:`steps` of ``outs``, listed once per tape, by their
    bounds rules.  For every float x with a <= x <= b, the evaluators
    that :func:`evaluator` builds for these slots raise nothing, and they
    and :func:`tabulate` give, for each slot, a value within its bounds.
    Returns None, at the first step it cannot bound, when that cannot be
    shown: a bound that is not finite, a divisor or a negative power's base
    that may be zero, a ln or sqrt argument that may leave its domain, a
    power whose exponent is not one constant, and a tan argument that may
    hold a pole.

    Raises DomainError, at ``a`` and of the failed rule's kind, where it
    reaches, before any step it cannot bound, one whose argument's bounds
    lie wholly outside its domain: a ln or sqrt argument, or the base of a
    power by a constant non-integer exponent: every output whose cone holds
    it is undefined at every x in [a, b].
    """
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValueError("need finite a <= b")
    bounds: list[Bounds | None] = [None] * (max(outs, default=-1) + 1)  # per slot
    isfinite = math.isfinite
    for i, rule, reads in steps(t, outs):
        if not reads:
            # x, or a constant, which is finite
            bounds[i] = (a, b) if rule is None else (rule, rule)
            continue
        box = rule.bounds(bounds[reads[0]], bounds[reads[1]]) if len(reads) == 2 else rule.bounds(*bounds[reads[0]])
        if box.__class__ is _Undefined:
            raise DomainError(a, box.kind)
        if box is None or not (isfinite(box[0]) and isfinite(box[1])):
            return None
        bounds[i] = box
    return [bounds[o] for o in outs]


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


def _abs_bounds(lo: float, hi: float) -> Bounds:
    if lo >= 0.0:
        return lo, hi
    if hi <= 0.0:
        return -hi, -lo
    return 0.0, max(-lo, hi)


# --- the operator table -------------------------------------------------------


class _Rule(Record):
    """One operator or function in each interpreter, from its operands':
    ``point`` from their values, ``column`` from their columns (``point``
    mapped over the rows by default) and ``bounds`` from their bounds
    (each a function's (lo, hi)), each giving its rule's _Undefined where
    it fails, and ``bounds`` None where it may."""

    __slots__ = ("point", "bounds", "column")

    def __init__(self, point: Callable, bounds: Callable, column: Callable | None = None):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "column", column or _mapped(point))


def _mapped(fn: Callable[..., float]) -> Callable[..., list[float]]:
    # the column form of ``fn``: fn at each row of its operands' columns,
    # redone row by row with NaN at each row where a function of math raises
    def column(*args: list[float]) -> list[float]:
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

    return column


@functools.lru_cache(maxsize=1024)
def _power(exponent: float) -> _Rule:
    # the rule of ``u ^ exponent`` for a constant exponent, a function of u
    # alone, built once per exponent (0.0 and -0.0 give the same rule)
    n = integer_exponent(exponent)
    point = _pow(exponent)

    def bounds(lo: float, hi: float) -> Bounds | _Undefined | None:
        if n is not None:
            k = abs(n)
            if k % 2:
                out = (_repeat(lo, k), _repeat(hi, k))
            else:
                near = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
                out = (_repeat(near, k), _repeat(max(-lo, hi), k))
            return out if n >= 0 else _div_bounds((1.0, 1.0), out)
        if lo <= 0.0:
            # every base fails _pow's rule where the upper bound does
            try:
                top = point(hi)
            except OverflowError:
                return None
            return top if top.__class__ is _Undefined else None
        log_lo, log_hi = _widen(math.log(lo), math.log(hi))
        return _exp_bounds(*_corners((exponent * log_lo, exponent * log_hi)))

    def product(base: list[float]) -> list[float]:
        # where _pow multiplies out to n >= 1: the product, written out
        out = base
        for _ in range(n - 1):
            out = list(map(operator.mul, out, base))
        return [v if math.isfinite(v) else math.nan for v in out]

    return _Rule(point, bounds, product if n is not None and n >= 1 else None)


def _domain(fn: Callable[[float], float], least: float, kind: DomainErrorKind, widened: bool) -> _Rule:
    # ln or sqrt: ``fn`` from ``least`` up, failing by ``kind`` below it,
    # which its bounds give where every argument does
    failed = _UNDEFINED[kind.name]

    def bounds(lo: float, hi: float) -> Bounds | _Undefined | None:
        if lo < least:
            return failed if hi < least else None
        return _widen(fn(lo), fn(hi)) if widened else (fn(lo), fn(hi))

    return _Rule(lambda u: failed if u < least else fn(u), bounds)


# keyed by the binary operator, "neg" for unary minus, or the function name
_RULES: dict[str, _Rule] = {
    "+": _Rule(operator.add, lambda l, r: (l[0] + r[0], l[1] + r[1])),
    "-": _Rule(operator.sub, lambda l, r: (l[0] - r[1], l[1] - r[0])),
    "*": _Rule(operator.mul, lambda l, r: _corners((l[0] * r[0], l[0] * r[1], l[1] * r[0], l[1] * r[1]))),
    "/": _Rule(_div, _div_bounds),
    # an exponent that is not a literal: bounded only where its bounds are one number
    "^": _Rule(
        lambda base, exponent: _pow(exponent)(base),
        lambda base, exponent: _power(exponent[0]).bounds(*base) if exponent[0] == exponent[1] else None,
    ),
    "neg": _Rule(operator.neg, lambda lo, hi: (-hi, -lo)),
    "sin": _Rule(math.sin, lambda lo, hi: _wave_bounds(math.sin, 0.5 * math.pi, lo, hi)),
    "cos": _Rule(math.cos, lambda lo, hi: _wave_bounds(math.cos, 0.0, lo, hi)),
    "tan": _Rule(math.tan, _tan_bounds),
    "exp": _Rule(math.exp, _exp_bounds),
    # ln below the least positive float, sqrt below zero
    "ln": _domain(math.log, math.ulp(0.0), DomainErrorKind.LOG_OF_NON_POSITIVE, widened=True),
    "sqrt": _domain(math.sqrt, 0.0, DomainErrorKind.ROOT_OF_NEGATIVE, widened=False),
    "abs": _Rule(math.fabs, _abs_bounds),
}
