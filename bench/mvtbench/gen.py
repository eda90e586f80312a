"""Seeded inputs for the three workloads.

Each case carries the text mvtcheck receives, a plain-``math`` callable for
the same function, the analytically known hazard sets, and, for the CLI,
the command line.  Nothing here imports mvtcheck: the callables are the
oracle's own model of the expression language described in the README.

Case counts per family and the size schedules are fixed; the seed only
draws coefficients, shifts and intervals.  Costs therefore spread
continuously and the same way for every seed, which keeps the median and
the 95th percentile from jumping between size classes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable

Fn = Callable[[float], float]

WORKLOADS = ("smooth", "hazard", "cli")


@dataclass(frozen=True)
class Hazard:
    """Closed set [lo, hi] where f is undefined (``continuity``) or has a kink."""

    lo: float
    hi: float
    continuity: bool


@dataclass(frozen=True)
class Case:
    family: str
    text: str
    f: Fn  # raises ValueError, ZeroDivisionError or OverflowError off the domain
    a: float
    b: float
    hazards: tuple[Hazard, ...] = ()
    rolle: bool = False
    command: str = "verify"  # verify | diff | eval
    argv: tuple[str, ...] | None = None  # CLI cases only; --plot PATH is appended at run time
    x: float | None = None  # eval point
    output: str = "object"  # object | human | json | text
    plot: str | None = None  # ".csv" | ".svg"


@dataclass(frozen=True)
class Ex:
    text: str
    f: Fn


def generate(workload: str, seed: int) -> list[Case]:
    rng = random.Random(f"{workload}:{seed}")
    cases = {"smooth": _smooth, "hazard": _hazard, "cli": _cli}[workload](rng)
    rng.shuffle(cases)
    return cases


# --- language model -----------------------------------------------------------


def rpow(base: float, exponent: float) -> float:
    """``^`` as the README defines it: integral exponents up to 64 take any
    base, every other exponent needs a positive base."""
    if not (abs(exponent) <= 64.0 and exponent == int(exponent)) and base <= 0.0:
        raise ValueError("non-integer power of a non-positive base")
    return math.pow(base, exponent)


def _c(v: float) -> str:
    """Literal text that parses to exactly ``v`` (negatives as unary minus)."""
    return repr(v) if v >= 0.0 else f"(-{-v!r})"


def _r(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(rng.uniform(lo, hi), digits) + 0.0  # + 0.0 drops a negative zero


def spread(n: int, lo: int, hi: int) -> list[int]:
    """``n`` sizes from ``lo`` to ``hi`` inclusive, evenly spaced."""
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i // (n - 1) for i in range(n)]


def _shift(p: float) -> Ex:
    if p == 0.0:
        return Ex("x", lambda x: x)
    return Ex(f"(x - {_c(p)})", lambda x: x - p)


def _join(terms: list[Ex], ops: list[str]) -> Ex:
    """Left-associated sum ``t0 op1 t1 op2 t2 ...`` with ops from "+-"."""
    text = terms[0].text
    for op, t in zip(ops, terms[1:]):
        text += f" {op} {t.text}"
    fs = [t.f for t in terms]
    signs = [1.0] + [1.0 if op == "+" else -1.0 for op in ops]

    def f(x: float) -> float:
        acc = fs[0](x)
        for s, g in zip(signs[1:], fs[1:]):
            acc = acc + g(x) if s > 0 else acc - g(x)
        return acc

    return Ex(text, f)


_SMOOTH_FNS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


def _smooth_leaf(rng: random.Random) -> Ex:
    roll = rng.random()
    if roll < 0.2:
        return Ex("x", lambda x: x)
    if roll < 0.3:
        k = _r(rng, 0.5, 3.0)
        return Ex(_c(k), lambda x: k)
    name = rng.choice(tuple(_SMOOTH_FNS))
    fn = _SMOOTH_FNS[name]
    k, w, p = _r(rng, -2.0, 2.0), _r(rng, -1.5, 1.5), _r(rng, -1.0, 1.0)
    return Ex(f"{_c(k)}*{name}({_c(w)}*x + {_c(p)})", lambda x: k * fn(w * x + p))


def _smooth_tree(rng: random.Random, leaves: int) -> Ex:
    """Random +,-,* tree over x, constants and sin/cos/exp of affine arguments."""
    if leaves <= 1:
        return _smooth_leaf(rng)
    k = rng.randint(1, leaves - 1)
    u, v = _smooth_tree(rng, k), _smooth_tree(rng, leaves - k)
    op = rng.choices("+-*", weights=(4, 3, 3))[0]
    uf, vf = u.f, v.f
    if op == "+":
        f = lambda x: uf(x) + vf(x)
    elif op == "-":
        f = lambda x: uf(x) - vf(x)
    else:
        f = lambda x: uf(x) * vf(x)
    return Ex(f"({u.text} {op} {v.text})", f)


def _polynomial(rng: random.Random, degree: int) -> Ex:
    coeffs = [_r(rng, -10.0, 10.0) for _ in range(degree + 1)]
    terms = [_c(coeffs[0])] + [
        f"{_c(ck)}*x" if k == 1 else f"{_c(ck)}*x^{k}" for k, ck in enumerate(coeffs) if k
    ]

    def f(x: float) -> float:
        return sum(ck * rpow(x, float(k)) for k, ck in enumerate(coeffs))

    return Ex(" + ".join(terms), f)


# --- smooth ---------------------------------------------------------------------


def _interval(rng: random.Random, lo: float, hi: float, wlo: float, whi: float) -> tuple[float, float]:
    a = _r(rng, lo, hi)
    return a, round(a + _r(rng, wlo, whi), 3) + 0.0


def _smooth(rng: random.Random) -> list[Case]:
    cases = []
    for degree in spread(96, 1, 10):
        a, b = _interval(rng, -2.5, 1.5, 0.5, 3.0)
        e = _polynomial(rng, degree)
        cases.append(Case(f"poly{degree}", e.text, e.f, a, b))
    for leaves in spread(84, 1, 12):
        a, b = _interval(rng, -2.0, 1.0, 0.5, 2.5)
        e = _smooth_tree(rng, leaves)
        cases.append(Case(f"comp{leaves}", e.text, e.f, a, b))
    # Rolle share: q(x)*(x-a)*(x-b) is exactly zero at both endpoints
    for i, size in enumerate(spread(60, 0, 6)):
        a, b = _interval(rng, -2.0, 1.0, 0.5, 2.5)
        q = _polynomial(rng, size) if i % 2 == 0 else _smooth_tree(rng, max(size, 1))
        e = _rolle(q, a, b)
        cases.append(Case(f"rolle{size}", e.text, e.f, a, b, rolle=True))
    return cases


def _rolle(q: Ex, a: float, b: float) -> Ex:
    xa, xb = _shift(a), _shift(b)
    qf, af, bf = q.f, xa.f, xb.f
    return Ex(f"({q.text})*{xa.text}*{xb.text}", lambda x: qf(x) * af(x) * bf(x))


# --- hazard ---------------------------------------------------------------------

HAZARD_KINDS = ("pole", "ln", "sqrt", "abs", "power", "tan")
_INF = math.inf


def _hazard_term(rng: random.Random, kind: str, p: float, side: int) -> tuple[Ex, tuple[Hazard, ...]]:
    """One hazard subexpression located at ``p``.

    ``side`` +1 puts a domain boundary's undefined half-line below ``p``,
    -1 above it.  For ``tan``, ``p`` is one of its poles.
    """
    k = _r(rng, 0.5, 3.0) * rng.choice((-1.0, 1.0))
    u = _shift(p)
    uf = u.f
    if side > 0:
        arg, argf, below = u.text, uf, (-_INF, p)
    else:
        arg, argf, below = f"{_c(p)} - x", (lambda x: p - x), (p, _INF)
    if kind == "pole":
        return Ex(f"{_c(k)}/{u.text}", lambda x: k / uf(x)), (Hazard(p, p, True),)
    if kind == "abs":
        return Ex(f"{_c(k)}*abs({u.text})", lambda x: k * abs(uf(x))), (Hazard(p, p, False),)
    if kind == "ln":
        return Ex(f"{_c(k)}*ln({arg})", lambda x: k * math.log(argf(x))), (Hazard(*below, True),)
    if kind == "sqrt":
        return Ex(f"{_c(k)}*sqrt({arg})", lambda x: k * math.sqrt(argf(x))), (Hazard(*below, True),)
    if kind == "power":
        r = rng.choice((0.75, 1.5, 2.5))
        return (
            Ex(f"{_c(k)}*({arg})^{r!r}", lambda x: k * rpow(argf(x), r)),
            (Hazard(*below, True),),
        )
    # tan(w*x + phi) with a pole at p: w*p + phi = pi/2
    w = _r(rng, 0.3, 0.8)
    phi = round(math.pi / 2.0 - w * p, 6) + 0.0
    poles = tuple(
        Hazard(t, t, True)
        for n in range(-4, 5)
        for t in [(math.pi / 2.0 + n * math.pi - phi) / w]
    )
    return Ex(f"{_c(k)}*tan({_c(w)}*x + {_c(phi)})", lambda x: k * math.tan(w * x + phi)), poles


def _clear_of(hazards: tuple[Hazard, ...], lo: float, hi: float) -> bool:
    return all(h.hi < lo or h.lo > hi for h in hazards)


def _outside_term(rng: random.Random, kind: str, a: float, b: float) -> tuple[Ex, tuple[Hazard, ...]]:
    width = b - a
    while True:
        side = rng.choice((-1, 1))
        gap = _r(rng, 0.1, 1.0) * width
        p = round(a - gap if side > 0 else b + gap, 3) + 0.0
        term, hz = _hazard_term(rng, kind, p, side)
        if _clear_of(hz, a - 0.09 * width, b + 0.09 * width):
            return term, hz


# ROADMAP items 3 and 4: C1 functions the program calls kinked, and
# honest-but-weak Unknowns, each with its hazard (None, a continuity point
# or a kink).  Each has the fixed instance and two seeded shifts.
ROADMAP_CASES = (
    ("x*abs(x)", lambda u: Ex(f"{u.text}*abs({u.text})", lambda x: u.f(x) * abs(u.f(x))), None),
    ("abs(x)^2", lambda u: Ex(f"abs({u.text})^2", lambda x: abs(u.f(x)) ** 2), None),
    ("abs(x^3)", lambda u: Ex(f"abs({u.text}^3)", lambda x: abs(u.f(x) ** 3)), None),
    ("ln(x^2)", lambda u: Ex(f"ln({u.text}^2)", lambda x: math.log(u.f(x) ** 2)), "continuity"),
    ("sqrt(x^2)", lambda u: Ex(f"sqrt({u.text}^2)", lambda x: math.sqrt(u.f(x) ** 2)), "kink"),
    (
        "1/((x-0.5)^2+1e-20)",
        lambda u: Ex(f"1/({u.text}^2 + 1e-20)", lambda x: 1.0 / (u.f(x) ** 2 + 1e-20)),
        None,
    ),
)


def _roadmap(rng: random.Random) -> list[Case]:
    cases = []
    for name, build, hazard in ROADMAP_CASES:
        for variant in range(3):
            if variant == 0:
                p, a, b = (0.5, 0.0, 1.0) if name.startswith("1/") else (0.0, -1.0, 1.0)
            else:
                p = _r(rng, -1.0, 1.0)
                a, b = round(p - _r(rng, 0.3, 1.5), 3) + 0.0, round(p + _r(rng, 0.3, 1.5), 3) + 0.0
            e = build(_shift(p))
            hz = () if hazard is None else (Hazard(p, p, hazard == "continuity"),)
            cases.append(Case(f"roadmap:{name}", e.text, e.f, a, b, hz))
    return cases


def _hazard(rng: random.Random) -> list[Case]:
    cases = _roadmap(rng)
    n = 222
    for i, smooth_leaves in enumerate(spread(n, 0, 6)):
        a, b = _interval(rng, -2.0, 1.0, 1.0, 3.0)
        width = b - a
        k = 2 + i % 3
        terms, hazards = [], []
        inside = i % 2 == 0
        if inside:
            kind = HAZARD_KINDS[(i // 2) % len(HAZARD_KINDS)]
            p = _r(rng, a + 0.15 * width, b - 0.15 * width)
            term, hz = _hazard_term(rng, kind, p, rng.choice((-1, 1)))
            terms.append(term)
            hazards.extend(hz)
        while len(terms) < k:
            kind_out = HAZARD_KINDS[(i + len(terms)) % len(HAZARD_KINDS)]
            term, hz = _outside_term(rng, kind_out, a, b)
            terms.append(term)
            hazards.extend(hz)
        if smooth_leaves:
            terms.append(_smooth_tree(rng, smooth_leaves))
        rng.shuffle(terms)
        e = _join(terms, ["+"] * (len(terms) - 1))
        family = f"hazard{k}:" + (f"in-{kind}" if inside else "clear")
        cases.append(Case(family, e.text, e.f, a, b, tuple(hazards)))
    return cases


# --- cli ------------------------------------------------------------------------

_ENDPOINTS = (
    ("0", 0.0, "1", 1.0),
    ("-1", -1.0, "1", 1.0),
    ("0", 0.0, "pi/2", math.pi / 2.0),
    ("-pi/4", -(math.pi / 4.0), "pi/3", math.pi / 3.0),
    ("0.25", 0.25, "2", 2.0),
    ("-0.5", -0.5, "1.5", 1.5),
)


def _sum_text(rng: random.Random, terms: int) -> Ex:
    """``terms`` terms of k*sin(j*x), k*cos(j*x) and k*x^j in turn, joined by + and -."""
    parts = []
    for t in range(terms):
        k, j = rng.randint(1, 9), rng.randint(1, 5)
        shape = ("sin", "cos", "pow")[t % 3]
        if shape == "pow":
            j = min(j, 3)
            parts.append(Ex(f"{k}*x^{j}", lambda x, k=k, j=j: k * rpow(x, float(j))))
        else:
            fn = _SMOOTH_FNS[shape]
            parts.append(Ex(f"{k}*{shape}({j}*x)", lambda x, k=k, j=j, fn=fn: k * fn(j * x)))
    return _join(parts, [rng.choice("+-") for _ in parts[1:]])


def _nest_text(rng: random.Random, levels: int) -> Ex:
    """``levels`` nested wraps: sin(u) every eighth level, (k*u + d) otherwise."""
    e = Ex("x", lambda x: x)
    for level in range(1, levels + 1):
        inner = e.f
        if level % 8 == 0:
            e = Ex(f"sin({e.text})", lambda x, g=inner: math.sin(g(x)))
        else:
            k, d = _r(rng, 0.5, 1.2), _r(rng, -0.5, 0.5)
            e = Ex(f"({_c(k)}*{e.text} + {_c(d)})", lambda x, g=inner, k=k, d=d: k * g(x) + d)
    return e


_CLI_MIX = (
    # command, output, plot, count
    ("verify", "human", None, 74),
    ("verify", "json", None, 74),
    ("verify", "human", ".svg", 30),
    ("verify", "human", ".csv", 30),
    ("diff", "text", None, 43),
    ("eval", "text", None, 43),
)


def _cli_case(rng: random.Random, command: str, output: str, plot: str | None,
              family: str, size: int, i: int) -> Case:
    """The ``i``-th case of its group; ``i`` picks endpoints and flags in turn."""
    e = _sum_text(rng, size) if family == "sum" else _nest_text(rng, size)
    a_text, a, b_text, b = _ENDPOINTS[i % len(_ENDPOINTS)]
    label = f"cli-{command}{'-' + output if command == 'verify' else ''}{plot or ''}:{family}{size}"
    if command == "diff":
        return Case(label, e.text, e.f, a, b, command="diff", argv=("diff", f"--f={e.text}"), output=output)
    if command == "eval":
        if i % 3 == 0:
            n = rng.randint(3, 9)
            x_text, x = f"pi/{n}", math.pi / n
        else:
            x = _r(rng, a, b)
            x_text = _c(x)
        return Case(label, e.text, e.f, a, b, command="eval",
                    argv=("eval", f"--f={e.text}", f"--x={x_text}"), x=x, output=output)
    # "--a=-pi/4": argparse takes a separate "-pi/4" for an option name
    argv = ["verify", f"--f={e.text}", f"--a={a_text}", f"--b={b_text}"]
    if output == "json":
        argv.append("--json")
    samples = (None, 512, None, 256)[i % 4]
    if samples is not None:
        argv += ["--samples", str(samples)]
    eps = (None, None, 1e-9, 1e-12)[(i // 4) % 4]
    if eps is not None:
        argv += ["--eps", repr(eps)]
    return Case(label, e.text, e.f, a, b, argv=tuple(argv), output=output, plot=plot)


def _cli(rng: random.Random) -> list[Case]:
    cases = []
    for command, output, plot, count in _CLI_MIX:
        half = count // 2
        for family, n in (("sum", half), ("nest", count - half)):
            for i, size in enumerate(spread(n, 1, 64)):
                cases.append(_cli_case(rng, command, output, plot, family, size, i))
    # fixed 2% stress tail just past today's limits: long sums and deep nests
    for i, (command, output, family) in enumerate((
        ("verify", "json", "sum"), ("verify", "human", "sum"), ("verify", "json", "sum"),
        ("diff", "text", "nest"), ("eval", "text", "nest"), ("verify", "json", "nest"),
    )):
        case = _cli_case(rng, command, output, None, family, rng.randint(200, 300), i)
        cases.append(replace(case, family="stress:" + case.family))
    return cases
