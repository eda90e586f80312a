"""Independent judge of mvtcheck's outputs.

Shares no code with mvtcheck.  Verdicts are checked against the case's
plain-``math`` callable and its analytically known hazard sets; derivative
text printed by ``diff`` is read by the small evaluator below, written from
the grammar in the README.

``judge`` returns None when the output is acceptable and a short cause
otherwise.  Unknown is always acceptable; it lowers the decided ratio.
"""

from __future__ import annotations

import json
import math
import re

from .gen import Case, rpow

# domain errors of the plain-math model
UNDEFINED = (ValueError, ZeroDivisionError, OverflowError)


def value(f, x: float) -> float | None:
    """f(x), or None where f is undefined or not finite."""
    try:
        v = f(x)
    except UNDEFINED:
        return None
    return v if math.isfinite(v) else None


def _slope_scale(case: Case) -> float:
    """Largest |secant slope| over 64 equal pieces of [a, b]: the derivative scale."""
    a, b = case.a, case.b
    n = 64
    xs = [a + (b - a) * i / n for i in range(n + 1)]
    ys = [value(case.f, x) for x in xs]
    best = 1.0
    for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:]):
        if y0 is not None and y1 is not None:
            best = max(best, abs(y1 - y0) / (x1 - x0))
    return best


def derivative_at(case: Case, x: float) -> float | None:
    """Central difference of the model at x, step scaled to the interval."""
    h = 1e-6 * (case.b - case.a)
    lo, hi = value(case.f, x - h), value(case.f, x + h)
    if lo is None or hi is None:
        return None
    return (hi - lo) / (2.0 * h)


def _near_hazard(case: Case, w: float) -> bool:
    tol = 1e-6 * (case.b - case.a) + 1e-9 * abs(w)
    return any(h.lo - tol <= w <= h.hi + tol for h in _hazards_in(case, closed=True))


def _hazards_in(case: Case, closed: bool):
    a, b = case.a, case.b
    for h in case.hazards:
        if closed and h.lo <= b and h.hi >= a:
            yield h
        elif not closed and h.lo < b and h.hi > a:
            yield h


def allowed_reasons(case: Case) -> set[str]:
    if any(h.continuity for h in _hazards_in(case, closed=True)):
        return {"not_continuous", "undefined"}
    if any(not h.continuity for h in _hazards_in(case, closed=False)):
        return {"not_differentiable"}
    return set()


def judge(case: Case, verdict: dict, rounded: bool = False) -> str | None:
    """Check a verdict ``{"status", "c", "m", "reason", "witness"}``.

    ``rounded`` marks numbers printed with 10 significant digits.
    """
    status = verdict.get("status")
    if status == "unknown":
        return None
    if status == "not_applicable":
        reasons = allowed_reasons(case)
        if not reasons:
            return "not_applicable on a function without hazards"
        if verdict.get("reason") not in reasons:
            return f"reason {verdict.get('reason')} where {sorted(reasons)} expected"
        w = verdict.get("witness")
        if w is None:
            return "not_applicable without a witness"
        if not _near_hazard(case, w):
            return f"witness {w!r} not near a hazard"
        return None
    if status != "applicable":
        return f"unrecognised status {status!r}"
    if allowed_reasons(case):
        return "applicable despite a hazard on the interval"
    a, b, c, m = case.a, case.b, verdict.get("c"), verdict.get("m")
    if not (isinstance(c, float) and isinstance(m, float)):
        return "applicable without numbers"
    if not a < c < b:
        return f"c = {c!r} outside (a, b)"
    fa, fb = value(case.f, a), value(case.f, b)
    if fa is None or fb is None:
        return "applicable though f is undefined at an endpoint"
    m_ref = (fb - fa) / (b - a)
    tol_m = 1e-9 * (abs(fa) + abs(fb) + 1.0) / (b - a) + (1e-9 * abs(m) if rounded else 0.0)
    if abs(m - m_ref) > tol_m:
        return f"m = {m!r}, secant slope {m_ref!r}"
    d = derivative_at(case, c)
    if d is None:
        return f"f undefined next to c = {c!r}"
    if abs(d - m_ref) > 1e-5 * _slope_scale(case):
        return f"f'(c) = {d!r} by central difference, m = {m_ref!r}"
    return None


# --- reading the program's outputs ---------------------------------------------


def verdict_of_result(result) -> dict:
    """Library result object -> verdict dict, by class and attribute names."""
    kind = type(result).__name__
    if kind == "Applicable":
        return {"status": "applicable", "c": result.c, "m": result.m}
    if kind == "NotApplicable":
        return {"status": "not_applicable", "reason": result.reason.value, "witness": result.witness}
    if kind == "Unknown":
        return {"status": "unknown"}
    return {"status": f"{kind}: {result}"}


def verdict_of_json(stdout: str) -> dict:
    data = json.loads(stdout)
    verdict = {k: data.get(k) for k in ("status", "reason")}
    for k in ("c", "m", "witness"):  # 17 significant digits may print as an integer
        verdict[k] = None if data.get(k) is None else float(data[k])
    return verdict


def verdict_of_human(stdout: str) -> dict:
    lines = stdout.splitlines()

    def number(prefix: str) -> float | None:
        for line in lines:
            if line.startswith(prefix):
                return float(line.split("≈")[-1])
        return None

    def text(prefix: str) -> str | None:
        for line in lines:
            if line.startswith(prefix):
                return line[len(prefix):].strip()
        return None

    if "The Mean Value Theorem applies" in lines:
        return {"status": "applicable", "c": number("c ≈"), "m": number("m ≈")}
    if "The Mean Value Theorem does not apply" in lines:
        return {"status": "not_applicable", "reason": text("reason:"), "witness": number("witness:")}
    if "Mean Value Theorem applicability is unknown" in lines:
        return {"status": "unknown"}
    return {"status": "unparseable human output"}


# --- CLI checks -----------------------------------------------------------------


def judge_cli(case: Case, code: int, stdout: str, stderr: str, plot: str | None) -> tuple[str | None, bool]:
    """Judge one CLI run: (failure cause or None, decided)."""
    if "internal error" in stderr:
        return stderr.strip()[:120], False
    if case.command == "diff":
        if code != 0:
            return f"exit {code}: {stderr.strip()[:120]}", False
        cause = check_derivative_text(case, stdout.strip())
        return cause, cause is None
    if case.command == "eval":
        if code != 0:
            return f"exit {code}: {stderr.strip()[:120]}", False
        cause = check_eval(case, stdout.strip())
        return cause, cause is None
    if code not in (0, 2):
        return f"exit {code}: {stderr.strip()[:120]}", False
    try:
        verdict = verdict_of_json(stdout) if case.output == "json" else verdict_of_human(stdout)
    except (ValueError, TypeError) as err:
        return f"unreadable output: {err}", False
    if (code == 0) != (verdict["status"] == "applicable"):
        return f"exit {code} with status {verdict['status']}", False
    cause = judge(case, verdict, rounded=case.output != "json")
    if cause is None and case.plot is not None:
        cause = check_plot(case, verdict, plot)
    return cause, cause is None and verdict["status"] != "unknown"


def check_eval(case: Case, out: str) -> str | None:
    try:
        got = float(out)
    except ValueError:
        return f"eval printed {out[:60]!r}"
    want = value(case.f, case.x)
    if want is None:
        return f"eval printed {got!r} where f is undefined"
    if abs(got - want) > 1e-9 * max(1.0, abs(want)):
        return f"eval printed {got!r}, expected {want!r}"
    return None


def check_derivative_text(case: Case, text: str) -> str | None:
    try:
        program = compile_text(text)
    except ValueError as err:
        return f"derivative text unreadable: {err}"
    scale = _slope_scale(case)
    for t in (0.23, 0.51, 0.87):
        x = case.a + t * (case.b - case.a)
        want = derivative_at(case, x)
        if want is None:
            continue
        got = value(lambda v: run_rpn(program, v), x)
        if got is None:
            return f"derivative undefined at {x!r}"
        if abs(got - want) > 1e-5 * max(scale, abs(want)):
            return f"derivative {got!r} at {x!r}, central difference {want!r}"
    return None


def check_plot(case: Case, verdict: dict, text: str | None) -> str | None:
    if text is None:
        return "plot file missing"
    applicable = verdict["status"] == "applicable"
    if case.plot == ".svg":
        if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
            return "plot is not an SVG document"
        want = (3, 1) if applicable else (1, 0)
        got = (text.count("<polyline"), text.count("<circle"))
        return None if got == want else f"svg has {got} polylines/circles, expected {want}"
    rows = text.splitlines()
    header = "x,f,secant,tangent" if applicable else "x,f"
    if rows[0] != header:
        return f"csv header {rows[0]!r}"
    if len(rows) != 513:
        return f"csv has {len(rows) - 1} rows"
    fa = value(case.f, case.a)
    for row in rows[1::64] + [rows[-1]]:
        cells = row.split(",")
        x = float(cells[0])
        want = value(case.f, x)
        if want is not None and not cells[1]:
            return f"csv f({x!r}) missing"
        if want is not None and abs(float(cells[1]) - want) > 1e-9 * max(1.0, abs(want)):
            return f"csv f({x!r}) = {cells[1]}, expected {want!r}"
        if applicable:
            secant = fa + verdict["m"] * (x - case.a)
            if abs(float(cells[2]) - secant) > 1e-6 * max(1.0, abs(secant)):
                return f"csv secant at {x!r} = {cells[2]}, expected {secant!r}"
    if float(rows[1].split(",")[0]) != case.a or float(rows[-1].split(",")[0]) != case.b:
        return "csv grid does not span [a, b]"
    return None


# --- an evaluator for expression text ---------------------------------------------
#
# Shunting-yard to postfix, then a stack machine: no recursion, so any
# nesting depth the program prints can be read.  Precedence, loosest first:
# + -, * /, unary minus, ^ (right associative); calls bind tightest.

_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|([A-Za-z]+)|(.))")
_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}
_CONSTS = {"pi": math.pi, "e": math.e}
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def compile_text(text: str) -> list:
    """Expression text -> postfix program of numbers, "x", operators and calls."""
    out: list = []
    stack: list = []
    expect_operand = True
    for num, name, sym in _TOKEN.findall(text):
        if num:
            out.append(float(num))
            expect_operand = False
        elif name:
            if name in _FUNCS:
                stack.append(("call", name))
            elif name == "x":
                out.append("x")
                expect_operand = False
            elif name in _CONSTS:
                out.append(_CONSTS[name])
                expect_operand = False
            else:
                raise ValueError(f"unknown name {name!r}")
        elif sym == "(":
            stack.append("(")
            expect_operand = True
        elif sym == ")":
            while stack and stack[-1] != "(":
                out.append(stack.pop())
            if not stack:
                raise ValueError("unbalanced ')'")
            stack.pop()
            if stack and isinstance(stack[-1], tuple):
                out.append(stack.pop())
            expect_operand = False
        elif sym == "-" and expect_operand:
            stack.append("neg")
        elif sym in _PREC:
            prec = _PREC[sym]
            while stack and stack[-1] in _PREC and (
                _PREC[stack[-1]] > prec or (_PREC[stack[-1]] == prec and sym != "^")
            ):
                out.append(stack.pop())
            stack.append(sym)
            expect_operand = True
        elif sym.strip():
            raise ValueError(f"unexpected {sym!r}")
    while stack:
        op = stack.pop()
        if op == "(":
            raise ValueError("unbalanced '('")
        out.append(op)
    return out


def run_rpn(program: list, x: float) -> float:
    stack: list[float] = []
    for item in program:
        if item == "x":
            stack.append(x)
        elif isinstance(item, float):
            stack.append(item)
        elif isinstance(item, tuple):
            stack.append(_FUNCS[item[1]](stack.pop()))
        elif item == "neg":
            stack.append(-stack.pop())
        else:
            r = stack.pop()
            l = stack.pop()
            if item == "+":
                stack.append(l + r)
            elif item == "-":
                stack.append(l - r)
            elif item == "*":
                stack.append(l * r)
            elif item == "/":
                stack.append(l / r)
            else:
                stack.append(rpow(l, r))
    if len(stack) != 1:
        raise ValueError("malformed expression")
    return stack[0]
