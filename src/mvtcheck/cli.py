"""Command-line front-end: verify / diff / eval, with JSON output and
CSV/SVG plot emission showing the function, the secant line, and the
tangent at the located point c.

Exit codes: 0 = applicable/success, 2 = not applicable or unknown,
1 = usage, lex, or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Sequence

from .calculus import differentiate, simplify
from .expr import (
    DomainError,
    Expr,
    Neg,
    Binary,
    Call,
    SourceError,
    Variable,
    compile_evaluator,
    evaluate,
    format_expr,
    parse,
)
from .numeric import Interval, sample
from .theorem import Applicable, Config, MvtResult, NotApplicable, Unknown, verify_mvt, verify_rolle

__all__ = ["run", "main", "render_json", "emit_plot", "PlotSeries", "UnsupportedFormat"]

MVT_DOES_NOT_APPLY = "The Mean Value Theorem does not apply"

DEFAULT_PLOT_POINTS = 512


class UnsupportedFormat(Exception):
    """Plot path extension is neither .csv nor .svg."""


class _UsageError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class PlotSeries:
    """One plotted curve: defined (x, y) points in increasing-x order."""

    name: str  # "function" | "secant" | "tangent"
    points: tuple[tuple[float, float], ...]


class _ArgumentParser(argparse.ArgumentParser):
    # funnel every argparse failure into exit code 1 instead of SystemExit(2)
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="mvtcheck",
        description="Verify Rolle's theorem and the Mean Value Theorem numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="check the theorem for f on [a, b]")
    verify.add_argument("--f", required=True, metavar="EXPR", help="function of x")
    verify.add_argument("--a", required=True, metavar="EXPR", help="left endpoint (constant expression)")
    verify.add_argument("--b", required=True, metavar="EXPR", help="right endpoint (constant expression)")
    verify.add_argument("--mode", choices=("mvt", "rolle"), default="mvt")
    verify.add_argument("--eps", type=float, default=None, help="bisection interval precision")
    verify.add_argument("--samples", type=int, default=None, help="sample count for the scans")
    verify.add_argument("--json", action="store_true", help="print a machine-readable result")
    verify.add_argument("--plot", metavar="PATH", default=None, help="write plot data (.csv or .svg)")
    verify.set_defaults(handler=_cmd_verify)

    diff = sub.add_parser("diff", help="print the symbolic derivative of f")
    diff.add_argument("--f", required=True, metavar="EXPR")
    diff.set_defaults(handler=_cmd_diff)

    ev = sub.add_parser("eval", help="evaluate f at a point")
    ev.add_argument("--f", required=True, metavar="EXPR")
    ev.add_argument("--x", required=True, metavar="EXPR", help="point (constant expression)")
    ev.set_defaults(handler=_cmd_eval)

    return parser


def run(args: Sequence[str]) -> int:
    """Execute the CLI and return the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(args))
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return ns.handler(ns)
    except (_UsageError, SourceError, UnsupportedFormat, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # exit-code totality: never leak a traceback
        print(f"internal error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


def _mentions_x(e: Expr) -> bool:
    if isinstance(e, Variable):
        return True
    if isinstance(e, Neg):
        return _mentions_x(e.child)
    if isinstance(e, Binary):
        return _mentions_x(e.left) or _mentions_x(e.right)
    if isinstance(e, Call):
        return _mentions_x(e.argument)
    return False


def _constant_value(text: str, flag: str) -> float:
    expr = parse(text)
    if _mentions_x(expr):
        raise _UsageError(f"--{flag} must be a constant expression, got {text!r}")
    try:
        return evaluate(expr, 0.0)
    except DomainError as err:
        raise _UsageError(f"--{flag} has no real value: {err}") from None


def _cmd_verify(ns) -> int:
    f = parse(ns.f)
    a = _constant_value(ns.a, "a")
    b = _constant_value(ns.b, "b")
    try:
        iv = Interval(a, b)
    except ValueError as err:
        raise _UsageError(str(err)) from None
    overrides = {}
    if ns.eps is not None:
        overrides["eps_c"] = ns.eps
    if ns.samples is not None:
        overrides["samples"] = ns.samples
    try:
        cfg = Config(**overrides)
    except ValueError as err:
        raise _UsageError(str(err)) from None

    if ns.mode == "rolle":
        result = verify_rolle(f, iv, cfg)
    else:
        result = verify_mvt(f, iv, cfg)

    if ns.plot:
        emit_plot(f, iv, result, ns.plot)
    if ns.json:
        print(render_json(result, f, iv))
    else:
        _print_human(result, ns.f, iv, ns.mode)
    return 0 if isinstance(result, Applicable) else 2


def _cmd_diff(ns) -> int:
    print(format_expr(simplify(differentiate(parse(ns.f)))))
    return 0


def _cmd_eval(ns) -> int:
    f = parse(ns.f)
    x = _constant_value(ns.x, "x")
    print(repr(evaluate(f, x)))
    return 0


def _print_human(result: MvtResult, source: str, iv: Interval, mode: str) -> None:
    print(f"f(x) = {source}  on [{iv.a:.10g}, {iv.b:.10g}]  (mode: {mode})")
    if isinstance(result, Applicable):
        print("The Mean Value Theorem applies")
        print(f"c ≈ {result.c:.10g}")
        print(f"m ≈ {result.m:.10g}")
        print(f"f'(c) ≈ {result.f_prime_at_c:.10g}")
        print(f"residual ≈ {result.residual:.10g}")
        print(f"method = {result.method.value} ({result.iterations} iterations)")
    elif isinstance(result, NotApplicable):
        print(MVT_DOES_NOT_APPLY)
        print(f"reason: {result.reason.value}")
        if result.witness is not None:
            print(f"witness: x ≈ {result.witness:.10g}")
    else:
        assert isinstance(result, Unknown)
        print("Mean Value Theorem applicability is unknown")
        print(f"detail: {result.detail}")


def render_json(result: MvtResult, f: Expr, iv: Interval) -> str:
    """Serialize ``result`` as a single-line JSON object.

    Numbers are written as the shortest repr that round-trips, so parsing
    the output recovers them bit-exactly, including the sign of zero.
    """
    if isinstance(result, Applicable):
        fields = {
            "status": "applicable",
            "c": result.c,
            "m": result.m,
            "f_prime_at_c": result.f_prime_at_c,
            "residual": result.residual,
            "iterations": result.iterations,
            "method": result.method.value,
        }
    elif isinstance(result, NotApplicable):
        fields = {"status": "not_applicable", "reason": result.reason.value}
        if result.witness is not None:
            fields["witness"] = result.witness
    else:
        assert isinstance(result, Unknown)
        fields = {"status": "unknown", "detail": result.detail}
    return json.dumps(fields, separators=(",", ":"))


def plot_series(f: Expr, iv: Interval, result: MvtResult, n: int = DEFAULT_PLOT_POINTS) -> list[PlotSeries]:
    """Build the plotted series: the function, plus secant and tangent when
    the result is Applicable."""
    pts = sample(compile_evaluator(f), iv, n)
    xs = [p.x for p in pts]
    series = [PlotSeries("function", tuple((p.x, p.value) for p in pts if p.error is None))]
    series += [PlotSeries(name, tuple(zip(xs, ys))) for name, ys in _lines(f, iv, result, xs)]
    return series


def _lines(f: Expr, iv: Interval, result: MvtResult, xs: list[float]) -> list[tuple[str, list[float]]]:
    """The secant and the tangent at c over ``xs``, when the result is Applicable."""
    if not isinstance(result, Applicable):
        return []
    fa = evaluate(f, iv.a)
    fc = evaluate(f, result.c)
    return [
        ("secant", [fa + result.m * (x - iv.a) for x in xs]),
        ("tangent", [fc + result.f_prime_at_c * (x - result.c) for x in xs]),
    ]


def emit_plot(f: Expr, iv: Interval, result: MvtResult, path: str, n: int = DEFAULT_PLOT_POINTS) -> None:
    """Write plot data for ``f`` on ``iv`` to ``path`` (.csv or .svg).

    CSV: header ``x,f,secant,tangent`` (just ``x,f`` when the result is
    not Applicable), ``n`` rows, empty cells where f is undefined.
    SVG: a self-contained document with one polyline per series, a marker
    at (c, f(c)), and a label showing c.  Writes are atomic
    (write-then-rename).
    """
    if n < 2:
        raise ValueError("need at least two plot points")
    suffix = os.path.splitext(path)[1].lower()
    if suffix == ".csv":
        text = _render_csv(f, iv, result, n)
    elif suffix == ".svg":
        text = _render_svg(f, iv, result, n)
    else:
        raise UnsupportedFormat(f"unsupported plot format {suffix!r} (use .csv or .svg)")
    _atomic_write(path, text)


def _render_csv(f: Expr, iv: Interval, result: MvtResult, n: int) -> str:
    pts = sample(compile_evaluator(f), iv, n)
    xs = [p.x for p in pts]
    lines = _lines(f, iv, result, xs)
    columns = [map(repr, xs), ("" if p.value is None else repr(p.value) for p in pts)]
    columns += [map(repr, ys) for _, ys in lines]
    rows = [",".join(["x", "f"] + [name for name, _ in lines])]
    rows += map(",".join, zip(*columns))
    return "\n".join(rows) + "\n"


def _render_svg(f: Expr, iv: Interval, result: MvtResult, n: int) -> str:
    series = plot_series(f, iv, result, n)
    ys = [y for s in series for _, y in s.points]
    if not ys:
        ys = [-1.0, 1.0]
    ymin, ymax = min(ys), max(ys)
    xmargin = 0.05 * iv.width
    yspan = ymax - ymin
    ymargin = 0.05 * yspan if yspan > 0.0 else 0.05 * max(1.0, abs(ymax))
    left = iv.a - xmargin
    top = -(ymax + ymargin)  # svg y grows downward: plot (x, -y)
    width = iv.width + 2.0 * xmargin
    height = (ymax - ymin) + 2.0 * ymargin
    stroke = 0.004 * max(width, height)

    colors = {"function": "#1f77b4", "secant": "#ff7f0e", "tangent": "#2ca02c"}
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{left:.9g} {top:.9g} {width:.9g} {height:.9g}" '
        'width="640" height="480" preserveAspectRatio="none">'
    ]
    for s in series:
        pts = " ".join(f"{x:.9g},{-y:.9g}" for x, y in s.points)
        parts.append(
            f'<polyline fill="none" stroke="{colors[s.name]}" '
            f'stroke-width="{stroke:.3g}" points="{pts}"/>'
        )
    if isinstance(result, Applicable):
        fc = evaluate(f, result.c)
        radius = 0.012 * max(width, height)
        parts.append(
            f'<circle cx="{result.c:.9g}" cy="{-fc:.9g}" r="{radius:.3g}" fill="#d62728"/>'
        )
        label_x = result.c + 2.0 * radius
        label_y = -fc - 2.0 * radius
        parts.append(
            f'<text x="{label_x:.9g}" y="{label_y:.9g}" '
            f'font-size="{0.04 * height:.3g}" fill="#333333">c ≈ {result.c:.6g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mvtcheck-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
