"""Command-line front-end: verify / diff / eval, with JSON output and
CSV/SVG plot emission showing the function, the secant line, and the
tangent at the located point c.

Each expression on the command line is parsed once, onto a tape of its
own, and every command reads it there.

Exit codes: 0 = applicable/success, 2 = not applicable or unknown, or an
eval point outside f's domain, 1 = usage, lex, parse or plot-file error,
or an internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from enum import Enum
from typing import Callable, Sequence

# no call here reads simplify: bench/mvtbench/tracer.py wraps cli.simplify
from .calculus import differentiate, simplify  # noqa: F401
from .expr import DomainError, Expr, SourceError, compile_evaluator, format_expr, parse, tabulate
from .numeric import Interval, grid
from .theorem import Applicable, Config, MvtResult, NotApplicable, Unknown, verify_mvt, verify_rolle

__all__ = ["run", "main", "render_json", "emit_plot", "UnsupportedFormat"]

MVT_DOES_NOT_APPLY = "The Mean Value Theorem does not apply"

# grid points of every plot
_PLOT_POINTS = 512

# the "status" of each result's JSON
_STATUS = {Applicable: "applicable", NotApplicable: "not_applicable", Unknown: "unknown"}


class UnsupportedFormat(Exception):
    """Plot path extension is neither .csv nor .svg."""


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # funnel every argparse failure into exit code 1 instead of SystemExit(2)
    def error(self, message):
        raise _UsageError(message)


# built on first use, not at import, and kept: parse_args leaves it as it was
@functools.cache
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
    verify.add_argument("--eps", type=float, default=Config().eps_c, help="width of the final bracket around c")
    verify.add_argument("--samples", type=int, default=Config().samples, help="sample count for the scans")
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


# flags whose value is an expression, which may begin with "-": argparse
# reads a separate "-x^2" or "-pi" as an option, but not "--f=-x^2"
_EXPRESSION_FLAGS = ("--f", "--a", "--b", "--x")


def _join_expression_values(args: Sequence[str]) -> list[str]:
    """``args`` with each expression flag joined to the token after it."""
    out: list[str] = []
    tokens = iter(args)
    for token in tokens:
        value = next(tokens, None) if token in _EXPRESSION_FLAGS else None
        out.append(token if value is None else f"{token}={value}")
    return out


def run(args: Sequence[str]) -> int:
    """Execute the CLI and return the process exit code."""
    try:
        ns = _build_parser().parse_args(_join_expression_values(args))
        return ns.handler(ns)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (_UsageError, SourceError, UnsupportedFormat, OSError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, DomainError) else 1
    except Exception as err:  # exit-code totality: never leak a traceback
        print(f"internal error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


def _constant_value(text: str, flag: str) -> float:
    e = parse(text)
    if ("x",) in e.tape.keys:
        raise _UsageError(f"--{flag} must be a constant expression, got {text!r}")
    try:
        return compile_evaluator(e)(0.0)
    except DomainError as err:
        raise _UsageError(f"--{flag} has no real value: {err}") from None


def _cmd_verify(ns) -> int:
    f = parse(ns.f)
    a = _constant_value(ns.a, "a")
    b = _constant_value(ns.b, "b")
    try:
        iv, cfg = Interval(a, b), Config(ns.eps, ns.samples)
    except ValueError as err:
        raise _UsageError(str(err)) from None
    if ns.plot:
        _renderer(ns.plot)  # an unsupported suffix fails before the verdict runs

    if ns.mode == "rolle":
        result = verify_rolle(f, iv, cfg)
    else:
        result = verify_mvt(f, iv, cfg)

    if ns.plot:
        emit_plot(f, iv, result, ns.plot)
    if ns.json:
        print(render_json(result))
    else:
        _print_human(result, ns.f, iv, ns.mode)
    return 0 if isinstance(result, Applicable) else 2


def _cmd_diff(ns) -> int:
    # differentiate's result is already folded, so no simplify pass runs
    print(format_expr(differentiate(parse(ns.f))))
    return 0


def _cmd_eval(ns) -> int:
    f = parse(ns.f)
    x = _constant_value(ns.x, "x")
    print(repr(compile_evaluator(f)(x)))
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


def render_json(result: MvtResult) -> str:
    """Serialize ``result`` as a single-line JSON object.

    It holds ``status`` first, then the record's fields in slot order: an
    Enum as its value, and a field that is None left out.  Numbers are
    written as the shortest repr that round-trips, so parsing the output
    recovers them bit-exactly, including the sign of zero.
    """
    fields = {"status": _STATUS[result.__class__]}
    for name in result.__slots__:
        value = getattr(result, name)
        if value is not None:
            fields[name] = value.value if isinstance(value, Enum) else value
    return json.dumps(fields, separators=(",", ":"))


def _plot_table(
    f: Expr, iv: Interval, result: MvtResult
) -> tuple[list[float], list[float | None], list[tuple[str, list[float | None]]], tuple[float, float] | None]:
    """The plotted columns over the plot grid on ``iv``: the grid, the
    values of f (None where f is undefined), and, when the result is
    Applicable, the named secant and tangent columns and the point
    (c, f(c)) that the tangent passes through and the SVG marks (else no
    columns and None)."""
    xs = grid(iv, _PLOT_POINTS)
    (fs,) = tabulate(f.tape, [f.slot], xs)
    lines, mark = [], None
    if isinstance(result, Applicable):
        at = compile_evaluator(f)
        mark = (result.c, at(result.c))
        lines = [
            ("secant", _line(at(iv.a), result.m, iv.a, xs)),
            ("tangent", _line(mark[1], result.f_prime_at_c, result.c, xs)),
        ]
    return xs, fs, lines, mark


def _line(y0: float, slope: float, x0: float, xs: list[float]) -> list[float | None]:
    """The line through (x0, y0) with ``slope`` over ``xs``, None where its
    value lies past the float range."""
    # the product can overflow where the sum does not; halving is exact
    return [
        y if math.isfinite(y := y0 + slope * (x - x0))
        else y if math.isfinite(y := 2.0 * (0.5 * y0 + 0.5 * slope * (x - x0))) else None
        for x in xs
    ]


def emit_plot(f: Expr, iv: Interval, result: MvtResult, path: str) -> None:
    """Write plot data for ``f`` on ``iv`` to ``path`` (.csv or .svg).

    CSV: header ``x,f,secant,tangent`` (just ``x,f`` when the result is
    not Applicable), 512 rows, empty cells where f is undefined or a
    line leaves the float range.
    SVG: a self-contained document with one polyline per series, a marker
    at (c, f(c)), and a label showing c.  Writes are atomic
    (write-then-rename), and the file gets the mode ``open(path, "w")``
    would give it: 0o666 less the umask for a new file, its own mode for
    one that exists.

    Each column is formatted once: CSV writes every number as its
    shortest round-trip ``repr``, SVG with 9 significant digits at the
    chosen scale, each x once for all the series.

    f is tabulated on its own tape, and only the cone of its slot is read,
    so whatever else that tape holds costs nothing.
    """
    _atomic_write(path, _renderer(path)(f, iv, result))


def _renderer(path: str) -> Callable[[Expr, Interval, MvtResult], str]:
    """The renderer of ``path``'s suffix in ``_RENDERERS``; raises
    UnsupportedFormat where it has none."""
    suffix = os.path.splitext(path)[1].lower()
    if suffix not in _RENDERERS:
        raise UnsupportedFormat(f"unsupported plot format {suffix!r} (use .csv or .svg)")
    return _RENDERERS[suffix]


def _render_csv(f: Expr, iv: Interval, result: MvtResult) -> str:
    xs, fs, lines, _ = _plot_table(f, iv, result)
    # each column is formatted once, and a row is its cells joined
    columns = [["" if v is None else repr(v) for v in ys] for ys in [xs, fs] + [ys for _, ys in lines]]
    rows = [",".join(["x", "f"] + [name for name, _ in lines]), *map(",".join, zip(*columns))]
    return "\n".join(rows) + "\n"


def _render_svg(f: Expr, iv: Interval, result: MvtResult) -> str:
    xs, fs, lines, mark = _plot_table(f, iv, result)
    series = [("function", fs), *lines]
    ys = [y for _, column in series for y in column if y is not None] or [-1.0, 1.0]
    # where a box extent overflows, draw at a quarter of the size: scaling by
    # a power of two is exact, and then every number written is finite
    for scale in (1.0, 0.25):
        ymin, ymax = scale * min(ys), scale * max(ys)
        xmargin = 0.05 * (scale * iv.width)
        yspan = ymax - ymin
        ymargin = 0.05 * yspan if yspan > 0.0 else 0.05 * max(1.0, abs(ymax))
        left = scale * iv.a - xmargin
        top = -(ymax + ymargin)  # svg y grows downward: plot (x, -y)
        width = scale * iv.width + 2.0 * xmargin
        height = yspan + 2.0 * ymargin
        size = max(width, height)
        radius = 0.012 * size
        cx, cy = (scale * mark[0], -(scale * mark[1])) if mark else (0.0, 0.0)
        if all(map(math.isfinite, (left, top, size, cx + 2.0 * radius, cy - 2.0 * radius))):
            break

    colors = {"function": "#1f77b4", "secant": "#ff7f0e", "tangent": "#2ca02c"}
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{left:.9g} {top:.9g} {width:.9g} {height:.9g}" '
        'width="640" height="480" preserveAspectRatio="none">'
    ]
    # each x is formatted once, and each series joins it to its own y
    xtexts = [f"{scale * x:.9g}," for x in xs]
    for name, column in series:
        pts = " ".join([f"{x}{-(scale * y):.9g}" for x, y in zip(xtexts, column) if y is not None])
        parts.append(
            f'<polyline fill="none" stroke="{colors[name]}" '
            f'stroke-width="{0.004 * size:.3g}" points="{pts}"/>'
        )
    if mark is not None:
        parts.append(f'<circle cx="{cx:.9g}" cy="{cy:.9g}" r="{radius:.3g}" fill="#d62728"/>')
        parts.append(
            f'<text x="{cx + 2.0 * radius:.9g}" y="{cy - 2.0 * radius:.9g}" '
            f'font-size="{0.04 * height:.3g}" fill="#333333">c ≈ {mark[0]:.6g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# the plot formats, by the path's suffix in lower case
_RENDERERS = {".csv": _render_csv, ".svg": _render_svg}


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            mode = None
        # a new name, created with 0o666 so that the kernel applies the umask
        name = os.path.join(directory, f".mvtcheck-{os.urandom(8).hex()}")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException as err:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(err, OSError):
            # name the path asked for, not the temporary file
            raise OSError(err.errno, err.strerror, path) from err
        raise


if __name__ == "__main__":
    main()
