import json
import math
import os
import pathlib
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtcheck import cli
from mvtcheck.cli import (
    MVT_DOES_NOT_APPLY,
    UnsupportedFormat,
    emit_plot,
    render_json,
    run,
)
from mvtcheck.calculus import differentiate
from mvtcheck.expr import DomainError, Tape, evaluate, format_expr, parse
from mvtcheck.numeric import Interval
from mvtcheck.theorem import (
    MAX_SAMPLES,
    Applicable,
    Method,
    NotApplicable,
    Reason,
    Unknown,
    verify_mvt,
    verify_rolle,
)

ARCCOS_2_OVER_PI = 0.8806892354203566


def line_value(output: str, prefix: str) -> float:
    for line in output.splitlines():
        if line.startswith(prefix):
            return float(line.split("≈")[-1])
    raise AssertionError(f"no line starting with {prefix!r} in {output!r}")


# --- the README -------------------------------------------------------------


def readme_commands() -> list[list[str]]:
    # the arguments of each ``mvtcheck`` line of the README's "Command line" block
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("mvtcheck ")]


def test_readme_command_line_block_runs_as_written(capsys, tmp_path, monkeypatch):
    # one line writes mvt.svg into the working directory
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 7, "a new README example needs its exit code here"
    codes, outputs = [], []
    for args in commands:
        codes.append(run(args))
        outputs.append(capsys.readouterr().out.splitlines())
    assert codes == [0, 0, 2, 0, 0, 0, 0]
    rolle, sine, kink = outputs[:3]
    assert "c ≈ 2" in rolle
    # c ≈ 0.8806892354 and m ≈ 0.6366197724
    assert f"c ≈ {ARCCOS_2_OVER_PI:.10g}" in sine and f"m ≈ {2 / math.pi:.10g}" in sine
    assert "reason: not_differentiable" in kink
    assert (tmp_path / "mvt.svg").is_file()


# --- verify -----------------------------------------------------------------


def test_verify_rolle_example(capsys):
    code = run(["verify", "--f", "x^2 - 4*x + 3", "--a", "1", "--b", "3", "--mode", "rolle"])
    out = capsys.readouterr().out
    assert code == 0
    assert "The Mean Value Theorem applies" in out
    assert abs(line_value(out, "c ≈") - 2.0) <= 1e-8
    assert line_value(out, "m ≈") == 0.0


def test_verify_mvt_sine_example(capsys):
    code = run(["verify", "--f", "sin(x)", "--a", "0", "--b", "pi/2"])
    out = capsys.readouterr().out
    assert code == 0
    assert abs(line_value(out, "c ≈") - ARCCOS_2_OVER_PI) <= 1e-9
    assert abs(line_value(out, "m ≈") - 2.0 / math.pi) <= 1e-9


def test_verify_abs_not_applicable(capsys):
    code = run(["verify", "--f", "abs(x)", "--a", "-1", "--b", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert MVT_DOES_NOT_APPLY in out
    assert "not_differentiable" in out


def test_verify_unknown_exits_2(capsys):
    code = run(["verify", "--f", "sqrt(x*x)", "--a", "-1", "--b", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert "unknown" in out


def test_verify_interval_without_an_inner_float_exits_2(capsys):
    code = run(["verify", "--f", "x^2", "--a", "0", "--b", "5e-324", "--json"])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["status"] == "unknown"


def test_verify_parse_error(capsys):
    code = run(["verify", "--f", "x +", "--a", "0", "--b", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "position" in err


def test_verify_rejects_variable_endpoint(capsys):
    code = run(["verify", "--f", "x", "--a", "x", "--b", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "constant expression" in err


def test_verify_rejects_bad_interval(capsys):
    code = run(["verify", "--f", "x", "--a", "2", "--b", "1"])
    assert code == 1
    assert "a < b" in capsys.readouterr().err


def test_verify_rejects_unreal_endpoint(capsys):
    code = run(["verify", "--f", "x", "--a", "ln(0-1)", "--b", "1"])
    assert code == 1
    assert "no real value" in capsys.readouterr().err


def test_verify_overflowing_interval_width_is_usage_error(capsys):
    code = run(["verify", "--f", "x", "--a=-1e308", "--b=1e308"])
    assert code == 1
    assert capsys.readouterr().err == "error: interval width overflows\n"


def test_verify_between_huge_endpoints(capsys):
    # a + b overflows: every midpoint must still be finite
    code = run(["verify", "--f", "sin(x)", "--a", "1e308", "--b", "1.7e308", "--json"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["detail"].startswith("sign change located but residual")
    code = run(["verify", "--f", "x", "--a", "1e308", "--b", "1.7e308", "--json"])
    assert code == 0
    parsed = json.loads(capsys.readouterr().out)
    assert (parsed["method"], parsed["c"]) == ("degenerate_constant", 1.35e308)


def test_verify_two_ulps_wide_with_two_samples(capsys):
    # both ends of the root scan's inset round to the one float inside
    # (a, b): that float is c, where it meets the residual bound
    code = run(["verify", "--f", "x^2", "--a", "1.0000000000000002", "--b", "1.0000000000000007",
                "--samples", "2", "--json"])
    assert code == 0
    parsed = json.loads(capsys.readouterr().out)
    assert (parsed["method"], parsed["c"]) == ("residual_min", 1.0000000000000004)


def test_verify_slope_whose_rise_overflows(capsys):
    # f(b) - f(a) = 2e308 overflows; the slope 1e307 does not
    code = run(["verify", "--f", "1e307*x", "--a", "-10", "--b", "10", "--json"])
    assert code == 0
    parsed = json.loads(capsys.readouterr().out)
    assert (parsed["method"], parsed["m"], parsed["c"]) == ("degenerate_constant", 1e307, 0.0)


# values beginning with "-", which argparse alone takes for option names
def test_verify_function_beginning_with_minus(capsys):
    code = run(["verify", "--f", "-x^2", "--a", "0", "--b", "1", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["m"] == -1.0


def test_verify_endpoint_beginning_with_minus(capsys):
    code = run(["verify", "--f", "sin(x)", "--a", "-pi", "--b", "pi", "--json"])
    assert code == 0
    reference = verify_mvt(parse("sin(x)"), Interval(-math.pi, math.pi))
    assert json.loads(capsys.readouterr().out)["c"] == reference.c


def test_eval_point_beginning_with_minus(capsys):
    code = run(["eval", "--f", "x", "--x", "-pi/2"])
    assert code == 0
    assert float(capsys.readouterr().out) == -math.pi / 2


def test_verify_flat_sum_of_400_terms(capsys):
    code = run(["verify", "--f", "+".join(["x"] * 400), "--a", "0", "--b", "1", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["m"] == 400.0


@pytest.mark.parametrize("command", ["verify", "eval"])
def test_flat_sum_of_5000_terms(command, capsys):
    # eval and every stage of verify read f on a tape, which no length of a
    # flat sum limits
    f = "+".join(["x"] * 5000)
    if command == "eval":
        assert run(["eval", "--f", f, "--x", "1"]) == 0
        assert capsys.readouterr() == ("5000.0\n", "")
        return
    assert run(["verify", "--f", f, "--a", "0", "--b", "1", "--json"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["m"] == 5000.0
    assert err == ""


def test_diff_of_a_flat_sum_of_5000_terms(capsys):
    # the derivative is folded and taken slot by slot on a tape, which no
    # length of a flat sum limits, and it folds to one constant
    assert run(["diff", "--f", "+".join(["x"] * 5000)]) == 0
    assert capsys.readouterr() == ("5000\n", "")


def test_constant_flags_of_1000_terms(capsys):
    # --a, --b and --x are evaluated on their tape, which no length of a
    # flat sum limits
    zero = "+".join(["0"] * 1000)
    assert run(["verify", "--f", "x", "--a", zero, "--b", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["m"] == 1.0
    assert run(["eval", "--f", "x", "--x", "+".join(["1"] * 1000)]) == 0
    assert capsys.readouterr().out == "1000.0\n"


def _nested_command(command, opener, levels):
    f = opener * levels + "x" + ")" * levels
    return {
        "verify": ["verify", "--f", f, "--a", "0", "--b", "1", "--json"],
        "diff": ["diff", "--f", f],
        "eval": ["eval", "--f", f, "--x", "0.5"],
    }[command]


@pytest.mark.parametrize("opener", ["(", "sin("])
@pytest.mark.parametrize("command", ["verify", "diff", "eval"])
def test_nests_of_300_levels_run(command, opener, capsys):
    # the parser, the formatter and every evaluator keep explicit stacks,
    # so no depth of nesting limits a command
    assert run(_nested_command(command, opener, 300)) == 0
    out, err = capsys.readouterr()
    assert out and err == ""


@pytest.mark.parametrize("module", ["mvtcheck", "mvtcheck.cli"])
def test_runs_as_a_module(module):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", module, "verify", "--f", "x", "--a", "0", "--b", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "The Mean Value Theorem applies" in proc.stdout


def test_verify_missing_flag(capsys):
    assert run(["verify", "--f", "x"]) == 1


def test_verify_eps_and_samples_flags(capsys):
    code = run(
        ["verify", "--f", "sin(x)", "--a", "0", "--b", "pi/2", "--eps", "1e-6", "--samples", "64"]
    )
    assert code == 0


@pytest.mark.parametrize("eps", ["inf", "1e999", "nan"])
def test_verify_non_finite_eps_is_usage_error(eps, capsys):
    code = run(["verify", "--f", "x", "--a", "0", "--b", "1", "--eps", eps])
    assert code == 1
    assert capsys.readouterr().err == "error: eps_c must be positive and finite\n"


def test_verify_samples_above_cap_is_usage_error(capsys):
    code = run(["verify", "--f", "sin(x)", "--a", "0", "--b", "1", "--samples", str(MAX_SAMPLES + 1)])
    assert code == 1
    assert "samples must be at most" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0


# help, usage errors and one command of each kind
_REPEATED_ARGV = [
    ["--help"],
    ["verify", "--help"],
    ["verify", "--f", "x^2"],
    ["frobnicate"],
    ["verify", "--f", "sin(x)", "--a", "0", "--b", "pi/2", "--json"],
    ["verify", "--f", "-x^2", "--a", "-1", "--b", "2", "--mode", "rolle"],
    ["diff", "--f", "x^3"],
    ["eval", "--f", "x^2", "--x", "3"],
]


def test_repeated_runs_reuse_one_parser_and_answer_alike(capsys):
    def outcomes():
        seen = []
        for argv in _REPEATED_ARGV:
            code = run(argv)
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen

    cli._build_parser.cache_clear()
    first = outcomes()
    second = outcomes()
    assert second == first
    assert [code for code, _, _ in first] == [0, 0, 1, 1, 0, 2, 0, 0]
    assert "usage: mvtcheck" in first[0][1] and "error:" in first[2][2]
    assert cli._build_parser.cache_info().misses == 1


def test_verify_json_round_trip(capsys):
    code = run(["verify", "--f", "sin(x)", "--a", "0", "--b", "pi/2", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    reference = verify_mvt(parse("sin(x)"), Interval(0.0, math.pi / 2))
    assert parsed["status"] == "applicable"
    assert parsed["c"] == reference.c
    assert parsed["m"] == reference.m
    assert parsed["residual"] == reference.residual
    assert parsed["method"] == "bracket_bisect"


# --- diff / eval ------------------------------------------------------------


def test_diff_prints_derivative(capsys):
    code = run(["diff", "--f", "x^2 - 4*x + 3"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    d = parse(out)
    for x in (-1.0, 0.0, 2.5):
        assert evaluate(d, x) == 2.0 * x - 4.0


def test_eval_at_constant_expression(capsys):
    code = run(["eval", "--f", "sin(x)", "--x", "pi/2"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert float(out) == 1.0


def test_eval_domain_error_exits_2(capsys):
    code = run(["eval", "--f", "ln(x)", "--x", "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "non-positive" in err


@given(
    st.lists(
        st.sampled_from(
            [
                "verify", "diff", "eval", "--f", "--a", "--b", "--x", "--mode",
                "rolle", "x", "sin(x)", "0", "1", "(", "1e999", "--json", "bogus",
            ]
        ),
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_exit_code_totality(args):
    assert run(args) in (0, 1, 2)


def test_an_error_while_the_arguments_are_parsed_is_an_internal_error(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("broken join")

    monkeypatch.setattr(cli, "_join_expression_values", broken)
    assert run(["eval", "--f", "x", "--x", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: broken join\n"


# --- render_json ------------------------------------------------------------


def test_render_json_not_applicable():
    result = NotApplicable(Reason.NOT_DIFFERENTIABLE, 0.0)
    parsed = json.loads(render_json(result))
    assert parsed == {"status": "not_applicable", "reason": "not_differentiable", "witness": 0.0}


def test_render_json_unknown():
    parsed = json.loads(render_json(Unknown("no luck")))
    assert parsed == {"status": "unknown", "detail": "no luck"}


# the whole line of each result, so a reordered or renamed slot fails here
@pytest.mark.parametrize(
    "result, text",
    [
        (
            Applicable(2.0, 0.5, 0.5, 0.0, 7, Method.BRACKET_BISECT),
            '{"status":"applicable","c":2.0,"m":0.5,"f_prime_at_c":0.5,'
            '"residual":0.0,"iterations":7,"method":"bracket_bisect"}',
        ),
        (
            NotApplicable(Reason.NOT_CONTINUOUS, -0.25),
            '{"status":"not_applicable","reason":"not_continuous","witness":-0.25}',
        ),
        (
            NotApplicable(Reason.ROLLE_PRECONDITION_FAILED),
            '{"status":"not_applicable","reason":"rolle_precondition_failed"}',
        ),
        (Unknown("bisection failed"), '{"status":"unknown","detail":"bisection failed"}'),
    ],
)
def test_render_json_text(result, text):
    assert render_json(result) == text


def test_render_json_keeps_floats_and_the_sign_of_zero():
    kink = NotApplicable(Reason.NOT_DIFFERENTIABLE, -0.0)
    witness = json.loads(render_json(kink))["witness"]
    assert type(witness) is float and math.copysign(1.0, witness) == -1.0
    applicable = Applicable(0.5, 1.0, 1.0, 0.0, 3, Method.BRACKET_BISECT)
    residual = json.loads(render_json(applicable))["residual"]
    assert type(residual) is float and math.copysign(1.0, residual) == 1.0


def test_render_json_of_an_integer_interval_keeps_a_float_witness():
    result = verify_rolle(parse("1/x"), Interval(0, 1))
    assert result == NotApplicable(Reason.UNDEFINED, 0.0)
    assert render_json(result) == '{"status":"not_applicable","reason":"undefined","witness":0.0}'


def test_render_json_is_single_line():
    result = verify_rolle(parse("x^2 - 4*x + 3"), Interval(1.0, 3.0))
    text = render_json(result)
    assert "\n" not in text
    assert json.loads(text)["c"] == result.c


# --- emit_plot --------------------------------------------------------------


@pytest.fixture
def example1(tmp_path):
    f = parse("x^2 - 4*x + 3")
    iv = Interval(1.0, 3.0)
    result = verify_rolle(f, iv)
    assert isinstance(result, Applicable)
    return f, iv, result, tmp_path


def test_csv_grid_and_columns(tmp_path):
    # 512 points on [-255, 256] are the integers, one apart
    f = parse("x^2 - 4*x + 3")
    iv = Interval(-255.0, 256.0)
    path = tmp_path / "plot.csv"
    emit_plot(f, iv, verify_mvt(f, iv), str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,f,secant,tangent"
    rows = [line.split(",") for line in lines[1:]]
    xs = [float(r[0]) for r in rows]
    assert xs == [float(k) for k in range(-255, 257)]
    assert [float(r[1]) for r in rows] == [x * x - 4.0 * x + 3.0 for x in xs]


def test_csv_secant_interpolates_endpoints(example1):
    f, iv, result, tmp = example1
    path = tmp / "plot.csv"
    emit_plot(f, iv, result, str(path))
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    fa, fb = evaluate(f, iv.a), evaluate(f, iv.b)
    assert abs(float(rows[0][2]) - fa) <= 1e-12
    assert abs(float(rows[-1][2]) - fb) <= 1e-12


def test_csv_grid_uniform_within_2_ulp(example1):
    f, iv, result, tmp = example1
    path = tmp / "plot.csv"
    emit_plot(f, iv, result, str(path))
    xs = [float(line.split(",")[0]) for line in path.read_text().splitlines()[1:]]
    assert len(xs) == 512
    assert xs[0] == iv.a and xs[-1] == iv.b
    step = iv.width / 511
    scale = max(abs(iv.a), abs(iv.b))
    for u, v in zip(xs, xs[1:]):
        assert abs((v - u) - step) <= 2.0 * math.ulp(scale)


def test_csv_tangent_and_secant_slopes_agree(example1):
    f, iv, result, tmp = example1
    path = tmp / "plot.csv"
    emit_plot(f, iv, result, str(path))
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    xs = [float(r[0]) for r in rows]
    secant = [float(r[2]) for r in rows]
    tangent = [float(r[3]) for r in rows]
    worst = max(
        abs((t1 - t0) - (s1 - s0)) / (x1 - x0)
        for x0, x1, s0, s1, t0, t1 in zip(xs, xs[1:], secant, secant[1:], tangent, tangent[1:])
    )
    assert worst <= 1e-9 * max(1.0, abs(result.m))


def test_csv_not_applicable_has_two_columns(tmp_path):
    f = parse("abs(x)")
    iv = Interval(-1.0, 1.0)
    result = verify_mvt(f, iv)
    path = tmp_path / "plot.csv"
    emit_plot(f, iv, result, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,f"
    assert all(line.count(",") == 1 for line in lines)


def test_csv_blank_cell_where_undefined(tmp_path):
    # the grid on [-255, 256] holds x = 0.0, the 256th point
    f = parse("1/x")
    iv = Interval(-255.0, 256.0)
    path = tmp_path / "plot.csv"
    emit_plot(f, iv, NotApplicable(Reason.NOT_CONTINUOUS, 0.0), str(path))
    lines = path.read_text().splitlines()
    assert lines[256] == "0.0,"
    assert [line for line in lines[1:] if line.endswith(",")] == ["0.0,"]


def test_csv_blank_cell_where_a_math_function_raises(tmp_path):
    # exp(800*x) overflows right of 0.887, so evaluate raises there: the f
    # cell is blank at exactly those grid points, and holds evaluate's
    # value at every other
    f = parse("sin(exp(800*x))")
    iv = Interval(0.0, 1.0)
    path = tmp_path / "plot.csv"
    emit_plot(f, iv, verify_mvt(f, iv), str(path))
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert len(rows) == 512
    blank = 0
    for x, cell in ((float(r[0]), r[1]) for r in rows):
        try:
            expected = repr(evaluate(f, x))
        except DomainError:
            expected = ""
            blank += 1
        assert cell == expected, x
    assert blank > 0


def test_csv_blank_cell_where_a_line_leaves_the_float_range(tmp_path, capsys):
    path = tmp_path / "plot.csv"
    assert run(["verify", "--f", "1.6e308*cos(x)", "--a", "0", "--b", "2", "--plot", str(path)]) == 0
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert "inf" not in path.read_text()
    assert all(secant != "" for _, _, secant, _ in rows)
    assert rows[0][3] == "" and rows[-1][3] != ""


def test_svg_structure(example1):
    f, iv, result, tmp = example1
    path = tmp / "plot.svg"
    emit_plot(f, iv, result, str(path))
    text = path.read_text()
    assert text.count("<polyline") == 3
    assert text.count("<circle") == 1
    assert f"c ≈ {result.c:.6g}" in text
    assert "viewBox" in text


def test_svg_not_applicable_single_series(tmp_path):
    f = parse("abs(x)")
    iv = Interval(-1.0, 1.0)
    path = tmp_path / "plot.svg"
    emit_plot(f, iv, verify_mvt(f, iv), str(path))
    text = path.read_text()
    assert text.count("<polyline") == 1
    assert text.count("<circle") == 0


def test_emit_plot_rejects_unknown_suffix(example1):
    f, iv, result, tmp = example1
    with pytest.raises(UnsupportedFormat):
        emit_plot(f, iv, result, str(tmp / "plot.png"))


def test_emit_plot_overwrites_atomically(example1):
    f, iv, result, tmp = example1
    path = tmp / "plot.csv"
    emit_plot(f, iv, result, str(path))
    first = path.read_text()
    emit_plot(f, iv, result, str(path))
    assert path.read_text() == first
    assert [p.name for p in tmp.iterdir()] == ["plot.csv"]


SERIES_COLORS = {"#1f77b4": "function", "#ff7f0e": "secant", "#2ca02c": "tangent"}


def svg_series(path) -> list[tuple[str, list[tuple[float, float]]]]:
    """Each polyline of an emitted SVG: its series name and its (x, y) points."""
    series = []
    for line in path.read_text().splitlines():
        if line.startswith("<polyline"):
            color = line.split('stroke="', 1)[1].split('"', 1)[0]
            pts = line.split('points="', 1)[1].split('"', 1)[0].split()
            series.append((SERIES_COLORS[color], [tuple(map(float, p.split(","))) for p in pts]))
    return series


def test_plot_series_invariants(tmp_path):
    f = parse("1/x")
    iv = Interval(-255.0, 256.0)
    path = tmp_path / "plot.svg"
    emit_plot(f, iv, verify_mvt(f, iv), str(path))
    series = svg_series(path)
    assert [name for name, _ in series] == ["function"]
    xs = [x for x, _ in series[0][1]]
    assert xs == sorted(xs) and len(set(xs)) == len(xs)
    assert all(math.isfinite(y) for _, y in series[0][1])
    assert len(xs) == 511  # the undefined point x = 0 was dropped


def test_plot_series_applicable_has_three(example1):
    f, iv, result, tmp = example1
    path = tmp / "plot.svg"
    emit_plot(f, iv, result, str(path))
    series = svg_series(path)
    assert [name for name, _ in series] == ["function", "secant", "tangent"]
    assert all(len(points) == 512 for _, points in series)


@pytest.mark.parametrize(
    "argv",
    [["--f", "x", "--a=-1e308", "--b=6.5e307"], ["--f", "1e307*x", "--a", "-10", "--b", "10"],
     ["--f", "1.6e308*cos(x)", "--a", "0", "--b", "2"]],
)
def test_svg_of_huge_values_writes_finite_numbers(argv, tmp_path, capsys):
    # the box extents overflow at full size; in the last case the tangent
    # also leaves the float range near x = 0
    path = tmp_path / "plot.svg"
    assert run(["verify", *argv, "--plot", str(path)]) == 0
    text = path.read_text()
    assert "inf" not in text and "nan" not in text
    assert text.count("<polyline") == 3
    assert text.count("<circle") == 1
    assert all(math.isfinite(y) for _, points in svg_series(path) for _, y in points)


def test_verify_with_plot_flag(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code = run(
        ["verify", "--f", "x^2 - 4*x + 3", "--a", "1", "--b", "3", "--mode", "rolle",
         "--plot", str(path)]
    )
    assert code == 0
    assert path.read_text().splitlines()[0] == "x,f,secant,tangent"


# x^3 twice, and no tan, whose pole hazard would key a cos node of its own
SHARED_F = "x^3 - 2*x + sin(x)*x^3"


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--f", SHARED_F, "--a", "0", "--b", "2", "--plot", "plot.csv"],
        ["verify", "--f", "x^2 - 4*x + 3", "--a", "1", "--b", "3", "--mode", "rolle", "--plot", "plot.svg"],
        ["diff", "--f", SHARED_F],
        ["eval", "--f", SHARED_F, "--x", "pi/4"],
    ],
    ids=["verify-csv", "rolle-svg", "diff", "eval"],
)
def test_commands_read_f_on_the_tape_it_was_parsed_onto(args, tmp_path, monkeypatch, capsys):
    # each expression is parsed once, f first, and the verdict, its plot,
    # the derivative and the evaluation read f on the tape parse put it
    # on.  The outputs are those of the library calls
    monkeypatch.chdir(tmp_path)
    handles, reads = [], []

    def parsed(text):
        handles.append(parse(text))
        return handles[-1]

    def recorded(fn):
        def call(first, *rest):
            reads.append(first if isinstance(first, Tape) else first.tape)
            return fn(first, *rest)

        return call

    monkeypatch.setattr(cli, "parse", parsed)
    for name in ("differentiate", "compile_evaluator", "tabulate", "verify_mvt", "verify_rolle"):
        monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
    code = run(args)
    monkeypatch.undo()
    assert [format_expr(h) for h in handles[:1]] == [format_expr(parse(args[2]))]
    assert len(handles) == sum(arg in ("--f", "--a", "--b", "--x") for arg in args)
    assert handles[0].tape in reads and all(any(t is h.tape for h in handles) for t in reads)
    out = capsys.readouterr().out
    f = parse(args[2])
    if args[0] == "diff":
        assert out == format_expr(differentiate(f)) + "\n"
    elif args[0] == "eval":
        assert out == repr(evaluate(f, math.pi / 4)) + "\n"
    else:
        iv = Interval(float(args[4]), float(args[6]))
        result = verify_rolle(f, iv) if "rolle" in args else verify_mvt(f, iv)
        path = tmp_path / ("own" + os.path.splitext(args[-1])[1])
        emit_plot(f, iv, result, str(path))
        assert isinstance(result, Applicable)
        assert (tmp_path / args[-1]).read_text() == path.read_text()
    assert code == 0


@pytest.mark.parametrize("target", ["missing/p.csv", "d.csv"], ids=["missing-directory", "directory"])
def test_unwritable_plot_names_the_requested_path(target, tmp_path, capsys):
    # the error names the path asked for, not the temporary file written
    # first, and the temporary file is gone
    (tmp_path / "d.csv").mkdir()
    path = tmp_path / target
    assert run(["verify", "--f", "x", "--a", "0", "--b", "1", "--plot", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{str(path)!r}" in err and ".mvtcheck-" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["d.csv"]
