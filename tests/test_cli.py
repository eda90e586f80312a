import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtcheck.cli import (
    MVT_DOES_NOT_APPLY,
    UnsupportedFormat,
    emit_plot,
    plot_series,
    render_json,
    run,
)
from mvtcheck.expr import evaluate, parse
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


def test_verify_missing_flag(capsys):
    assert run(["verify", "--f", "x"]) == 1


def test_verify_eps_and_samples_flags(capsys):
    code = run(
        ["verify", "--f", "sin(x)", "--a", "0", "--b", "pi/2", "--eps", "1e-6", "--samples", "64"]
    )
    assert code == 0


def test_verify_samples_above_cap_is_usage_error(capsys):
    code = run(["verify", "--f", "sin(x)", "--a", "0", "--b", "1", "--samples", str(MAX_SAMPLES + 1)])
    assert code == 1
    assert "samples must be at most" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0


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


# --- render_json ------------------------------------------------------------


def test_render_json_not_applicable():
    result = NotApplicable(Reason.NOT_DIFFERENTIABLE, 0.0)
    parsed = json.loads(render_json(result, parse("abs(x)"), Interval(-1.0, 1.0)))
    assert parsed == {"status": "not_applicable", "reason": "not_differentiable", "witness": 0.0}


def test_render_json_unknown():
    parsed = json.loads(render_json(Unknown("no luck"), parse("x"), Interval(0.0, 1.0)))
    assert parsed == {"status": "unknown", "detail": "no luck"}


def test_render_json_keeps_floats_and_the_sign_of_zero():
    iv = Interval(-1.0, 1.0)
    kink = NotApplicable(Reason.NOT_DIFFERENTIABLE, -0.0)
    witness = json.loads(render_json(kink, parse("abs(x)"), iv))["witness"]
    assert type(witness) is float and math.copysign(1.0, witness) == -1.0
    applicable = Applicable(0.5, 1.0, 1.0, 0.0, 3, Method.BRACKET_BISECT)
    residual = json.loads(render_json(applicable, parse("x"), iv))["residual"]
    assert type(residual) is float and math.copysign(1.0, residual) == 1.0


def test_render_json_is_single_line():
    result = verify_rolle(parse("x^2 - 4*x + 3"), Interval(1.0, 3.0))
    text = render_json(result, parse("x^2 - 4*x + 3"), Interval(1.0, 3.0))
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


def test_csv_grid_and_columns(example1):
    f, iv, result, tmp = example1
    path = tmp / "plot.csv"
    emit_plot(f, iv, result, str(path), n=5)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,f,secant,tangent"
    rows = [line.split(",") for line in lines[1:]]
    xs = [float(r[0]) for r in rows]
    assert xs == [1.0, 1.5, 2.0, 2.5, 3.0]
    assert [float(r[1]) for r in rows] == [0.0, -0.75, -1.0, -0.75, 0.0]


def test_csv_secant_interpolates_endpoints(example1):
    f, iv, result, tmp = example1
    path = tmp / "plot.csv"
    emit_plot(f, iv, result, str(path), n=64)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    fa, fb = evaluate(f, iv.a), evaluate(f, iv.b)
    assert abs(float(rows[0][2]) - fa) <= 1e-12
    assert abs(float(rows[-1][2]) - fb) <= 1e-12


def test_csv_grid_uniform_within_2_ulp(example1):
    f, iv, result, tmp = example1
    path = tmp / "plot.csv"
    emit_plot(f, iv, result, str(path), n=128)
    xs = [float(line.split(",")[0]) for line in path.read_text().splitlines()[1:]]
    assert xs[0] == iv.a and xs[-1] == iv.b
    step = iv.width / 127
    scale = max(abs(iv.a), abs(iv.b))
    for u, v in zip(xs, xs[1:]):
        assert abs((v - u) - step) <= 2.0 * math.ulp(scale)


def test_csv_tangent_and_secant_slopes_agree(example1):
    f, iv, result, tmp = example1
    path = tmp / "plot.csv"
    emit_plot(f, iv, result, str(path), n=256)
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
    f = parse("1/x")
    iv = Interval(-1.0, 1.0)
    path = tmp_path / "plot.csv"
    emit_plot(f, iv, NotApplicable(Reason.NOT_CONTINUOUS, 0.0), str(path), n=3)
    lines = path.read_text().splitlines()
    assert lines[2] == "0.0,"


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


def test_emit_plot_rejects_tiny_grid(example1):
    f, iv, result, tmp = example1
    with pytest.raises(ValueError):
        emit_plot(f, iv, result, str(tmp / "plot.csv"), n=1)


def test_emit_plot_overwrites_atomically(example1):
    f, iv, result, tmp = example1
    path = tmp / "plot.csv"
    emit_plot(f, iv, result, str(path), n=4)
    first = path.read_text()
    emit_plot(f, iv, result, str(path), n=4)
    assert path.read_text() == first
    assert [p.name for p in tmp.iterdir()] == ["plot.csv"]


def test_plot_series_invariants():
    f = parse("1/x")
    iv = Interval(-1.0, 1.0)
    series = plot_series(f, iv, verify_mvt(f, iv), n=33)
    assert [s.name for s in series] == ["function"]
    xs = [x for x, _ in series[0].points]
    assert xs == sorted(xs) and len(set(xs)) == len(xs)
    assert all(math.isfinite(y) for _, y in series[0].points)
    assert len(xs) < 33  # the undefined midpoint was dropped


def test_plot_series_applicable_has_three(example1):
    f, iv, result, _ = example1
    series = plot_series(f, iv, result, n=16)
    assert [s.name for s in series] == ["function", "secant", "tangent"]
    assert all(len(s.points) == 16 for s in series)


def test_verify_with_plot_flag(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code = run(
        ["verify", "--f", "x^2 - 4*x + 3", "--a", "1", "--b", "3", "--mode", "rolle",
         "--plot", str(path)]
    )
    assert code == 0
    assert path.read_text().splitlines()[0] == "x,f,secant,tangent"
