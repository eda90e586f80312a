"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion.
"""

import json
import math
import random
import time

from mvtcheck.calculus import differentiate, simplify
from mvtcheck.cli import MVT_DOES_NOT_APPLY, emit_plot, run
from mvtcheck.expr import (
    Binary,
    Call,
    Constant,
    DomainError,
    Variable,
    compile_evaluator,
    evaluate,
    format_expr,
    parse,
)
from mvtcheck.numeric import Bracket, Interval, bisect
from mvtcheck.theorem import Applicable, verify_mvt, verify_rolle

from oracles import central_difference
from strategies import polynomial


def bisect_math(g, lo, hi, iters=200):
    """Plain bisection over a Python callable, independent of the package."""
    glo = g(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (glo <= 0.0 <= gm) or (gm <= 0.0 <= glo):
            hi = mid
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


def test_criterion_1_example1_rolle(capsys):
    code = run(["verify", "--f", "x^2 - 4*x + 3", "--a", "1", "--b", "3", "--mode", "rolle"])
    assert code == 0

    start = time.perf_counter()
    result = verify_rolle(parse("x^2 - 4*x + 3"), Interval(1.0, 3.0))
    elapsed = time.perf_counter() - start
    assert isinstance(result, Applicable)
    assert abs(result.c - 2.0) <= 1e-8
    assert result.residual <= 1e-10
    assert elapsed < 0.050
    with capsys.disabled():
        print(
            f"\nPASS: criterion 1 - example 1 rolle: c = {result.c!r}, "
            f"residual = {result.residual:.3e}, {elapsed * 1e3:.1f} ms"
        )


def test_criterion_2_example2_mvt(capsys):
    code = run(["verify", "--f", "sin(x)", "--a", "0", "--b", "pi/2", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert parsed["status"] == "applicable"
    c, m = parsed["c"], parsed["m"]
    assert abs(m - 2.0 / math.pi) <= 1e-15
    assert abs(math.cos(c) - 2.0 / math.pi) <= 1e-8
    oracle = bisect_math(lambda x: math.cos(x) - 2.0 / math.pi, 0.0, math.pi / 2)
    assert abs(c - oracle) <= 1e-8
    with capsys.disabled():
        print(f"\nPASS: criterion 2 - example 2 mvt: c = {c!r} vs oracle {oracle!r}")


def test_criterion_3_derivative_formulas(capsys):
    text = format_expr(simplify(differentiate(parse("x^2-4*x+3"))))
    reparsed = parse(text)
    for i in range(32):
        x = -3.0 + i * 0.25
        want = 2.0 * x - 4.0
        assert abs(evaluate(reparsed, x) - want) <= 1e-12 * max(1.0, abs(want))

    dsin = differentiate(parse("sin(x)"))
    assert dsin == Call("cos", Variable())
    for i in range(32):
        x = -math.pi + i * (2.0 * math.pi / 31.0)
        want = math.cos(x)
        assert abs(evaluate(dsin, x) - want) <= 1e-12 * max(1.0, abs(want))
    with capsys.disabled():
        print(f"\nPASS: criterion 3 - derivative formulas: d/dx quadratic = {text}, d/dx sin = cos")


def test_criterion_4_applicability_triage(capsys):
    fixtures = [
        (["verify", "--f", "abs(x)", "--a", "-1", "--b", "1"], "not_differentiable"),
        (["verify", "--f", "tan(x)", "--a", "0", "--b", "2"], "not_continuous"),
        (["verify", "--f", "1/x", "--a", "-1", "--b", "1"], None),
    ]
    witnesses = {}
    for args, reason in fixtures:
        code = run(args)
        out = capsys.readouterr().out
        assert code == 2
        assert MVT_DOES_NOT_APPLY in out
        if reason is not None:
            assert reason in out
        code = run(args + ["--json"])
        parsed = json.loads(capsys.readouterr().out)
        assert code == 2
        assert parsed["status"] == "not_applicable"
        witnesses[args[2]] = parsed.get("witness")

    assert abs(witnesses["abs(x)"]) <= 1e-9
    assert abs(witnesses["tan(x)"] - math.pi / 2) <= 1e-6
    with capsys.disabled():
        print(
            f"\nPASS: criterion 4 - triage: abs witness {witnesses['abs(x)']!r}, "
            f"tan witness {witnesses['tan(x)']!r}, 1/x not applicable"
        )


def test_criterion_5_polynomial_suite(capsys):
    rng = random.Random(20260808)
    cases = []
    for _ in range(200):
        degree = rng.randint(0, 5)
        coeffs = [rng.uniform(-10.0, 10.0) for _ in range(degree + 1)]
        a = rng.uniform(-5.0, 5.0)
        width = rng.uniform(0.1, 10.0)
        cases.append((polynomial(coeffs), Interval(a, a + width)))

    start = time.perf_counter()
    results = [verify_mvt(f, iv) for f, iv in cases]
    elapsed = time.perf_counter() - start

    worst = 0.0
    for (f, iv), result in zip(cases, results):
        assert isinstance(result, Applicable), (format_expr(f), iv)
        assert abs(result.f_prime_at_c - result.m) <= 1e-8
        worst = max(worst, result.residual)
    assert elapsed < 2.0
    with capsys.disabled():
        print(
            f"\nPASS: criterion 5 - 200 polynomials applicable, worst residual "
            f"{worst:.3e}, {elapsed:.3f} s"
        )


def _random_smooth(rng, depth):
    # polynomials plus sin/cos/exp of affine arguments: constant-coefficient
    # compositions keep the third derivative small enough for the
    # finite-difference oracle at h = 1e-5
    roll = rng.random()
    if depth == 0 or roll < 0.30:
        pick = rng.random()
        if pick < 0.40:
            return Variable()
        if pick < 0.60:
            return Constant(round(rng.uniform(-3.0, 3.0), 3))
        affine = Binary(
            "+",
            Binary("*", Constant(round(rng.uniform(-1.5, 1.5), 3)), Variable()),
            Constant(round(rng.uniform(-2.0, 2.0), 3)),
        )
        return Call(rng.choice(("sin", "cos", "exp")), affine)
    if roll < 0.55:
        return Binary("+", _random_smooth(rng, depth - 1), _random_smooth(rng, depth - 1))
    if roll < 0.75:
        return Binary("-", _random_smooth(rng, depth - 1), _random_smooth(rng, depth - 1))
    return Binary("*", _random_smooth(rng, depth - 1), _random_smooth(rng, depth - 1))


def test_criterion_6_oracle_agreement(capsys):
    rng = random.Random(42)
    points = [-1.8 + i * (3.6 / 15.0) for i in range(16)]
    h = 1e-5
    accepted = 0
    attempts = 0
    worst = 0.0
    while accepted < 100:
        attempts += 1
        assert attempts < 5000, "generator failed to produce enough admissible cases"
        e = _random_smooth(rng, 3)
        d = compile_evaluator(differentiate(e))
        fe = compile_evaluator(e)
        try:
            rows = [(d(x), central_difference(fe, x, h), fe(x)) for x in points]
        except DomainError:
            continue
        if any(abs(fx) > 1e4 or abs(sym) > 1e4 for sym, _, fx in rows):
            continue
        for sym, fd, _ in rows:
            rel = abs(sym - fd) / max(1.0, abs(sym))
            worst = max(worst, rel)
            assert rel <= 1e-5, format_expr(e)
        accepted += 1
    with capsys.disabled():
        print(
            f"\nPASS: criterion 6 - oracle agreement on {accepted} expressions "
            f"({attempts} sampled), worst relative error {worst:.3e}"
        )


def test_criterion_7_bisection_contract(capsys):
    g = lambda x: x * x - 2.0
    root, state = bisect(g, Bracket(0.0, 2.0, g(0.0), g(2.0)), 1e-12)
    assert abs(root - math.sqrt(2.0)) <= 1e-12
    assert state.iterations <= 42
    with capsys.disabled():
        print(
            f"\nPASS: criterion 7 - bisection: root = {root!r} "
            f"({state.iterations} iterations, bound 42)"
        )


def test_criterion_8_rolle_mvt_consistency(capsys):
    rng = random.Random(7)
    for _ in range(50):
        degree = rng.randint(0, 3)
        coeffs = [rng.uniform(-5.0, 5.0) for _ in range(degree + 1)]
        a = rng.uniform(-3.0, 3.0)
        b = a + rng.uniform(0.5, 5.0)
        # p(x) * (x - a) * (x - b): exactly zero at both endpoints
        f = Binary(
            "*",
            polynomial(coeffs),
            Binary(
                "*",
                Binary("-", Variable(), Constant(a)),
                Binary("-", Variable(), Constant(b)),
            ),
        )
        assert evaluate(f, a) == 0.0 and evaluate(f, b) == 0.0
        iv = Interval(a, b)
        rolle = verify_rolle(f, iv)
        mvt = verify_mvt(f, iv)
        assert isinstance(rolle, Applicable)
        assert isinstance(mvt, Applicable)
        assert abs(rolle.m) <= 1e-12
        assert abs(mvt.m) <= 1e-12
    with capsys.disabled():
        print("\nPASS: criterion 8 - rolle/mvt consistency on 50 adjusted polynomials")


def test_criterion_9_plot_emission(capsys, tmp_path):
    f = parse("x^2 - 4*x + 3")
    iv = Interval(1.0, 3.0)
    result = verify_rolle(f, iv)
    assert isinstance(result, Applicable)

    csv_path = tmp_path / "example1.csv"
    emit_plot(f, iv, result, str(csv_path))
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,f,secant,tangent"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 512
    xs = [float(r[0]) for r in rows]
    assert xs[0] == 1.0 and xs[-1] == 3.0
    for r in rows:
        x, fx = float(r[0]), float(r[1])
        assert abs(fx - evaluate(f, x)) <= 1e-12

    svg_path = tmp_path / "example1.svg"
    emit_plot(f, iv, result, str(svg_path))
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 3
    assert svg.count("<circle") == 1
    with capsys.disabled():
        print("\nPASS: criterion 9 - plot emission: 512-row CSV and 3-polyline SVG")
