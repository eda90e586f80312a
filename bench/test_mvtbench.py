"""Tests of the benchmark itself: seeded generators, the oracle, tracing."""

import json
import math
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]

from mvtbench import gen, oracle  # noqa: E402
from mvtbench.measure import Runner  # noqa: E402
from mvtbench.tracer import METRICS, Tracer  # noqa: E402


def _fingerprint(cases):
    rows = []
    for c in cases:
        probe = c.a + 0.37 * (c.b - c.a)
        rows.append((c.family, c.text, c.a, c.b, c.hazards, c.rolle, c.argv, c.x,
                     oracle.value(c.f, probe)))
    return rows


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = _fingerprint(gen.generate(workload, 11))
    assert first == _fingerprint(gen.generate(workload, 11))
    assert first != _fingerprint(gen.generate(workload, 12))
    assert len(first) >= 200


def test_cli_stress_tail_is_two_percent():
    cases = gen.generate("cli", 3)
    stress = [c for c in cases if c.family.startswith("stress:")]
    assert len(stress) / len(cases) == 0.02


def _sine_case():
    return gen.Case("sin", "sin(x)", math.sin, 0.0, math.pi / 2)


def test_oracle_accepts_the_mvt_point_and_rejects_a_perturbed_c():
    case = _sine_case()
    m = 2.0 / math.pi
    c = math.acos(m)
    assert oracle.judge(case, {"status": "applicable", "c": c, "m": m}) is None
    moved = c + 0.01 * (case.b - case.a)
    assert "central difference" in oracle.judge(case, {"status": "applicable", "c": moved, "m": m})
    assert oracle.judge(case, {"status": "applicable", "c": c, "m": m * 1.001}) is not None
    assert oracle.judge(case, {"status": "applicable", "c": case.b + 0.1, "m": m}) is not None


def test_oracle_checks_witness_and_reason():
    kink = gen.Case("abs", "abs(x - 0.3)", lambda x: abs(x - 0.3), -1.0, 1.0,
                    (gen.Hazard(0.3, 0.3, False),))
    good = {"status": "not_applicable", "reason": "not_differentiable", "witness": 0.3}
    assert oracle.judge(kink, good) is None
    assert "not near" in oracle.judge(kink, {**good, "witness": 0.32})
    assert "reason" in oracle.judge(kink, {**good, "reason": "not_continuous"})
    assert oracle.judge(kink, {"status": "applicable", "c": 0.1, "m": 0.0}) is not None
    assert oracle.judge(kink, {"status": "unknown"}) is None
    assert oracle.judge(_sine_case(), {**good, "witness": 0.5}) is not None


def test_expression_reader_follows_the_grammar():
    cases = {
        "-x^2": -9.0,
        "2^-1": 0.5,
        "(-x) ^ 2": 9.0,
        "2^3^2": 512.0,
        "-2*x + 1": -5.0,
        "sin(((x - 3)))": 0.0,
        "ln(e) * pi / pi": 1.0,
        "(x * 2.5e-1)": 0.75,
    }
    for text, want in cases.items():
        assert oracle.run_rpn(oracle.compile_text(text), 3.0) == pytest.approx(want), text
    deep = "sin(" * 400 + "x" + ")" * 400
    assert oracle.run_rpn(oracle.compile_text(deep), 0.1) == pytest.approx(
        _iterate(math.sin, 400, 0.1))
    with pytest.raises(ValueError):
        oracle.compile_text("(x + 1")


def _iterate(fn, n, x):
    for _ in range(n):
        x = fn(x)
    return x


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_outputs_are_bit_identical_to_untraced(workload, tmp_path):
    import mvtcheck.calculus
    import mvtcheck.cli
    import mvtcheck.expr
    import mvtcheck.theorem

    runner = Runner(workload, 5, str(tmp_path))
    # a slice of the workload's inputs, including its failures for cli
    runner.slots = runner.slots[:10] + [s for s in runner.slots if s.case.family.startswith("stress:")][:1]
    modules = {"theorem": mvtcheck.theorem, "calculus": mvtcheck.calculus, "cli": mvtcheck.cli}
    originals = {name: dict(vars(module)) for name, module in modules.items()}
    tracer = Tracer(modules, mvtcheck.expr.DomainError)
    try:
        _, _, same_plain = runner.run_pass()
        tracer.install()
        try:
            _, _, same_traced = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
    finally:
        runner.close()
    assert same_plain and same_traced
    assert {name: dict(vars(module)) for name, module in modules.items()} == originals
    metrics = tracer.metrics(1, 0.0)
    assert set(metrics) == set(METRICS)
    assert tracer.ops == len(runner.slots)
    assert metrics["trace.coverage"]["value"] > 0.5
    assert metrics["numeric.sample_points"]["value"] > 0


def test_benchmark_file_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == METRICS
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"latency_p50_ms", "latency_p95_ms", "pass_ratio", "decided_ratio",
                     "setup_s", "peak_rss_mb"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
