"""Run one workload against mvtcheck and report its metrics.

The load is a closed loop in one thread: each operation starts when the
previous one has returned.  Passes over the workload's inputs repeat until
the next one would overrun the time budget.  Every operation is timed
against a fixed reference kernel run right before and right after it; an
input's time is the median over passes of these ratios, and a failed input
counts as +inf.  With ``trace`` on, untraced and traced passes alternate and
only the per-layer metrics are reported.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns

from . import gen, oracle
from .tracer import Tracer

_SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import mvtcheck, mvtcheck.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def import_seconds(src: str) -> float:
    """Import time of mvtcheck and mvtcheck.cli inside one fresh interpreter."""
    cmd = [sys.executable, "-I", "-c", _SETUP_CODE, src]
    return float(subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120).stdout)


# A fixed pure-Python kernel timed between operations measures the
# machine's speed at the moment each operation runs; see run_pass().
_REFERENCE = oracle.compile_text("sin(0.5*x + 1) * exp(-x/4) + (x^3 - 2*x)/(x^2 + 1) - sqrt(abs(x) + 2)")
_REFERENCE_XS = [i * 0.01 - 1.0 for i in range(100)]
REFERENCE_MS = 0.58  # the kernel's fast-phase time on the baseline machine


def reference_ns() -> int:
    start = perf_counter_ns()
    for x in _REFERENCE_XS:
        oracle.run_rpn(_REFERENCE, x)
    return perf_counter_ns() - start


def calibrate(probes: list[list[int]]) -> float:
    """Factor that rescales this run's set-up times to the baseline machine's speed.

    ``probes[k][j]`` is the kernel's time before operation j of pass k; the
    statistic is the median over positions of the fastest pass.
    """
    fast = statistics.median(min(column) for column in zip(*probes))
    return REFERENCE_MS * 1e6 / fast


@dataclass
class Slot:
    """One input: its case, its call, its first output and the oracle's judgement."""

    case: gen.Case
    call: object
    output: object = None
    key: object = None
    cause: str | None = None
    decided: bool = False


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the data at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


class Runner:
    """A workload's inputs, each bound to the call that runs it once."""

    def __init__(self, workload: str, seed: int, tmp_root: str):
        import mvtcheck.calculus
        import mvtcheck.cli
        import mvtcheck.expr
        import mvtcheck.numeric
        import mvtcheck.theorem

        self.workload = workload
        self.m = mvtcheck
        self.cases = gen.generate(workload, seed)
        self.tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root)  # plot files
        self.slots = [Slot(c, self._library_call(c) if c.argv is None else self._cli_call(c, i))
                      for i, c in enumerate(self.cases)]

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- operations -----------------------------------------------------------------

    def _library_call(self, case: gen.Case):
        m = self.m
        f = m.expr.parse(case.text)
        iv = m.numeric.Interval(case.a, case.b)
        verify = m.theorem.verify_rolle if case.rolle else m.theorem.verify_mvt

        def call(tracer):
            if tracer:
                tracer.begin("theorem.verify")
            start = perf_counter_ns()
            try:
                result = verify(f, iv)
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                result = exc
            stop = perf_counter_ns()
            if tracer:
                tracer.end(start, stop, result)
            return stop - start, result

        return call

    def _cli_call(self, case: gen.Case, index: int):
        run = self.m.cli.run
        argv = list(case.argv)
        path = None
        if case.plot:
            path = os.path.join(self.tmp, f"plot{index}{case.plot}")
            argv += ["--plot", path]

        def call(tracer):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer:
                    tracer.begin("cli.run")
                start = perf_counter_ns()
                code = run(argv)
                stop = perf_counter_ns()
                if tracer:
                    tracer.end(start, stop, code)
            plot = None
            if path is not None and os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    plot = handle.read()
                os.unlink(path)
            return stop - start, (code, out.getvalue(), err.getvalue(), plot)

        return call

    # -- passes ---------------------------------------------------------------------

    def run_pass(self, tracer=None, probes: list | None = None) -> tuple[list, list, bool]:
        """One pass over every input.

        Returns each operation's time in nanoseconds, the same time in
        reference-kernel runs, and whether every output equals the input's
        first output.  The kernel runs between consecutive operations, so
        each operation is divided by the mean of the kernel right before and
        right after it: a shared machine flips between speeds up to 2x
        apart for a second or more at a time, and both sides of the ratio
        see the same phase.  ``probes`` collects the kernel times before
        each operation.
        """
        times, ratios, same = [], [], True
        before = reference_ns()
        for slot in self.slots:
            ns, output = slot.call(tracer)
            after = reference_ns()
            if probes is not None:
                probes.append(before)
            key = _key(output)
            if slot.key is None:
                slot.output, slot.key = output, key
            elif key != slot.key:
                same = False
            times.append(ns)
            ratios.append(2.0 * ns / (before + after))
            before = after
        return times, ratios, same

    def judge(self) -> None:
        for slot in self.slots:
            case, out = slot.case, slot.output
            if case.argv is None:
                if isinstance(out, Exception):
                    slot.cause = f"{type(out).__name__}: {out}"
                    continue
                verdict = oracle.verdict_of_result(out)
                slot.cause = oracle.judge(case, verdict)
                slot.decided = slot.cause is None and verdict["status"] != "unknown"
            else:
                slot.cause, slot.decided = oracle.judge_cli(case, *out)


def _key(output):
    if isinstance(output, tuple):
        return output
    if isinstance(output, Exception):
        return f"{type(output).__name__}: {output}"
    return repr(output)


def latencies_ms(slots: list, ratios: list[list]) -> list[float]:
    """Per input: the median over passes of its time in kernel runs, in
    milliseconds at the baseline machine's kernel time, or +inf when it failed."""
    return [math.inf if s.cause else statistics.median(r) * REFERENCE_MS
            for s, r in zip(slots, ratios)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: str,
                 spans_path: str | None = None) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and report lines."""
    tmp_root = os.path.join(root, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    runner = Runner(workload, seed, tmp_root)
    try:
        return _measure(runner, seconds, trace, os.path.join(root, "src"), spans_path)
    finally:
        runner.close()
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(tmp_root)


def _measure(runner: Runner, seconds: float, trace: bool, src: str,
             spans_path: str | None) -> tuple[dict, list[str]]:
    slots = runner.slots
    n = len(slots)
    raw: list[list] = [[] for _ in slots]  # untraced nanoseconds, for the report lines
    plain: list[list] = [[] for _ in slots]  # untraced times in kernel runs
    traced: list[list] = [[] for _ in slots]
    setup: list[float] = []
    probes: list[list[int]] = []  # per pass
    consistent = True
    tracer = None
    if trace:
        m = runner.m
        tracer = Tracer({"theorem": m.theorem, "calculus": m.calculus, "cli": m.cli},
                        m.expr.DomainError)
    else:
        import_seconds(src)  # untimed: writes the bytecode caches every later import reads
        setup += [import_seconds(src) for _ in range(3)]
    deadline = perf_counter() + seconds
    passes = 0
    while True:
        pass_start = perf_counter()
        probes.append([])
        times, ratios, same = runner.run_pass(probes=probes[-1])
        consistent &= same
        for bucket, t in zip(raw, times):
            bucket.append(t)
        for bucket, r in zip(plain, ratios):
            bucket.append(r)
        if tracer is not None:
            tracer.install()
            try:
                _, ratios, same = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            consistent &= same
            for bucket, r in zip(traced, ratios):
                bucket.append(r)
        else:
            # fresh interpreters between passes spread the set-up samples over the run
            setup += [import_seconds(src) for _ in range(2)]
        passes += 1
        now = perf_counter()
        if now + (now - pass_start) > deadline:  # stop before a pass that would overrun
            break

    runner.judge()
    failed_inputs = [s for s in slots if s.cause]
    runs_per_pass = 2 if trace else 1
    attempted = n * passes * runs_per_pass
    failed = len(failed_inputs) * passes * runs_per_pass
    lat = latencies_ms(slots, plain)
    lines = [f"workload {runner.workload}: {n} inputs x {passes} passes = {n * passes} operations"
             + (" untraced, as many traced" if trace else "")]
    for s in failed_inputs:
        lines.append(f"  failed {s.case.family}: {s.cause}  [{_clip(s.case.text)}]")

    if trace:
        p50, p50_traced = statistics.median(lat), statistics.median(latencies_ms(slots, traced))
        metrics = tracer.metrics(passes, 100.0 * (p50_traced / p50 - 1.0))
        if spans_path:
            tracer.write_spans(spans_path)
    else:
        scale = calibrate(probes)
        p50, p95, setup_s = statistics.median(lat), percentile(lat, 0.95), statistics.median(setup)
        lat_raw = [math.inf if s.cause else statistics.median(t) / 1e6 for s, t in zip(slots, raw)]
        lines.append(f"  as measured: p50 {statistics.median(lat_raw):.6g} ms,"
                     f" p95 {percentile(lat_raw, 0.95):.6g} ms, setup {setup_s:.6g} s;"
                     f" set-up rescaled x{scale:.4f} to the baseline machine's speed")
        decided = sum(1 for s in slots if s.decided)
        metrics = {
            "latency_p50_ms": {"value": p50, "unit": "ms"},
            "latency_p95_ms": {"value": p95, "unit": "ms"},
            "pass_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
            "decided_ratio": {"value": decided / n, "unit": "ratio"},
            "setup_s": {"value": setup_s * scale, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    for name, metric in metrics.items():
        lines.append(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    result = {"correct": consistent, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def _clip(text: str, width: int = 70) -> str:
    return text if len(text) <= width else text[: width - 3] + "..."
