"""Per-layer spans recorded from outside the program.

The tracer replaces names at their import sites (``theorem.sample`` is a
different binding from ``calculus.sample``) with wrappers that record a
span: name, start, end, parent span and operation id.  Only boundary calls
are wrapped, never a function's recursive calls to itself.  The one
evaluator wrapped is the derivative that ``theorem`` compiles and calls
directly; wrapping every evaluator would slow the scans it measures.

Spans stay in memory.  What needs a span's arguments or result (sample
lists, node counts, verdicts) is read after the operation ends, outside
every timed interval.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter, defaultdict
from time import perf_counter_ns

# (module, attribute, span name, keep arguments and result for analysis)
SITES = (
    ("theorem", "analyze_smoothness", "calculus.analyze_smoothness", False),
    ("theorem", "differentiate", "calculus.differentiate", True),
    ("theorem", "compile_evaluator", "expr.compile", False),
    ("theorem", "sample", "numeric.sample.derivative", True),
    ("theorem", "bisect", "numeric.bisect.theorem", True),
    ("theorem", "secant_slope", "theorem.secant_slope", False),
    ("calculus", "compile_evaluator", "expr.compile", False),
    ("calculus", "sample", "numeric.sample.smoothness", True),
    ("calculus", "bisect", "numeric.bisect.witness", True),
    ("cli", "parse", "expr.parse", False),
    ("cli", "differentiate", "calculus.differentiate", True),
    ("cli", "simplify", "calculus.simplify", False),
    ("cli", "compile_evaluator", "expr.compile", False),
    ("cli", "render_json", "cli.render_json", False),
    ("cli", "emit_plot", "cli.emit_plot", True),
    ("cli", "verify_mvt", "theorem.verify", True),
    ("cli", "verify_rolle", "theorem.verify", True),
)

PATHS = ("degenerate_constant", "bracket_bisect", "residual_min")
VERDICTS = {"Applicable": "applicable", "NotApplicable": "not_applicable", "Unknown": "unknown"}

# metric name -> (unit, better)
METRICS = {
    "expr.parse_ms": ("ms", "lower"),
    "expr.compile_ms": ("ms", "lower"),
    "expr.compile_calls": ("count/op", "lower"),
    "expr.evals": ("count/op", "lower"),
    "expr.domain_errors": ("count/op", "lower"),
    "calculus.differentiate_ms": ("ms", "lower"),
    "calculus.deriv_nodes": ("ratio", "lower"),
    "calculus.smoothness_ms": ("ms", "lower"),
    "calculus.smoothness_self_ms": ("ms", "lower"),
    "calculus.hazard_scans": ("count/op", "lower"),
    "calculus.hazard_hit_ratio": ("ratio", "higher"),
    "calculus.witness_bisects": ("count/op", "lower"),
    "numeric.sample_ms.smoothness": ("ms", "lower"),
    "numeric.sample_ms.derivative": ("ms", "lower"),
    "numeric.sample_points": ("count/op", "lower"),
    "numeric.scan_used_ratio": ("ratio", "higher"),
    "numeric.bisect_ms": ("ms", "lower"),
    "numeric.bisect_iters": ("count/op", "lower"),
    "theorem.verify_ms": ("ms", "lower"),
    "theorem.self_ms": ("ms", "lower"),
    "theorem.self_evals": ("count/op", "lower"),
    **{f"theorem.path.{p}": ("count", "higher") for p in PATHS},
    "theorem.verdict.applicable": ("count", "higher"),
    "theorem.verdict.not_applicable": ("count", "higher"),
    "theorem.verdict.unknown": ("count", "lower"),
    "cli.run_ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "cli.render_json_ms": ("ms", "lower"),
    "cli.emit_plot_ms": ("ms", "lower"),
    "cli.plot_bytes": ("bytes", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}


# children whose time stays in their parent's self time: the secant slope
# is theorem's own arithmetic, wrapped only to count its calls
_OWN_TIME = frozenset({"theorem.secant_slope"})


def count_nodes(e) -> int:
    """Node count of an expression tree, walked without recursion."""
    n, stack = 0, [e]
    while stack:
        node = stack.pop()
        n += 1
        kind = type(node).__name__
        if kind == "Neg":
            stack.append(node.child)
        elif kind == "Binary":
            stack.append(node.left)
            stack.append(node.right)
        elif kind == "Call":
            stack.append(node.argument)
    return n


def first_bracket_index(points) -> int | None:
    """Index i of the first consecutive valid pair with opposite-or-zero signs."""
    for i, (p, q) in enumerate(zip(points, points[1:])):
        if p.error is None and q.error is None and math.isfinite(p.value) and math.isfinite(q.value):
            if (p.value <= 0.0 <= q.value) or (q.value <= 0.0 <= p.value):
                return i
    return None


def found_zero(points) -> bool:
    """A hazard scan hit: an exact zero or a strict sign change between valid samples."""
    valid = [p.value for p in points if p.error is None]
    if any(v == 0.0 for v in valid):
        return True
    return any((u < 0.0) != (v < 0.0) for u, v in zip(valid, valid[1:]))


class Tracer:
    """Wraps the SITES of the given modules and aggregates their spans."""

    def __init__(self, modules: dict, domain_error: type):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self._stack: list[int] = []
        self._deferred: list[tuple] = []  # (span index, args, result or exception)
        self._patches: list[tuple] = []
        self._op = -1
        self._op_start = 0
        self._modules = modules
        self._domain_error = domain_error
        self.ops = 0
        self.sums: Counter = Counter()
        self.ratios: defaultdict = defaultdict(list)
        self.cells: dict[str, list[int]] = {}  # calls, DomainErrors of counted callables

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        for module, attr, name, keep in SITES:
            self._wrap(self._modules[module], attr, name, keep)
        theorem = self._modules["theorem"]
        self._patch(theorem, "evaluate", self._counted(theorem.evaluate, "evaluate"))
        traced_compile = theorem.compile_evaluator
        self._patch(theorem, "compile_evaluator",
                    lambda *args: self._counted(traced_compile(*args), "deriv"))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _wrap(self, module, attr: str, name: str, keep: bool) -> None:
        original = getattr(module, attr)
        spans, stack, deferred = self.spans, self._stack, self._deferred
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1], tracer._op]
            spans.append(span)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[1], span[2] = start, perf_counter_ns()
                stack.pop()
                if keep:
                    deferred.append((idx, args, exc))
                raise
            span[1], span[2] = start, perf_counter_ns()
            stack.pop()
            if keep:
                deferred.append((idx, args, result))
            return result

        self._patch(module, attr, wrapper)

    def _counted(self, fn, key: str):
        """``fn`` counting its calls and DomainErrors into ``self.cells[key]``."""
        cell = self.cells.setdefault(key, [0, 0])
        domain_error = self._domain_error

        def counted(*args):
            cell[0] += 1
            try:
                return fn(*args)
            except domain_error:
                cell[1] += 1
                raise

        return counted

    # -- operations -------------------------------------------------------------

    def begin(self, root: str) -> None:
        """Open the root span of one operation; call just before its timer starts."""
        self._op += 1
        self._op_start = len(self.spans)
        self.spans.append([root, 0, 0, -1, self._op])
        self._stack.append(self._op_start)

    def end(self, start: int, stop: int, result) -> None:
        """Close the root span with the operation's own timestamps, then aggregate."""
        self._stack.pop()
        root = self.spans[self._op_start]
        root[1], root[2] = start, stop
        if root[0] == "theorem.verify":
            self._deferred.append((self._op_start, (), result))
        self._aggregate()

    def _aggregate(self) -> None:
        self.ops += 1
        first = self._op_start
        spans = self.spans[first:]
        sums = self.sums
        child_ns = Counter()
        all_children = Counter()
        for name, start, stop, parent, _ in spans:
            d = stop - start
            sums[name + ".ns"] += d
            sums[name + ".n"] += 1
            if parent >= 0:
                all_children[parent] += d
                if name not in _OWN_TIME:
                    child_ns[parent] += d
        for offset, (name, start, stop, _, _) in enumerate(spans):
            sums[name + ".self_ns"] += stop - start - child_ns[first + offset]
        root = spans[0]
        sums["root.ns"] += root[2] - root[1]
        sums["root.child_ns"] += all_children[first]

        # which smoothness samples are hazard scans: all but the first per analysis
        seen_analysis = set()
        for idx, args, result in self._deferred:
            name, _, _, parent, _ = self.spans[idx]
            if isinstance(result, BaseException):
                if isinstance(result, self._domain_error) and name == "numeric.bisect.witness":
                    sums["calc_bisect_errors"] += 1
                continue
            if name == "calculus.differentiate":
                self.ratios["deriv_nodes"].append(count_nodes(result) / count_nodes(args[0]))
            elif name == "numeric.sample.smoothness":
                sums["calc_sample_points"] += len(result)
                sums["calc_sample_errors"] += sum(1 for p in result if p.error is not None)
                if parent in seen_analysis:
                    sums["hazard_scans"] += 1
                    sums["hazard_hits"] += found_zero(result)
                seen_analysis.add(parent)
            elif name == "numeric.sample.derivative":
                sums["deriv_sample_points"] += len(result)
                i = first_bracket_index(result)
                self.ratios["scan_used"].append(1.0 if i is None else (i + 1) / len(result))
            elif name.startswith("numeric.bisect."):
                sums[name + ".iters"] += result[1].iterations
            elif name == "cli.emit_plot":
                sums["plot_bytes"] += os.path.getsize(args[3])
            elif name == "theorem.verify":
                kind = type(result).__name__
                sums["verdict." + VERDICTS.get(kind, "unknown")] += 1
                method = getattr(result, "method", None)
                if method is not None:
                    sums["path." + method.value] += 1
        self._deferred.clear()

    # -- results ----------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, stop, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start_ns": start, "end_ns": stop,
                                         "parent": parent, "op": op}) + "\n")

    def metrics(self, passes: int, overhead_pct: float) -> dict:
        """Per-layer metrics: times and counts per operation, verdicts per pass."""
        s = self.sums
        c = Counter()
        for key, (calls, errors) in self.cells.items():
            c[key + ".calls"], c[key + ".errors"] = calls, errors
        ops = max(self.ops, 1)

        def ms(*names: str, field: str = "ns") -> float:
            return sum(s[f"{n}.{field}"] for n in names) / 1e6 / ops

        def mean(values: list) -> float:
            return sum(values) / len(values) if values else 0.0

        def share(num: float, den: float) -> float:
            return num / den if den else 0.0

        theorem_bisect = s["numeric.bisect.theorem.iters"]
        deriv_calls = c["deriv.calls"]
        theorem_self_evals = deriv_calls - s["deriv_sample_points"] - theorem_bisect + c["evaluate.calls"]
        values = {
            "expr.parse_ms": ms("expr.parse"),
            "expr.compile_ms": ms("expr.compile"),
            "expr.compile_calls": s["expr.compile.n"] / ops,
            "expr.evals": (s["calc_sample_points"] + s["numeric.bisect.witness.iters"]
                           + deriv_calls + c["evaluate.calls"]) / ops,
            "expr.domain_errors": (s["calc_sample_errors"] + s["calc_bisect_errors"]
                                   + c["deriv.errors"] + c["evaluate.errors"]) / ops,
            "calculus.differentiate_ms": ms("calculus.differentiate", "calculus.simplify"),
            "calculus.deriv_nodes": mean(self.ratios["deriv_nodes"]),
            "calculus.smoothness_ms": ms("calculus.analyze_smoothness"),
            "calculus.smoothness_self_ms": ms("calculus.analyze_smoothness", field="self_ns"),
            "calculus.hazard_scans": s["hazard_scans"] / ops,
            "calculus.hazard_hit_ratio": share(s["hazard_hits"], s["hazard_scans"]),
            "calculus.witness_bisects": s["numeric.bisect.witness.n"] / ops,
            "numeric.sample_ms.smoothness": ms("numeric.sample.smoothness"),
            "numeric.sample_ms.derivative": ms("numeric.sample.derivative"),
            "numeric.sample_points": (s["calc_sample_points"] + s["deriv_sample_points"]) / ops,
            "numeric.scan_used_ratio": mean(self.ratios["scan_used"]),
            "numeric.bisect_ms": ms("numeric.bisect.theorem", "numeric.bisect.witness"),
            "numeric.bisect_iters": (theorem_bisect + s["numeric.bisect.witness.iters"]) / ops,
            "theorem.verify_ms": ms("theorem.verify"),
            "theorem.self_ms": ms("theorem.verify", field="self_ns"),
            "theorem.self_evals": theorem_self_evals / ops,
            **{f"theorem.path.{p}": s["path." + p] / passes for p in PATHS},
            **{f"theorem.verdict.{v}": s["verdict." + v] / passes for v in VERDICTS.values()},
            "cli.run_ms": ms("cli.run"),
            "cli.self_ms": ms("cli.run", field="self_ns"),
            "cli.render_json_ms": ms("cli.render_json"),
            "cli.emit_plot_ms": ms("cli.emit_plot"),
            "cli.plot_bytes": share(s["plot_bytes"], s["cli.emit_plot.n"]),
            "trace.coverage": share(s["root.child_ns"], s["root.ns"]),
            "trace.overhead_pct": overhead_pct,
        }
        return {name: {"value": values[name], "unit": METRICS[name][0]} for name in METRICS}
