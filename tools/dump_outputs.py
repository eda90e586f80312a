"""Print every output of mvtcheck on the benchmark's seeded inputs, one line each.

Run from anywhere, with the workload and one or more seeds:

    python3 tools/dump_outputs.py smooth 1 2 3 > after.txt
    diff before.txt after.txt

Each line is one JSON list: the workload, seed and input index, then

- for ``smooth`` and ``hazard``: the input text, the ``repr`` of the
  verdict at ``samples`` 1024 and at 97, ``format_expr`` of the
  derivative, and the ``repr`` of ``analyze_smoothness`` at 1024 and at 97;
- for ``cli``: the command line, the exit code, standard output, standard
  error and the SHA-256 of the plot file the command wrote (None without
  one).

A call that raises prints the exception's ``repr`` in place of its
output.  Two runs that print the same lines gave the same verdicts, the
same numbers and the same files.  mvtcheck is imported from the ``src/``
next to this directory, and the inputs come from ``bench/mvtbench/gen.py``,
which is read and not changed.

With ``--against REF`` first, the tool checks the git revision REF out in
a temporary worktree, runs that checkout's own dump and this one with the
same workload and seeds, and prints the first differing lines and how
many differ.  It exits 1 when any line differs and 0 when none does:

    python3 tools/dump_outputs.py --against main hazard 1 2 3
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

from mvtbench.gen import WORKLOADS, generate  # noqa: E402

import mvtcheck  # noqa: E402
from mvtcheck.calculus import analyze_smoothness  # noqa: E402
from mvtcheck.cli import run  # noqa: E402

SAMPLES = (1024, 97)

# differing lines that --against prints before its count
_SHOWN = 5


def _attempt(call, show=repr) -> str:
    try:
        return show(call())
    except Exception as exc:  # an exception is an output like any other
        return repr(exc)


def library_lines(workload: str, seed: int):
    for index, case in enumerate(generate(workload, seed)):
        f = mvtcheck.parse(case.text)
        iv = mvtcheck.Interval(case.a, case.b)
        verify = mvtcheck.verify_rolle if case.rolle else mvtcheck.verify_mvt
        verdicts = [_attempt(lambda n=n: verify(f, iv, mvtcheck.Config(samples=n))) for n in SAMPLES]
        derivative = _attempt(lambda: mvtcheck.differentiate(f), mvtcheck.format_expr)
        reports = [_attempt(lambda n=n: analyze_smoothness(f, iv, n)) for n in SAMPLES]
        yield [workload, seed, index, case.text, *verdicts, derivative, *reports]


def cli_lines(seed: int):
    # plots go to relative paths in a scratch directory, so no output
    # depends on where that directory is
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        try:
            for index, case in enumerate(generate("cli", seed)):
                argv = list(case.argv)
                if case.plot:
                    argv += ["--plot", f"plot{index}{case.plot}"]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = _attempt(lambda: run(argv))
                digest = None
                if case.plot and os.path.exists(argv[-1]):
                    with open(argv[-1], "rb") as handle:
                        digest = hashlib.sha256(handle.read()).hexdigest()
                    os.unlink(argv[-1])
                yield ["cli", seed, index, argv, code, out.getvalue(), err.getvalue(), digest]
        finally:
            os.chdir(here)


def against(ref: str, args: list[str]) -> int:
    """Print how the dump of ``args`` differs between ``ref`` and this checkout."""
    with tempfile.TemporaryDirectory() as scratch:
        checkout = os.path.join(scratch, "ref")
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--quiet", "--detach", checkout, ref], check=True)
        try:
            theirs = _dump(checkout, args)
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", checkout], check=True)
    ours = _dump(ROOT, args)
    pairs = itertools.zip_longest(theirs, ours, fillvalue="")
    differing = [(i, old, new) for i, (old, new) in enumerate(pairs, 1) if old != new]
    for i, old, new in differing[:_SHOWN]:
        print(f"line {i}:\n- {old}\n+ {new}")
    print(f"{len(differing)} of {max(len(theirs), len(ours))} lines differ from {ref}")
    return 1 if differing else 0


def _dump(root: str, args: list[str]) -> list[str]:
    # the lines that the dump in checkout ``root`` prints
    tool = os.path.join(root, "tools", "dump_outputs.py")
    done = subprocess.run([sys.executable, tool, *args], check=True, stdout=subprocess.PIPE, text=True)
    return done.stdout.splitlines()


def main(argv: list[str]) -> int:
    ref = None
    if argv[:1] == ["--against"] and len(argv) > 1:
        ref, argv = argv[1], argv[2:]
    if len(argv) < 2 or argv[0] not in WORKLOADS:
        print(f"usage: dump_outputs.py [--against REF] {{{','.join(WORKLOADS)}}} SEED [SEED ...]", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(mvtcheck.__file__)) != os.path.join(ROOT, "src", "mvtcheck"):
        print(f"error: imported mvtcheck from {mvtcheck.__file__}", file=sys.stderr)
        return 2
    if ref is not None:
        return against(ref, argv)
    workload = argv[0]
    for seed in map(int, argv[1:]):
        lines = cli_lines(seed) if workload == "cli" else library_lines(workload, seed)
        for line in lines:
            print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
