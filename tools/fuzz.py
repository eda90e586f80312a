"""Run mvtcheck on seeded random functions and extreme intervals; report every input that breaks a rule.

    python3 tools/fuzz.py --seed 7 --trees 500

Each of the ``--trees`` random expressions (up to 10 leaves, over the
whole grammar, with constants such as 0, 1e-300, 1e300 and pi) gets
``verify_mvt`` and ``verify_rolle`` on every interval of ``INTERVALS``,
each interval with one configuration of ``CONFIGS`` drawn at random.
Every 25th expression also goes through the command line as ``verify
--json --plot``, ``diff`` and ``eval``, in process, and through four
malformed command lines: an expression flag last with no value,
``--samples 1``, a plot path ending in ``.txt`` and an unknown flag.  The
k-th such expression is verified on ``INTERVALS[k % len(INTERVALS)]``,
its endpoints passed as ``repr`` texts, and plotted to ``.svg`` on one
pass through ``INTERVALS`` and to ``.csv`` on the next, so both renderers
meet every interval.  This draws no random number of its own.

A library call must return a result.  Where that result is
``Applicable``, it must keep what it promises: ``a < c < b``, ``residual
== abs(f_prime_at_c - m) <= EPS_RES``, and ``m == 0.0`` from
``verify_rolle``.  A command must neither report an ``internal error``
nor exit with a code other than 0, 1 or 2.  The tool prints one line per
input that breaks a rule, then a summary line, and exits 1 if it printed
any such input and 0 otherwise.  The same
seed and count draw the same inputs.  mvtcheck is imported from the
``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from mvtcheck import Applicable, Config, Interval, parse, verify_mvt, verify_rolle  # noqa: E402
from mvtcheck.cli import run  # noqa: E402
from mvtcheck.expr import BINARY_OPS, FUNCTIONS  # noqa: E402
from mvtcheck.theorem import EPS_RES  # noqa: E402

INTERVALS = [
    (0.0, 1.0),
    (-2.0, 3.0),
    (1e-300, 2e-300),
    (-1e300, 1e300),
    (1.0, math.nextafter(1.0, 2.0)),
    (1 + 2**-52, 1 + 3 * 2**-52),
    (-5e-324, 5e-324),
    (1e308, 1.7e308),
    (1e6, 1e6 + 1e-6),
    (-700.0, 700.0),
]
CONFIGS = [Config(samples=2), Config(samples=3), Config(samples=17), Config(samples=1024), Config(eps_c=5e-324, samples=64)]
CONSTANTS = ["0", "1", "2", "0.5", "1e-300", "1e300", "5e-324", "pi", "e"]
MAX_LEAVES = 10
CLI_EVERY = 25


def random_text(rng: random.Random, leaves: int) -> str:
    """A fully parenthesised expression of x with ``leaves`` leaves."""
    if leaves == 1:
        if rng.random() < 0.5:
            return "x"
        return rng.choice(CONSTANTS) if rng.random() < 0.5 else repr(round(rng.uniform(0.0, 10.0), 3))
    shape = rng.random()
    if shape < 0.15:
        return f"(-{random_text(rng, leaves)})"
    if shape < 0.45:
        return f"{rng.choice(FUNCTIONS)}({random_text(rng, leaves)})"
    left = rng.randint(1, leaves - 1)
    return f"({random_text(rng, left)} {rng.choice(BINARY_OPS)} {random_text(rng, leaves - left)})"


def broken_promises(result: Applicable, a: float, b: float, rolle: bool) -> list[str]:
    """What of its promise the Applicable ``result`` on [a, b] breaks."""
    broken = []
    if not a < result.c < b:
        broken.append("c outside (a, b)")
    if result.residual != abs(result.f_prime_at_c - result.m):
        broken.append("residual != |f_prime_at_c - m|")
    if not result.residual <= EPS_RES:
        broken.append("residual above EPS_RES")
    if rolle and result.m != 0.0:
        broken.append("m != 0 from verify_rolle")
    return broken


def library_findings(text: str, rng: random.Random) -> tuple[list[str], list[str], int]:
    """One line per verdict on ``text`` that raises, one per Applicable
    that breaks its promise, and how many verdicts are Applicable."""
    f = parse(text)
    raised, broken, applicable = [], [], 0
    for a, b in INTERVALS:
        cfg = rng.choice(CONFIGS)
        for verify in (verify_mvt, verify_rolle):
            where = f"{verify.__name__} f={text!r} a={a!r} b={b!r} {cfg!r}"
            try:
                result = verify(f, Interval(a, b), cfg)
            except Exception as exc:  # any exception is the finding
                raised.append(f"{where}: {exc!r}")
                continue
            if isinstance(result, Applicable):
                applicable += 1
                promises = broken_promises(result, a, b, verify is verify_rolle)
                if promises:
                    broken.append(f"{where}: {result!r} breaks {'; '.join(promises)}")
    return raised, broken, applicable


def cli_commands(text: str, k: int, scratch: str) -> list[list[str]]:
    """The command lines run on ``text``, the k-th expression sent through
    the command line: the three commands, then four malformed ones, each a
    usage error."""
    a, b = INTERVALS[k % len(INTERVALS)]
    suffix = (".svg", ".csv")[k // len(INTERVALS) % 2]
    verify = ["verify", "--f", text, "--a", repr(a), "--b", repr(b)]
    return [
        verify + ["--json", "--plot", os.path.join(scratch, "plot" + suffix)],
        ["diff", "--f", text],
        ["eval", "--f", text, "--x", "0.5"],
        ["eval", "--x", "0.5", "--f"],  # an expression flag last, with no value
        verify + ["--samples", "1"],
        verify + ["--plot", os.path.join(scratch, "plot.txt")],
        ["diff", "--f", text, "--bogus"],
    ]


def cli_failures(commands: list[list[str]]) -> list[str]:
    """One line per command line that raises, reports an internal error or
    exits with a code other than 0, 1 or 2."""
    failures = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        except Exception as exc:  # run must catch everything itself
            failures.append(f"cli {argv!r}: {exc!r}")
            continue
        if "internal error" in err.getvalue():
            failures.append(f"cli {argv!r}: {err.getvalue().strip()}")
        elif code not in (0, 1, 2):
            failures.append(f"cli {argv!r}: exit code {code!r}")
    return failures


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="seed of the random inputs")
    parser.add_argument("--trees", type=int, required=True, help="how many random expressions to try")
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    raised_count = broken_count = verdicts = applicable = commands = 0
    with tempfile.TemporaryDirectory() as scratch:
        for n in range(args.trees):
            text = random_text(rng, rng.randint(1, MAX_LEAVES))
            raised, broken, count = library_findings(text, rng)
            verdicts += 2 * len(INTERVALS)
            applicable += count
            if n % CLI_EVERY == 0:
                argvs = cli_commands(text, n // CLI_EVERY, scratch)
                raised += cli_failures(argvs)
                commands += len(argvs)
            for line in raised + broken:
                print(line, flush=True)
            raised_count += len(raised)
            broken_count += len(broken)
    print(
        f"seed {args.seed}: {args.trees} trees, {verdicts} verdicts ({applicable} applicable), "
        f"{commands} commands, {raised_count} raised, {broken_count} broken applicable"
    )
    return 1 if raised_count or broken_count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
