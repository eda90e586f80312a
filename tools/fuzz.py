"""Run mvtcheck on seeded random functions and extreme intervals; report every input that raises.

    python3 tools/fuzz.py --seed 7 --trees 500

Each of the ``--trees`` random expressions (up to 10 leaves, over the
whole grammar, with constants such as 0, 1e-300, 1e300 and pi) gets
``verify_mvt`` and ``verify_rolle`` on every interval of ``INTERVALS``,
each interval with one configuration of ``CONFIGS`` drawn at random.
Every 25th expression also goes through the command line as ``verify``,
``diff`` and ``eval``, in process, and through four malformed command
lines: an expression flag last with no value, ``--samples 1``, a plot
path ending in ``.txt`` and an unknown flag.

A library call must return a result, and a command must neither report
an ``internal error`` nor exit with a code other than 0, 1 or 2: the
tool prints one line per input that breaks a rule, then a summary line,
and exits 1 if it printed any such input and 0 otherwise.  The same
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

from mvtcheck import Config, Interval, parse, verify_mvt, verify_rolle  # noqa: E402
from mvtcheck.cli import run  # noqa: E402
from mvtcheck.expr import BINARY_OPS, FUNCTIONS  # noqa: E402

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


def library_failures(text: str, rng: random.Random) -> list[str]:
    """One line per verdict on ``text`` that raises instead of returning."""
    f = parse(text)
    failures = []
    for a, b in INTERVALS:
        cfg = rng.choice(CONFIGS)
        for verify in (verify_mvt, verify_rolle):
            try:
                verify(f, Interval(a, b), cfg)
            except Exception as exc:  # any exception is the finding
                failures.append(f"{verify.__name__} f={text!r} a={a!r} b={b!r} {cfg!r}: {exc!r}")
    return failures


def cli_commands(text: str, scratch: str) -> list[list[str]]:
    """The command lines run on ``text``: the three commands, then four
    malformed ones, each a usage error."""
    verify = ["verify", "--f", text, "--a", "0", "--b", "1"]
    return [
        verify + ["--json", "--plot", os.path.join(scratch, "plot.svg")],
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
    failures: list[str] = []
    verdicts = commands = 0
    with tempfile.TemporaryDirectory() as scratch:
        for n in range(args.trees):
            text = random_text(rng, rng.randint(1, MAX_LEAVES))
            found = library_failures(text, rng)
            verdicts += 2 * len(INTERVALS)
            if n % CLI_EVERY == 0:
                argvs = cli_commands(text, scratch)
                found += cli_failures(argvs)
                commands += len(argvs)
            for line in found:
                print(line, flush=True)
            failures += found
    print(f"seed {args.seed}: {args.trees} trees, {verdicts} verdicts, {commands} commands, {len(failures)} raised")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
