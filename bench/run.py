"""mvtcheck benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload smooth --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one process each

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  The
program is imported from ``src/`` next to this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from mvtbench.gen import WORKLOADS  # noqa: E402  (gen does not import mvtcheck)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="PATH", help="with --trace 1, write the spans as JSON lines")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mvtcheck", "__init__.py")):
        print(f"error: no mvtcheck sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, SRC)
    import mvtcheck

    if os.path.dirname(os.path.abspath(mvtcheck.__file__)) != os.path.join(SRC, "mvtcheck"):
        print(f"error: imported mvtcheck from {mvtcheck.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from mvtbench.measure import run_workload

    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT,
                                 args.spans)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
