"""Benchmark entry point: one workload, one seed offset, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src. Each
workload runs in a fresh worker process (perfbench/worker.py). With --trace 0
four set-up-only processes run first, so that setup_s is the median of five
set-ups; with --trace 1 only the traced worker runs. The last line of standard
output is the worker's JSON result. The exit code is 0 only when every verdict
checked out; without the package source next to this directory it is 2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_PROBES = 4
# A fixed string-hash seed gives every worker the same dict layouts.
ENV = dict(os.environ, PYTHONHASHSEED="0")
# Every process this starts is killed once the run as a whole reaches this.
DEADLINE_S = 170.0


def _spawn(argv, deadline, capture):
    """Run a child to completion; None if it had to be killed."""
    try:
        return subprocess.run([sys.executable, str(WORKER), *argv], cwd=ROOT, env=ENV,
                              stdout=subprocess.PIPE if capture else None, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker killed after the {DEADLINE_S:.0f} s deadline", file=sys.stderr)
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "hamdecomp" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'hamdecomp'}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            started = time.monotonic()
            probe = _spawn(common + ["--seconds", "0", "--setup-only"], deadline, capture=True)
            if probe is None or probe.returncode != 0:
                return 2
            samples.append(json.loads(probe.stdout.splitlines()[-1])["ready"] - started)
    started = time.monotonic()
    worker = _spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                              "--started", repr(started),
                              "--setup-samples", ",".join(map(repr, samples))],
                    deadline, capture=True)
    if worker is None:
        return 2
    lines = worker.stdout.splitlines()
    if lines:
        print(lines[-1])
    return worker.returncode


if __name__ == "__main__":
    sys.exit(main())
