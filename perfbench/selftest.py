"""Self-test of the benchmark itself, at toy sizes; takes a few seconds.

    python3 perfbench/selftest.py

Checks that every workload runs traced and untraced, that each prints exactly
the metrics BENCHMARK.json names with their units, that the correctness gate
fails the run on a stub solver's NONE for a known-DECOMPOSED instance and on a
corrupted witness, and that run.py refuses to run without the package source.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import known_answers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from hamdecomp import bcef  # noqa: E402
from hamdecomp.result import SolveResult, SolveStatus  # noqa: E402

TOY = {
    "undirected-search": (("undirected", 24),),
    "directed-cascade": (("directed", 24),),
    "path-extension": (("directed", 10), ("undirected", 12)),
    "oracle-crosscheck": (("directed", 7), ("undirected", 7)),
}
TOY_COUNT = 8
SCRATCH = ROOT / ".perfbench" / "selftest"


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def run_worker(name, trace, known=None):
    """worker.main in this process; (exit code, result line as a dict)."""
    load = known_answers.load
    if known is not None:
        known_answers.load = lambda: known
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = worker.main(["--workload", name, "--seed", "0", "--seconds", "0",
                                "--trace", str(trace), "--started", "0"])
    finally:
        known_answers.load = load
    return code, json.loads(out.getvalue().splitlines()[-1])


def check_metric_names(spec):
    for name in TOY:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result = run_worker(name, trace)
            expect(code == 0 and result["correct"], f"{name} trace {trace} not correct: {result}")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in listed}
            expect(got == want, f"{name} trace {trace}: metrics differ from BENCHMARK.json: "
                   f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                   f"units {[k for k in got if k in want and got[k] != want[k]]}")
        print(f"ok  {name}: {len(spec['end_to_end'])} end-to-end and "
              f"{len(spec['per_layer'])} per-layer metrics with their units")


def check_gate():
    name = "undirected-search"
    w = workloads.WORKLOADS[name]
    item = next(i for i in workloads.make_items(w, 0)
                if workloads.run_op(w, i).status is SolveStatus.DECOMPOSED)
    known = {(item.mode, item.n, item.seed): "DECOMPOSED"}
    real = bcef.solve_bcef

    def says_none(*args, **kw):
        r = real(*args, **kw)
        return SolveResult(SolveStatus.NONE_EXISTS, stats=r.stats)

    def corrupts(*args, **kw):
        r = real(*args, **kw)
        if r.z is not None:
            v = list(r.z.vertices)
            v[1], v[2] = v[2], v[1]
            r.z = dataclasses.replace(r.z, vertices=tuple(v))
        return r

    for stub, what in ((says_none, "NONE for a known-DECOMPOSED instance"),
                       (corrupts, "a corrupted witness")):
        bcef.solve_bcef = stub
        try:
            code, result = run_worker(name, 0, known)
        finally:
            bcef.solve_bcef = real
        expect(code != 0 and not result["correct"] and result["failed"] > 0,
               f"the gate let {what} pass: exit {code}, {result}")
        print(f"ok  gate fails the run on {what} (exit {code})")


def check_refuses_without_source():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = spec["command"] + ["--workload", "undirected-search", "--seed", "0",
                              "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"run.py without the package: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok  run.py exits {proc.returncode} without the package source")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worker.OUT_DIR = SCRATCH
    real = dict(workloads.WORKLOADS)
    for name, specs in TOY.items():
        workloads.WORKLOADS[name] = dataclasses.replace(real[name], specs=specs, count=TOY_COUNT)
    try:
        check_metric_names(spec)
        check_gate()
    finally:
        workloads.WORKLOADS.update(real)
    check_refuses_without_source()
    print("selftest passed")


if __name__ == "__main__":
    main()
