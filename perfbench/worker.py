"""Run one benchmark workload in this process and print one JSON result line.

run.py starts this in a fresh process per workload, so set-up time and peak
memory belong to that workload alone. The load comes from this one process, one
operation at a time (a closed loop with one client), because the solvers are
single-threaded pure Python.

Untraced (--trace 0): the workload's instance list is taken to verdicts once,
then again from the start until --seconds is spent. Each instance's verdict
time is its slowest repeat; the end-to-end metrics come from those times.

Traced (--trace 1): each instance is solved untraced and then traced, in turn,
until --seconds is spent or every instance had its turn. The per-layer metrics come from the traced calls,
and trace.overhead_frac compares the two.

Every operation's verdict is checked outside the timed region, and its
deterministic counters must repeat exactly across rounds and between the
traced and untraced solve.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import known_answers  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    HANG_GUARD_S, HELD_OUT_SEED, INSTANCE_STRIDE, WORKLOADS, Checker, make_items, run_op,
)

OUT_DIR = ROOT / ".perfbench"

_ns = time.perf_counter_ns


class Tally:
    """Outcome counts over every operation of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong_verdicts = 0
        self.timeouts = 0
        self.unchecked = 0
        self.nondeterministic = 0
        self.errors = 0
        self.reported = 0

    def report(self, what, item, reasons):
        # every wrong verdict is shown; other failures up to a handful
        if what == "wrong verdict" or self.reported < 10:
            self.reported += 1
            print(f"perfbench: {what}: {item.mode} n={item.n} seed={item.seed}: "
                  + "; ".join(reasons), file=sys.stderr)

    def add(self, item, verdict, counters_seen):
        self.attempted += 1
        failed = False
        if verdict.wrong:
            self.wrong_verdicts += 1
            failed = True
            self.report("wrong verdict", item, verdict.wrong)
        if verdict.failures:
            failed = True
            self.report("failed", item, verdict.failures)
        if counters_seen is not None and counters_seen != verdict.counters:
            self.nondeterministic += 1
            failed = True
            self.report("nondeterministic", item, [f"{counters_seen} then {verdict.counters}"])
        self.failed += failed
        self.timeouts += verdict.timeout
        self.unchecked += verdict.unchecked

    def add_error(self, item):
        self.attempted += 1
        self.failed += 1
        self.errors += 1
        self.report("exception", item, [traceback.format_exc(limit=3).strip()])

    @property
    def correct(self):
        return not (self.wrong_verdicts or self.nondeterministic or self.errors)

    def as_dict(self):
        return dict(vars(self), failed_frac=self.failed / max(self.attempted, 1))


def _solve(w, checker, item, tally, counters_seen, tracer=None):
    """One operation plus its check; returns (elapsed ns or None, verdict)."""
    try:
        if tracer is None:
            t0 = _ns()
            out = run_op(w, item)
            elapsed = _ns() - t0
        else:
            start = tracer.begin_op(item.index)
            try:
                out = run_op(w, item)
            finally:
                tracer.end_op(start)
            elapsed = None
        verdict = checker.check(item, out)
    except Exception:
        tally.add_error(item)
        return None, None
    tally.add(item, verdict, counters_seen)
    return elapsed, verdict


def measure(w, items, checker, seconds):
    """One whole round over the instance list, then more until the time is spent."""
    tally = Tally()
    times = [[] for _ in items]
    first = [None] * len(items)
    begin = time.monotonic()
    k = 0
    while k < len(items) or time.monotonic() - begin < seconds:
        i = k % len(items)
        seen = first[i].counters if first[i] is not None else None
        elapsed, verdict = _solve(w, checker, items[i], tally, seen)
        if elapsed is not None:
            times[i].append(elapsed)
        if first[i] is None:
            first[i] = verdict
        k += 1
    # An instance's verdict time is its slowest repeat. On a shared machine the
    # solver runs faster in spells of a few seconds, which some runs catch and
    # others do not; the slowest of several repeats is the usual speed, which
    # every run sees. The solve itself is deterministic.
    per_instance = [max(t) / 1e6 for t in times if t]
    rows = [dict(v.row, ms=round(max(t) / 1e6, 3), runs=[round(x / 1e6, 3) for x in t])
            for v, t in zip(first, times) if v is not None and t]
    q = statistics.quantiles(per_instance, n=4) if len(per_instance) > 1 else per_instance * 3
    metrics = {
        "verdict_ms.p50": (statistics.median(per_instance), "ms"),
        "verdict_ms.p75": (q[2], "ms"),
        # the rate of one pass over the list, each instance at its verdict time
        "instances_per_s": (len(per_instance) / sum(per_instance) * 1e3, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"samples": len(per_instance), "operations": sum(map(len, times)),
             "timed_s": sum(map(sum, times)) / 1e9}
    return tally, metrics, rows, extra


def measure_traced(w, items, checker, seconds, tracer):
    """Untraced then traced solve of each instance until the time is spent."""
    tally = Tally()
    rows = []
    untraced_ns = 0
    traced_ns = 0
    begin = time.monotonic()
    for item in items:
        elapsed, verdict = _solve(w, checker, item, tally, None)
        if verdict is None:
            continue
        before = tracer.op_ns
        with tracing.installed(tracer):
            _solve(w, checker, item, tally, verdict.counters, tracer)
        untraced_ns += elapsed
        traced_ns += tracer.op_ns - before
        rows.append(dict(verdict.row, ms=round(elapsed / 1e6, 3)))
        if time.monotonic() - begin > seconds:
            break
    metrics = layer_metrics(tracer, traced_ns / untraced_ns - 1 if untraced_ns else 0.0)
    extra = {"pairs": len(rows), "untraced_s": untraced_ns / 1e9, "traced_s": traced_ns / 1e9,
             "spans_dropped": tracer.dropped}
    return tally, metrics, rows, extra


def layer_metrics(tracer, overhead):
    """Per-layer metrics of a traced run, per traced operation where it applies."""
    ops = max(tracer.ops, 1)
    inside, outside, c = tracer.inside, tracer.outside, tracer.counters

    def div(a, b):
        return a / b if b else 0.0

    def calls(name):
        return inside[name][0]

    if sum(v[2] for v in inside.values()) + tracer.op_self_ns != tracer.op_ns:
        raise AssertionError("layer self times and the remainder do not add up to the traced wall time")
    m = {
        "trace.overhead_frac": (overhead, "frac"),
        "trace.ops": (tracer.ops, "count"),
        "trace.wall_ms": (tracer.op_ns / ops / 1e6, "ms/op"),
        "trace.other_ms": (tracer.op_self_ns / ops / 1e6, "ms/op"),
    }
    for name in tracing.LAYERS:
        if name not in tracing.CHECK_LAYERS:
            m[f"{name}.self_ms"] = (inside[name][2] / ops / 1e6, "ms/op")
    sel, cf, fe, undo = ("bcef.select_branch_edge", "bcef.chain_fix",
                         "state.fix_edge", "state.undo_to")
    m.update({
        f"{sel}.calls": (calls(sel) / ops, "calls/op"),
        f"{sel}.us_per_call": (div(inside[sel][1], calls(sel)) / 1e3, "us"),
        f"{sel}.cands_per_call": (div(c[f"{sel}.cands"], calls(sel)), "edges"),
        f"{cf}.calls": (calls(cf) / ops, "calls/op"),
        f"{cf}.edges_per_call": (div(c[f"{cf}.edges"], calls(cf)), "edges"),
        f"{cf}.self_ns_per_edge": (div(inside[cf][2], c[f"{cf}.edges"]), "ns"),
        f"{cf}.fail_frac": (div(c[f"{cf}.fails"], calls(cf)), "frac"),
        f"{fe}.calls": (calls(fe) / ops, "calls/op"),
        f"{fe}.ns_per_call": (div(inside[fe][1], calls(fe)), "ns"),
        f"{fe}.fail_frac": (div(c[f"{fe}.fails"], calls(fe)), "frac"),
        f"{undo}.calls": (calls(undo) / ops, "calls/op"),
        f"{undo}.edges": (c[f"{undo}.edges"] / ops, "edges/op"),
        f"{undo}.ns_per_edge": (div(inside[undo][1], c[f"{undo}.edges"]), "ns"),
    })
    for solver in ("bcef", "bsp"):
        p = f"{solver}.search"
        solves = c[f"{p}.solves"]
        m[f"{p}.nodes"] = (div(c[f"{p}.nodes"], solves), "nodes")
        m[f"{p}.timeout_frac"] = (div(c[f"{p}.timeouts"], solves), "frac")
    m.update({
        "bcef.search.edges_fixed": (div(c["bcef.search.edges_fixed"], c["bcef.search.solves"]), "edges"),
        "bcef.search.max_depth": (div(c["bcef.search.max_depth"], c["bcef.search.solves"]), "frames"),
        "bcef.search.edges_fixed_per_node": (div(c["bcef.search.edges_fixed"], c["bcef.search.nodes"]),
                                             "edges/node"),
        "bsp.nodes_per_s": (div(c["bsp.search.nodes"], inside["bsp.solve_bsp"][1] / 1e9), "1/s"),
        "oracle.enumerate_decompositions.fix_edge_calls": (
            div(c["oracle.enumerate_decompositions.fix_edge_calls"],
                calls("oracle.enumerate_decompositions")), "calls"),
    })
    for name in ("oracle.enumerate_decompositions", "multigraph.build_union",
                 "multigraph.parallel_edge_pairs", "instances.parse_instance",
                 "instances.write_certificate"):
        m[f"{name}.ms"] = (div(inside[name][1], calls(name)) / 1e6, "ms")
    for name in tracing.CHECK_LAYERS:
        m[f"{name}.ms"] = (div(outside[name][1], outside[name][0]) / 1e6, "ms")
    return m


def _git_sha():
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, default=None,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--setup-samples", default="",
                        help="comma-separated set-up times of earlier processes, seconds")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the time set-up ended, and exit")
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    inst_dir = OUT_DIR / "instances" / f"{w.name}-{args.seed}" if w.kind == "cli" else None
    if inst_dir is not None:
        inst_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is None:
        items = make_items(w, args.seed, inst_dir=inst_dir)
    else:
        with tracing.installed(tracer):
            items = make_items(w, args.seed, inst_dir=inst_dir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    checker = Checker(w, known_answers.load())
    if tracer is None:
        tally, metrics, rows, extra = measure(w, items, checker, args.seconds)
        samples = [float(s) for s in args.setup_samples.split(",") if s]
        if args.started is not None:
            samples.append(ready - args.started)
        if samples:
            metrics["setup_s"] = (statistics.median(samples), "s")
        extra["setup_s_samples"] = samples
    else:
        tally, metrics, rows, extra = measure_traced(w, items, checker, args.seconds, tracer)

    results = {
        "workload": w.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "instance_seeds": [args.seed * INSTANCE_STRIDE, args.seed * INSTANCE_STRIDE + w.count - 1],
        "node_budget": w.node_budget,
        "hang_guard_s": HANG_GUARD_S,
        "specs": [list(s) for s in w.specs],
        "count": w.count,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                    "python": platform.python_version(), "platform": platform.platform()},
        "git_sha": _git_sha(),
        "tally": tally.as_dict(),
        "run": extra,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "rows": rows,
    }
    if tracer is not None:
        results["spans"] = tracer.spans
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results) + "\n")
    print(f"perfbench: {w.name} seed {args.seed}: {tally.attempted} operations, "
          f"{tally.failed} failed, {tally.wrong_verdicts} wrong, {tally.timeouts} stopped by the node budget, "
          f"{tally.unchecked} NONE unchecked; {extra}; results in {path.relative_to(ROOT)}",
          file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": results["metrics"],
    }))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
