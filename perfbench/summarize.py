"""Summarize untraced benchmark runs: per workload and metric, the median,
the quartiles and the spread (interquartile distance over the median) across
seed offsets, as statistics.quantiles(values, n=4) gives them.

    python3 perfbench/summarize.py [--out FILE] [RESULTS_DIR]

RESULTS_DIR defaults to .perfbench, where worker.py leaves one results file
per run. With --out, the summary is also written as JSON, with each run's
metrics and the per-operation rows of the lowest seed offset per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(results_dir: Path):
    runs = {}
    for path in sorted(results_dir.glob("*-trace0.json")):
        data = json.loads(path.read_text())
        runs.setdefault(data["workload"], []).append(data)
    summary = {}
    for workload, datas in sorted(runs.items()):
        datas.sort(key=lambda d: d["seed"])
        metrics = {}
        for name in datas[0]["metrics"]:
            values = [d["metrics"][name]["value"] for d in datas]
            q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {"unit": datas[0]["metrics"][name]["unit"], "median": q[1],
                             "q1": q[0], "q3": q[2], "spread": (q[2] - q[0]) / q[1] if q[1] else 0.0}
        summary[workload] = {"seeds": [d["seed"] for d in datas], "metrics": metrics,
                             "failed": [d["tally"]["failed"] for d in datas],
                             "timeouts": [d["tally"]["timeouts"] for d in datas]}
    return runs, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results_dir", nargs="?", type=Path, default=ROOT / ".perfbench")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    runs, summary = summarize(args.results_dir)
    for workload, s in summary.items():
        print(f"{workload}  seeds {s['seeds']}  failed {s['failed']}  timeouts {s['timeouts']}")
        for name, m in s["metrics"].items():
            print(f"  {name:18s} median {m['median']:10.4f} {m['unit']:4s} "
                  f"q1 {m['q1']:10.4f}  q3 {m['q3']:10.4f}  spread {m['spread']:.3f}")
    if args.out:
        first = {w: datas[0] for w, datas in runs.items()}
        meta = next(iter(first.values()), {})
        out = {
            "machine": meta.get("machine"),
            "git_sha": meta.get("git_sha"),
            "summary": summary,
            "runs": {w: [{"seed": d["seed"], "node_budget": d["node_budget"], "specs": d["specs"],
                          "count": d["count"], "seconds": d["seconds"], "tally": d["tally"],
                          "run": d["run"], "metrics": d["metrics"]} for d in datas]
                     for w, datas in runs.items()},
            # each row without its repeat times, which only show the machine's noise
            "rows": {w: {"seed": d["seed"], "columns": [c for c in d["rows"][0] if c != "runs"],
                         "values": [[v for c, v in r.items() if c != "runs"] for r in d["rows"]]}
                     for w, d in first.items()},
        }
        args.out.write_text(json.dumps(out, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
