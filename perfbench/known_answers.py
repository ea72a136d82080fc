"""The committed known-answer table: the exact verdict of every decided instance.

The table lets the benchmark check NONE verdicts where the oracle cannot run
(n > 14). Each entry was decided once, when the table was built, by bsp and
bcef under the workload's node budget: both verdicts where both decided (they
must agree), otherwise the one that decided, with every DECOMPOSED witness
checked by verify. Instances neither decided are left out. The
oracle-crosscheck workload (n <= 14) needs no entries, because the oracle
decides its instances at run time. Entries are exact verdicts, not counters,
so a later change to the search does not invalidate them.

known_answers.json holds, per "<mode> <n>" and seed offset, one character per
instance index (instance seed = offset * INSTANCE_STRIDE + index): D for
DECOMPOSED, N for NONE, and '.' for an instance left out or of another size.

Rebuild (about ten minutes):
    python3 perfbench/known_answers.py [--seeds 0-31,1000] [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

TABLE = Path(__file__).resolve().with_name("known_answers.json")

_CHAR = {"DECOMPOSED": "D", "NONE": "N"}
_STATUS = {"D": "DECOMPOSED", "N": "NONE"}


def load(path: Path = TABLE) -> dict:
    """{(mode, n, instance seed): "DECOMPOSED" | "NONE"} for every entry."""
    data = json.loads(path.read_text())
    stride = data["instance_stride"]
    known = {}
    for key, offsets in data["verdicts"].items():
        mode, n = key.split()
        for offset, chars in offsets.items():
            base = int(offset) * stride
            for i, ch in enumerate(chars):
                if ch in _STATUS:
                    known[(mode, int(n), base + i)] = _STATUS[ch]
    return known


def _decide(item, budget_limits):
    """The exact verdict of one instance, or None if it stays undecided."""
    from hamdecomp import bcef, bsp, multigraph, verify

    x, y = item.inst.x, item.inst.y
    where = f"{item.mode} n={item.n} seed={item.seed}"
    g = multigraph.build_union(x, y)
    verdicts = {}
    for algo, solve in (("bsp", bsp.solve_bsp), ("bcef", bcef.solve_bcef)):
        r = solve(g, x, y, budget_limits)
        if r.status.value == "DECOMPOSED":
            problems = verify.decomposition_problems(item.inst, r.z.vertices, r.w.vertices)
            if problems:
                raise SystemExit(f"{algo} witness invalid on {where}: {problems}")
        if r.status.value != "TIMEOUT":
            verdicts[algo] = r.status.value
    if len(set(verdicts.values())) > 1:
        raise SystemExit(f"bsp and bcef disagree on {where}: {verdicts}")
    return next(iter(verdicts.values()), None)


def _parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from workloads import HELD_OUT_SEED, INSTANCE_STRIDE, WORKLOADS, make_items

    parser = argparse.ArgumentParser(description="Rebuild the known-answer table.")
    parser.add_argument("--seeds", default=f"0-31,{HELD_OUT_SEED}")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="rebuild only these workloads (default: every workload with n > 14)")
    args = parser.parse_args(argv)

    data = (json.loads(TABLE.read_text()) if TABLE.exists()
            else {"instance_stride": INSTANCE_STRIDE, "verdicts": {}})
    if data["instance_stride"] != INSTANCE_STRIDE:
        raise SystemExit("instance stride changed; delete the table and rebuild it whole")
    names = args.workload or [w.name for w in WORKLOADS.values()
                              if max(n for _, n in w.specs) > 14]
    for name in names:
        w = WORKLOADS[name]
        for seed in _parse_seeds(args.seeds):
            items = make_items(w, seed)
            lines = {f"{mode} {n}": ["."] * len(items) for mode, n in w.specs}
            for item in items:
                verdict = _decide(item, w.limits())
                if verdict is not None:
                    lines[f"{item.mode} {item.n}"][item.index] = _CHAR[verdict]
            for key, chars in lines.items():
                data["verdicts"].setdefault(key, {})[str(seed)] = "".join(chars).rstrip(".")
            TABLE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
            print(f"{name} seed {seed}: {sum(c != '.' for line in lines.values() for c in line)}"
                  f" of {len(items)} decided", flush=True)


if __name__ == "__main__":
    main()
