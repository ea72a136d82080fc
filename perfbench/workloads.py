"""The benchmark's workloads: seeded instance lists, one timed operation each,
and the check that decides whether an operation's verdict is right.

An operation takes one instance to a verdict. Every solve runs under a node
budget, so the work per instance is deterministic and wall time measures speed
only. The solvers also get a wall-clock budget far above the slowest instance,
purely as a hang guard: an instance stopped by it counts as failed, while an
instance stopped by the node budget counts as a timeout, a search-quality
outcome that is reported but is not a failure.

The package is reached through its modules at call time (``bcef.solve_bcef``
rather than a name bound at import), so the traced run's wrappers, installed
by ``setattr`` on those modules, see every call.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

from hamdecomp import bcef, bsp, cli, instances, multigraph, oracle, verify
from hamdecomp.multigraph import Mode
from hamdecomp.result import SolveStatus
from hamdecomp.state import SolveLimits

# Instance seed = seed offset * INSTANCE_STRIDE + index, so every seed offset
# owns a disjoint block of instances and the solvers see only generated inputs.
INSTANCE_STRIDE = 100_000

# Seed offset kept out of tuning; a later change that claims a gain confirms it
# on this offset too.
HELD_OUT_SEED = 1000

# Far above the slowest instance of any workload (well under a second); only
# a hang can reach it.
HANG_GUARD_S = 60.0

DECOMPOSED = SolveStatus.DECOMPOSED.value
NONE = SolveStatus.NONE_EXISTS.value
TIMEOUT = SolveStatus.TIMED_OUT.value

# The CLI's documented exit code per certificate status.
CLI_EXIT = {DECOMPOSED: 0, NONE: 1, TIMEOUT: 2}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # which operation runs: bcef, bsp, cli or crosscheck
    specs: tuple        # (mode, n) pairs, cycled over the instance index
    count: int          # instances per seed offset
    node_budget: int

    def limits(self) -> SolveLimits:
        return SolveLimits(time_budget=HANG_GUARD_S, node_budget=self.node_budget)


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("undirected-search", "bcef", (("undirected", 512),), 150, 350),
        Workload("directed-cascade", "cli", (("directed", 2048),), 160, 1000),
        Workload("path-extension", "bsp",
                 (("directed", 40), ("directed", 40), ("directed", 40), ("undirected", 64)), 480, 3000),
        Workload("oracle-crosscheck", "crosscheck",
                 (("directed", 12), ("undirected", 12), ("undirected", 12)), 240, 100000),
    )
}


@dataclass
class Item:
    """One generated instance of a workload."""

    index: int
    seed: int
    mode: str
    n: int
    inst: instances.Instance
    path: Path | None = None


def make_items(w: Workload, seed: int, inst_dir: Path | None = None):
    """The workload's instances for one seed offset, written as files into inst_dir if given."""
    items = []
    for i in range(w.count):
        mode, n = w.specs[i % len(w.specs)]
        s = seed * INSTANCE_STRIDE + i
        inst = instances.gen_instance(n, Mode(mode), s)
        item = Item(i, s, mode, n, inst)
        if inst_dir is not None:
            item.path = inst_dir / f"inst_{mode}_{n}_{s}.txt"
            item.path.write_text(instances.write_instance(inst))
        items.append(item)
    return items


# -- one operation per workload kind; the return value feeds check() ---------

def run_op(w: Workload, item: Item):
    x, y = item.inst.x, item.inst.y
    if w.kind in ("bcef", "bsp"):
        g = multigraph.build_union(x, y)
        solve = bcef.solve_bcef if w.kind == "bcef" else bsp.solve_bsp
        return solve(g, x, y, w.limits())
    if w.kind == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["solve", str(item.path),
                             "--node-limit", str(w.node_budget),
                             "--time-limit", str(HANG_GUARD_S)])
        return code, out.getvalue()
    g = multigraph.build_union(x, y)
    limits = w.limits()
    return (oracle.enumerate_decompositions(g),
            bsp.solve_bsp(g, x, y, limits),
            bcef.solve_bcef(g, x, y, limits))


@dataclass
class Verdict:
    """What the check made of one operation."""

    counters: tuple     # deterministic; must repeat exactly on every run
    wrong: list         # reasons the verdict is wrong
    failures: list      # reasons the operation failed without a wrong verdict
    timeout: bool       # a solve stopped by the node budget
    unchecked: bool     # a NONE that nothing could confirm
    row: dict


class Checker:
    """Judges verdicts against verify, the oracle and the known-answer table."""

    def __init__(self, w: Workload, known: dict):
        self.w = w
        self.known = known

    def _judge(self, item, result, v: Verdict, algo: str):
        """Fold one solver verdict into v."""
        known = self.known.get((item.mode, item.n, item.seed))
        status = result.status.value
        if status == DECOMPOSED:
            v.wrong += [f"{algo}: invalid witness: {p}"
                        for p in verify.decomposition_problems(item.inst, result.z, result.w)]
            if known == NONE and not v.wrong:
                v.wrong.append(f"{algo}: valid witness for an instance the known-answer table"
                               " records as NONE, so the table is wrong")
        elif status == NONE:
            if known == DECOMPOSED:
                v.wrong.append(f"{algo}: NONE for an instance the known-answer table"
                               " records as DECOMPOSED")
            v.unchecked |= known != NONE
        elif result.nodes > self.w.node_budget:
            v.timeout = True
        else:
            v.failures.append(f"{algo}: stopped by the hang guard after {result.nodes} nodes")

    def check(self, item: Item, out) -> Verdict:
        kind = self.w.kind
        if kind == "crosscheck":
            return self._check_crosscheck(item, out)
        if kind == "cli":
            code, text = out
            result = instances.parse_certificate(text)
            depth = None  # the certificate carries no depth
        else:
            result = instances.certificate_of(out)
            depth = out.stats.max_depth
        status = result.status.value
        counters = (status, result.nodes, result.edges_fixed, depth)
        v = Verdict(counters, [], [], False, False, self._row(item, kind, counters))
        self._judge(item, result, v, kind)
        if kind == "cli" and code != CLI_EXIT[status]:
            v.failures.append(f"exit code {code} for a {status} certificate")
        return v

    def _check_crosscheck(self, item, out):
        ds, rb, rc = out
        input_pair = oracle.canonical_input_pair(item.inst.x, item.inst.y)
        status = DECOMPOSED if any(p != input_pair for p in ds.decompositions) else NONE
        counters = (ds.count,) + tuple(
            (r.status.value, r.stats.nodes, r.stats.edges_fixed, r.stats.max_depth)
            for r in (rb, rc))
        v = Verdict(counters, [], [], False, False,
                    self._row(item, "crosscheck", (status,) + counters[2][1:]))
        v.row.update(bsp=list(counters[1]), oracle_count=ds.count)
        for algo, r in (("bsp", rb), ("bcef", rc)):
            self._judge(item, instances.certificate_of(r), v, algo)
            if r.status.value not in (status, TIMEOUT):
                v.wrong.append(f"{algo}: {r.status.value}, but the oracle says {status}")
        v.unchecked = False  # the oracle decided every NONE
        return v

    @staticmethod
    def _row(item, algo, counters):
        status, nodes, edges_fixed, max_depth = counters
        return {"mode": item.mode, "n": item.n, "seed": item.seed, "algo": algo,
                "status": status, "nodes": nodes, "edges_fixed": edges_fixed,
                "max_depth": max_depth}
