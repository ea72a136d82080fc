"""Command-line front end: solve, gen, bench, verify.

Exit codes for ``solve``: 0 decomposed, 1 none exists, 2 timed out, 64 input
error. For ``verify``: 0 verified, 1 refuted, 64 input error. All usage and
parse problems exit 64 so that 2 stays reserved for timeouts.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
import time
from pathlib import Path

from .bcef import solve_bcef
from .bsp import solve_bsp
from .errors import HamdecompError
from .instances import (
    gen_instance,
    parse_certificate,
    parse_instance,
    write_certificate,
    write_instance,
)
from .multigraph import Mode, build_union
from .oracle import MAX_ORACLE_N, canonical_input_pair, enumerate_decompositions
from .result import SolveStatus
from .state import SolveLimits
from .verify import decomposition_problems

EXIT_DECOMPOSED = 0
EXIT_NONE = 1
EXIT_TIMEOUT = 2
EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_INPUT_ERROR = 64

_SOLVERS = {"bsp": solve_bsp, "bcef": solve_bcef}

CSV_HEADER = ["mode", "n", "seed", "algo", "status", "elapsed_ms", "nodes", "edges_fixed"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 means timeout here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _non_negative(convert):
    """An argparse ``type`` for budgets: ``convert``, then reject negatives (and NaN)."""
    def parse(text):
        value = convert(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
        return value
    parse.__name__ = convert.__name__
    return parse


_seconds = _non_negative(float)
_nodes = _non_negative(int)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser unchanged, and every
    # default is immutable
    parser = _Parser(prog="hamdecomp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("instance", type=Path)
    p_solve.add_argument("--algo", choices=("bsp", "bcef"), default="bcef")
    p_solve.add_argument("--time-limit", type=_seconds, default=0.0, metavar="SECONDS")
    p_solve.add_argument("--node-limit", type=_nodes, default=0, metavar="NODES")

    p_gen = sub.add_parser("gen", help="generate seeded instance files")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--mode", choices=("directed", "undirected"), required=True)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", type=Path, default=Path("."), metavar="DIR")

    p_bench = sub.add_parser("bench", help="run a benchmark matrix and write a CSV")
    p_bench.add_argument("--n", required=True, metavar="N1[,N2,...]",
                         help="comma-separated instance sizes")
    p_bench.add_argument("--mode", default="undirected", metavar="MODE1[,MODE2]",
                         help="comma-separated modes (directed, undirected)")
    p_bench.add_argument("--algo", default="bcef", metavar="ALGO1[,ALGO2]",
                         help="comma-separated algorithms (bsp, bcef)")
    p_bench.add_argument("--count", type=int, default=100)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--time-limit", type=_seconds, default=0.0, metavar="SECONDS")
    p_bench.add_argument("--node-limit", type=_nodes, default=0, metavar="NODES")
    p_bench.add_argument("--csv", type=Path, default=None, metavar="PATH")
    p_bench.add_argument("--jobs", type=int, default=1)

    p_verify = sub.add_parser("verify", help="check a certificate against an instance")
    p_verify.add_argument("instance", type=Path)
    p_verify.add_argument("certificate", type=Path)
    p_verify.add_argument("--exhaustive", action="store_true",
                          help=f"also check NONE certificates by enumeration (n <= {MAX_ORACLE_N})")

    return parser


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise HamdecompError(f"cannot read {path}: {exc}") from None


def _cmd_solve(args) -> int:
    inst = parse_instance(_read_text(args.instance))
    g = build_union(inst.x, inst.y)
    limits = SolveLimits(time_budget=args.time_limit, node_budget=args.node_limit)
    result = _SOLVERS[args.algo](g, inst.x, inst.y, limits)
    sys.stdout.write(write_certificate(result))
    if result.status is SolveStatus.DECOMPOSED:
        return EXIT_DECOMPOSED
    if result.status is SolveStatus.NONE_EXISTS:
        return EXIT_NONE
    return EXIT_TIMEOUT


def _cmd_gen(args) -> int:
    if args.n < 3:
        raise HamdecompError(f"--n must be at least 3, got {args.n}")
    if args.count < 1:
        raise HamdecompError(f"--count must be at least 1, got {args.count}")
    mode = Mode(args.mode)
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        for k in range(args.count):
            seed = args.seed + k
            inst = gen_instance(args.n, mode, seed)
            path = args.out / f"inst_{mode.value}_{args.n}_{seed}.txt"
            path.write_text(write_instance(inst))
    except OSError as exc:
        raise HamdecompError(f"cannot write to {args.out}: {exc}") from None
    print(f"wrote {args.count} instance(s) to {args.out}")
    return 0


def _bench_row(task):
    mode_value, n, seed, algo, time_limit, node_limit = task
    inst = gen_instance(n, Mode(mode_value), seed)
    g = build_union(inst.x, inst.y)
    limits = SolveLimits(time_budget=time_limit, node_budget=node_limit)
    t0 = time.perf_counter()
    result = _SOLVERS[algo](g, inst.x, inst.y, limits)
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return {
        "mode": mode_value,
        "n": n,
        "seed": seed,
        "algo": algo,
        "status": result.status.value,
        "elapsed_ms": elapsed_ms,
        "nodes": result.stats.nodes,
        "edges_fixed": result.stats.edges_fixed,
    }


def _bench_rows(tasks, jobs):
    """The tasks' rows in task order, solved in this process when ``jobs`` is
    1 and in that many worker processes otherwise."""
    if jobs == 1:
        yield from map(_bench_row, tasks)
        return
    # imported here: it loads multiprocessing, which every importer would pay for
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(_bench_row, tasks)


def _parse_list(raw, allowed, what):
    values = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not values:
        raise HamdecompError(f"empty {what} list")
    for v in values:
        if allowed is not None and v not in allowed:
            raise HamdecompError(f"unknown {what} {v!r}")
    return values


def _cmd_bench(args) -> int:
    modes = _parse_list(args.mode, ("directed", "undirected"), "mode")
    algos = _parse_list(args.algo, ("bsp", "bcef"), "algorithm")
    try:
        sizes = [int(v) for v in _parse_list(args.n, None, "size")]
    except ValueError:
        raise HamdecompError(f"--n expects integers, got {args.n!r}") from None
    if any(n < 3 for n in sizes):
        raise HamdecompError("sizes must be at least 3")
    if args.count < 1:
        raise HamdecompError(f"--count must be at least 1, got {args.count}")
    if args.jobs < 1:
        raise HamdecompError(f"--jobs must be at least 1, got {args.jobs}")

    tasks = [
        (mode, n, args.seed + k, algo, args.time_limit, args.node_limit)
        for mode in modes
        for n in sizes
        for k in range(args.count)
        for algo in algos
    ]
    try:
        out = open(args.csv, "w", newline="") if args.csv else None
    except OSError as exc:
        raise HamdecompError(f"cannot write {args.csv}: {exc}") from None
    writer = csv.DictWriter(out, fieldnames=CSV_HEADER) if out else None
    if writer:
        writer.writeheader()
        out.flush()
    rows = []
    try:
        for row in _bench_rows(tasks, args.jobs):
            rows.append(row)
            if writer:
                writer.writerow(row)
                out.flush()
    except KeyboardInterrupt:
        # keep whatever completed; the CSV is already flushed row by row
        print(f"interrupted after {len(rows)} of {len(tasks)} runs", file=sys.stderr)
    finally:
        if out:
            out.close()
    _print_summary(rows)
    return 0


def _print_summary(rows):
    groups = {}
    for row in rows:
        groups.setdefault((row["mode"], row["n"], row["algo"]), []).append(row)
    print(f"{'mode':<12}{'n':>6}{'algo':>6}{'feas N':>8}{'feas s':>10}"
          f"{'infeas N':>10}{'infeas s':>10}{'timeout N':>11}")
    for (mode, n, algo), group in sorted(groups.items()):
        feas = [r for r in group if r["status"] == "DECOMPOSED"]
        infeas = [r for r in group if r["status"] == "NONE"]
        timeouts = [r for r in group if r["status"] == "TIMEOUT"]
        feas_mean = sum(r["elapsed_ms"] for r in feas) / len(feas) / 1000 if feas else 0.0
        infeas_mean = sum(r["elapsed_ms"] for r in infeas) / len(infeas) / 1000 if infeas else 0.0
        print(f"{mode:<12}{n:>6}{algo:>6}{len(feas):>8}"
              f"{feas_mean:>10.3f}{len(infeas):>10}{infeas_mean:>10.3f}{len(timeouts):>11}")


def _cmd_verify(args) -> int:
    inst = parse_instance(_read_text(args.instance))
    cert = parse_certificate(_read_text(args.certificate))
    if cert.status is SolveStatus.DECOMPOSED:
        problems = decomposition_problems(inst, cert.z, cert.w)
        if problems:
            for p in problems:
                print(f"refuted: {p}", file=sys.stderr)
            return EXIT_REFUTED
        print("verified: decomposition is valid and differs from the inputs")
        return EXIT_VERIFIED
    if cert.status is SolveStatus.NONE_EXISTS:
        if not args.exhaustive:
            print("nothing to check for a NONE certificate (rerun with --exhaustive)")
            return EXIT_VERIFIED
        g = build_union(inst.x, inst.y)
        ds = enumerate_decompositions(g)
        input_pair = canonical_input_pair(inst.x, inst.y)
        extra = [p for p in ds.decompositions if p != input_pair]
        if extra:
            print(f"refuted: enumeration found {len(extra)} second decomposition(s)",
                  file=sys.stderr)
            return EXIT_REFUTED
        print("verified: exhaustive enumeration confirms no second decomposition")
        return EXIT_VERIFIED
    print("nothing to check for a TIMEOUT certificate")
    return EXIT_VERIFIED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "gen": _cmd_gen,
        "bench": _cmd_bench,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except HamdecompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
