"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

The slow entry is the algorithm-ranking suite, which runs the path-extension
solver over one hundred n=256 instances with a per-instance wall cap; capping
only lowers its side of the comparison, so the asserted ordering is proved
conservatively (see the ranking test's docstring).
"""

import time
from pathlib import Path

from hamdecomp import (
    Mode,
    SolveLimits,
    SolveStatus,
    build_union,
    decomposition_problems,
    gen_instance,
    second_decomposition_exists,
    solve_bcef,
    solve_bsp,
    write_certificate,
    write_instance,
)
from hamdecomp.cli import main as cli_main
from helpers import scripted_roundtrip, solve_bcef_validated


def report(num, label, ok, detail=""):
    suffix = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def small_suite(mode):
    """Seeds 0..99 with n cycling through 4..10."""
    for seed in range(100):
        yield gen_instance(4 + seed % 7, mode, seed)


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = []
    for mode in (Mode.UNDIRECTED, Mode.DIRECTED):
        for inst in small_suite(mode):
            g = build_union(inst.x, inst.y)
            expected = second_decomposition_exists(g, inst.x, inst.y)
            for tag, solver in (("bsp", solve_bsp), ("bcef", solve_bcef)):
                r = solver(g, inst.x, inst.y)
                if r.status is SolveStatus.TIMED_OUT or \
                        (r.status is SolveStatus.DECOMPOSED) != expected:
                    mismatches.append((tag, mode.value, inst.n, r.status))
                if r.status is SolveStatus.DECOMPOSED and \
                        decomposition_problems(inst, r.z.vertices, r.w.vertices):
                    mismatches.append((tag, mode.value, inst.n, "invalid witness"))
    elapsed = time.perf_counter() - t0
    report(1, "oracle equivalence", not mismatches and elapsed < 60.0,
           f"200 instances, {len(mismatches)} mismatches, {elapsed:.1f}s (< 60s)")


def test_criterion_2_showcase_fixtures(feasible6, rigid6, tmp_path, capsys):
    problems = []
    feasible_path = tmp_path / "feasible6.txt"
    feasible_path.write_text(write_instance(feasible6))
    g = build_union(feasible6.x, feasible6.y)
    for tag, solver in (("bsp", solve_bsp), ("bcef", solve_bcef)):
        r = solver(g, feasible6.x, feasible6.y)
        if r.status is not SolveStatus.DECOMPOSED:
            problems.append(f"feasible6 {tag}: {r.status.value}")
            continue
        cert_path = tmp_path / f"cert_{tag}.txt"
        cert_path.write_text(write_certificate(r))
        if cli_main(["verify", str(feasible_path), str(cert_path)]) != 0:
            problems.append(f"feasible6 {tag}: certificate refuted")

    rigid_path = tmp_path / "rigid6.txt"
    rigid_path.write_text(write_instance(rigid6))
    gd = build_union(rigid6.x, rigid6.y)
    for tag, solver in (("bsp", solve_bsp), ("bcef", solve_bcef)):
        r = solver(gd, rigid6.x, rigid6.y)
        if r.status is not SolveStatus.NONE_EXISTS:
            problems.append(f"rigid6 {tag}: {r.status.value}")
    none_cert = tmp_path / "none.txt"
    none_cert.write_text("s NONE\nt 0 0 0\n")
    if cli_main(["verify", str(rigid_path), str(none_cert), "--exhaustive"]) != 0:
        problems.append("rigid6: exhaustive verify rejected NONE")
    capsys.readouterr()
    report(2, "showcase fixtures", not problems, "; ".join(problems) or
           "feasible instance decomposed+verified, rigid instance exact NONE")


def test_criterion_3_undirected_feasibility():
    rates = {}
    ok = True
    for n in (32, 64, 128, 256):
        feasible = 0
        for seed in range(100):
            inst = gen_instance(n, Mode.UNDIRECTED, seed)
            g = build_union(inst.x, inst.y)
            if solve_bcef(g, inst.x, inst.y).status is SolveStatus.DECOMPOSED:
                feasible += 1
        rates[n] = feasible
        ok = ok and feasible >= 99
    report(3, "undirected feasibility", ok,
           ", ".join(f"n={n}: {c}/100" for n, c in rates.items()) + " (need >= 99)")


def test_criterion_4_directed_feasibility():
    feasible = 0
    for seed in range(100):
        inst = gen_instance(32, Mode.DIRECTED, seed)
        g = build_union(inst.x, inst.y)
        if solve_bcef(g, inst.x, inst.y).status is SolveStatus.DECOMPOSED:
            feasible += 1
    report(4, "directed feasibility", 15 <= feasible <= 45,
           f"n=32: {feasible}/100 feasible (need 15..45)")


def test_criterion_5_desk_scale_performance():
    t0 = time.perf_counter()
    statuses = []
    for seed in range(100):
        inst = gen_instance(256, Mode.UNDIRECTED, seed)
        g = build_union(inst.x, inst.y)
        statuses.append(solve_bcef(g, inst.x, inst.y).status)
    suite_elapsed = time.perf_counter() - t0

    inst = gen_instance(1024, Mode.UNDIRECTED, 0)
    g = build_union(inst.x, inst.y)
    t0 = time.perf_counter()
    big = solve_bcef(g, inst.x, inst.y)
    single_elapsed = time.perf_counter() - t0

    ok = (suite_elapsed <= 60.0 and single_elapsed <= 6.3
          and all(s is SolveStatus.DECOMPOSED for s in statuses)
          and big.status is SolveStatus.DECOMPOSED)
    report(5, "desk-scale performance", ok,
           f"100 x n=256 in {suite_elapsed:.1f}s (<= 60s), "
           f"n=1024 in {single_elapsed:.2f}s (<= 6.3s)")


def test_criterion_6_algorithm_ranking():
    """Chain fixing must beat path extension on the undirected n=256 suite.

    Path-extension runs are capped at 0.1 s wall each. Every capped run
    contributes at least its cap to the measured total, so the measured total
    is a lower bound on the true one: proving bcef_total < measured_bsp_total
    proves the uncapped ordering a fortiori, and a smaller cap only makes the
    comparison harder to pass.
    """
    cap = 0.1
    bcef_total = 0.0
    bsp_total = 0.0
    capped = 0
    for seed in range(100):
        inst = gen_instance(256, Mode.UNDIRECTED, seed)
        g = build_union(inst.x, inst.y)
        t0 = time.perf_counter()
        solve_bcef(g, inst.x, inst.y)
        bcef_total += time.perf_counter() - t0
        t0 = time.perf_counter()
        r = solve_bsp(g, inst.x, inst.y, SolveLimits(time_budget=cap))
        bsp_total += time.perf_counter() - t0
        if r.status is SolveStatus.TIMED_OUT:
            capped += 1
    report(6, "algorithm ranking", bcef_total < bsp_total,
           f"bcef {bcef_total:.1f}s < bsp >= {bsp_total:.1f}s "
           f"({capped} runs capped at {cap}s)")


def test_criterion_7_propagation_closure_and_undo():
    violations = 0
    for mode in (Mode.UNDIRECTED, Mode.DIRECTED):
        for inst in small_suite(mode):
            g = build_union(inst.x, inst.y)
            try:
                solve_bcef_validated(g, inst.x, inst.y)
            except AssertionError:
                violations += 1

    roundtrips = 0
    for seed in range(1000):
        inst = gen_instance(4 + seed % 7, (Mode.UNDIRECTED, Mode.DIRECTED)[seed % 2], seed)
        g = build_union(inst.x, inst.y)
        roundtrips += scripted_roundtrip(g, seed, steps=30)
    report(7, "propagation closure + undo", violations == 0 and roundtrips >= 1000,
           f"{violations} scan violations over 200 validated solves, "
           f"{roundtrips} undo/replay comparisons across 1000 scripts")


def test_criterion_8_reproducibility(tmp_path, capsys):
    problems = []
    dirs = (tmp_path / "gen_a", tmp_path / "gen_b")
    for out in dirs:
        code = cli_main(["gen", "--n", "24", "--mode", "undirected",
                         "--count", "20", "--seed", "0", "--out", str(out)])
        assert code == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    for name in names:
        if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
            problems.append(f"instance file {name} differs between runs")

    csvs = (tmp_path / "bench_a.csv", tmp_path / "bench_b.csv")
    for path in csvs:
        code = cli_main(["bench", "--n", "8,12", "--mode", "directed,undirected",
                         "--algo", "bsp,bcef", "--count", "25", "--csv", str(path)])
        assert code == 0
    import csv as csv_mod

    def stable_rows(path):
        with open(path) as handle:
            return [
                {k: v for k, v in row.items() if k != "elapsed_ms"}
                for row in csv_mod.DictReader(handle)
            ]

    if stable_rows(csvs[0]) != stable_rows(csvs[1]):
        problems.append("benchmark reruns disagree outside timing columns")
    capsys.readouterr()
    report(8, "reproducibility", not problems, "; ".join(problems) or
           f"{len(names)} regenerated files byte-identical, "
           "bench reruns identical outside timings")
