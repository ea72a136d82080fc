import csv
import os
import subprocess
import sys

import pytest

from hamdecomp import (
    Mode,
    SolveStatus,
    gen_instance,
    parse_certificate,
    parse_instance,
    write_certificate,
    write_instance,
)
from hamdecomp.cli import main
from hamdecomp.instances import Certificate


@pytest.fixture
def feasible6_file(tmp_path, feasible6):
    path = tmp_path / "feasible6.txt"
    path.write_text(write_instance(feasible6))
    return path


@pytest.fixture
def rigid6_file(tmp_path, rigid6):
    path = tmp_path / "rigid6.txt"
    path.write_text(write_instance(rigid6))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("algo", ["bsp", "bcef"])
def test_solve_feasible(capsys, feasible6_file, algo):
    code, out, _ = run(capsys, "solve", feasible6_file, "--algo", algo)
    assert code == 0
    cert = parse_certificate(out)
    assert cert.status is SolveStatus.DECOMPOSED


@pytest.mark.parametrize("algo", ["bsp", "bcef"])
def test_solve_rigid(capsys, rigid6_file, algo):
    code, out, _ = run(capsys, "solve", rigid6_file, "--algo", algo)
    assert code == 1
    assert parse_certificate(out).status is SolveStatus.NONE_EXISTS


def test_solve_node_limit_times_out(capsys, feasible6_file):
    code, out, _ = run(capsys, "solve", feasible6_file, "--node-limit", 1)
    assert code == 2
    assert parse_certificate(out).status is SolveStatus.TIMED_OUT


def test_solve_unreadable_file(capsys, tmp_path):
    code, _, err = run(capsys, "solve", tmp_path / "missing.txt")
    assert code == 64
    assert "error" in err


def test_solve_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("p hd undirected 6\nx 1 2 3 4 5 6\n")
    code, _, err = run(capsys, "solve", path)
    assert code == 64
    assert "line" in err


def test_gen_writes_deterministic_files(capsys, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code, _, _ = run(capsys, "gen", "--n", 16, "--mode", "directed",
                         "--count", 4, "--seed", 7, "--out", out)
        assert code == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == [f"inst_directed_16_{s}.txt" for s in (10, 7, 8, 9)]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    inst = parse_instance((out_a / "inst_directed_16_7.txt").read_text())
    assert inst == gen_instance(16, Mode.DIRECTED, 7)


def test_gen_rejects_small_n(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "--n", 2, "--mode", "undirected", "--out", tmp_path)
    assert code == 64
    assert "at least 3" in err


def test_bench_csv_and_summary(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "bench", "--n", "8,10", "--mode", "directed,undirected",
                       "--algo", "bsp,bcef", "--count", 3, "--csv", csv_path)
    assert code == 0
    with open(csv_path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2 * 2 * 2 * 3
    assert list(rows[0]) == ["mode", "n", "seed", "algo", "status",
                             "elapsed_ms", "nodes", "edges_fixed"]
    assert {r["status"] for r in rows} <= {"DECOMPOSED", "NONE", "TIMEOUT"}
    assert "feas N" in out


def test_bench_reruns_match_outside_timings(capsys, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run(capsys, "bench", "--n", "8", "--mode", "undirected",
                         "--algo", "bcef", "--count", 5, "--csv", path)
        assert code == 0
    contents = []
    for path in paths:
        with open(path) as handle:
            contents.append([
                {k: v for k, v in row.items() if k != "elapsed_ms"}
                for row in csv.DictReader(handle)
            ])
    assert contents[0] == contents[1]


def test_bench_parallel_matches_sequential(capsys, tmp_path):
    seq_path = tmp_path / "seq.csv"
    par_path = tmp_path / "par.csv"
    args = ["bench", "--n", "8", "--mode", "directed", "--algo", "bcef", "--count", 6]
    assert run(capsys, *args, "--csv", seq_path)[0] == 0
    assert run(capsys, *args, "--csv", par_path, "--jobs", 2)[0] == 0

    def stable_rows(path):
        with open(path) as handle:
            return [
                {k: v for k, v in row.items() if k != "elapsed_ms"}
                for row in csv.DictReader(handle)
            ]

    assert stable_rows(seq_path) == stable_rows(par_path)


def test_bench_rejects_empty_sizes(capsys):
    code, _, err = run(capsys, "bench", "--n", ",")
    assert code == 64
    assert "empty" in err


def test_verify_accepts_solver_output(capsys, feasible6_file, tmp_path):
    code, out, _ = run(capsys, "solve", feasible6_file, "--algo", "bcef")
    assert code == 0
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(out)
    code, out, _ = run(capsys, "verify", feasible6_file, cert_path)
    assert code == 0
    assert "verified" in out


def test_verify_refutes_input_copy(capsys, feasible6_file, feasible6, tmp_path):
    cert = Certificate(SolveStatus.DECOMPOSED, feasible6.x.vertices,
                       feasible6.y.vertices, 0, 0, 0)
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(write_certificate(cert))
    code, _, err = run(capsys, "verify", feasible6_file, cert_path)
    assert code == 1
    assert "refuted" in err


def test_verify_none_exhaustive(capsys, rigid6_file, tmp_path):
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text("s NONE\nt 0 0 0\n")
    code, out, _ = run(capsys, "verify", rigid6_file, cert_path, "--exhaustive")
    assert code == 0
    assert "exhaustive" in out


def test_verify_none_exhaustive_refutes_feasible(capsys, feasible6_file, tmp_path):
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text("s NONE\nt 0 0 0\n")
    code, _, err = run(capsys, "verify", feasible6_file, cert_path, "--exhaustive")
    assert code == 1
    assert "refuted" in err


def test_verify_timeout_certificate_is_vacuous(capsys, feasible6_file, tmp_path):
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text("s TIMEOUT\nt 1 2 3\n")
    code, out, _ = run(capsys, "verify", feasible6_file, cert_path)
    assert code == 0


def test_verify_exhaustive_size_guard(capsys, tmp_path):
    inst = gen_instance(16, Mode.UNDIRECTED, 0)
    inst_path = tmp_path / "inst.txt"
    inst_path.write_text(write_instance(inst))
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text("s NONE\nt 0 0 0\n")
    code, _, err = run(capsys, "verify", inst_path, cert_path, "--exhaustive")
    assert code == 64
    assert "n=14" in err


def test_closed_loop_solve_verify(capsys, tmp_path):
    for mode in ("directed", "undirected"):
        for seed in range(6):
            inst = gen_instance(8, Mode(mode), seed)
            inst_path = tmp_path / f"{mode}_{seed}.txt"
            inst_path.write_text(write_instance(inst))
            for algo in ("bsp", "bcef"):
                code, out, _ = run(capsys, "solve", inst_path, "--algo", algo)
                assert code in (0, 1)
                cert_path = tmp_path / "cert.txt"
                cert_path.write_text(out)
                verify_code, _, _ = run(capsys, "verify", inst_path, cert_path, "--exhaustive")
                assert verify_code == 0


def test_usage_error_exits_64(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["solve"])  # missing instance path
    assert excinfo.value.code == 64


@pytest.mark.parametrize("argv", [
    ["--time-limit", "-1"],
    ["--node-limit", "-5"],
    ["--time-limit", "nan"],
])
def test_solve_rejects_negative_budget(capsys, feasible6_file, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", str(feasible6_file), *argv])
    assert excinfo.value.code == 64
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--time-limit", "-1"], ["--node-limit", "-5"]])
def test_bench_rejects_negative_budget(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--n", "6", "--count", "1", *argv])
    assert excinfo.value.code == 64
    assert "non-negative" in capsys.readouterr().err


def test_solve_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"p hd undirected 6\n\xff\n")
    code, _, err = run(capsys, "solve", path)
    assert code == 64
    assert "cannot read" in err


def test_verify_non_utf8_certificate(capsys, feasible6_file, tmp_path):
    cert_path = tmp_path / "cert.txt"
    cert_path.write_bytes(b"s NONE\n\xff\n")
    code, _, err = run(capsys, "verify", feasible6_file, cert_path)
    assert code == 64
    assert "cannot read" in err


@pytest.mark.parametrize("out", ["a_file", "a_file/sub"])
def test_gen_out_blocked_by_a_file(capsys, tmp_path, out):
    (tmp_path / "a_file").write_text("taken\n")
    code, _, err = run(capsys, "gen", "--n", "6", "--mode", "undirected",
                       "--out", tmp_path / out)
    assert code == 64
    assert "cannot write" in err


def test_gen_instance_path_taken_by_a_directory(capsys, tmp_path):
    (tmp_path / "inst_undirected_6_0.txt").mkdir()
    code, _, err = run(capsys, "gen", "--n", "6", "--mode", "undirected",
                       "--out", tmp_path)
    assert code == 64
    assert "cannot write" in err


def test_bench_csv_in_missing_directory(capsys, tmp_path):
    code, _, err = run(capsys, "bench", "--n", "6", "--count", "1",
                       "--csv", tmp_path / "missing" / "out.csv")
    assert code == 64
    assert "cannot write" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_rejects_jobs_below_one(capsys, tmp_path, jobs):
    csv_path = tmp_path / "out.csv"
    code, _, err = run(capsys, "bench", "--n", "6", "--count", "1",
                       "--jobs", jobs, "--csv", csv_path)
    assert code == 64
    assert "--jobs" in err
    assert not csv_path.exists()


def test_cli_import_leaves_multiprocessing_unloaded():
    # only ``bench --jobs N`` with N > 1 needs the process pool
    code = ("import sys, hamdecomp.cli; "
            "sys.exit('concurrent.futures.process' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
