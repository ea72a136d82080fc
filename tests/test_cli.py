import csv
import os
import subprocess
import sys
import tracemalloc

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
from hamdecomp import cli
from hamdecomp.cli import MAX_N, main
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


@pytest.mark.parametrize("bad,problem", [
    (17, "vertex 17 at position 4001 repeats"),
    (5001, "vertex 5001 at position 4001 is outside 1..5000"),
])
def test_bad_cycle_error_names_one_vertex(capsys, tmp_path, bad, problem):
    # the message names the first misfit, not the whole 5000-vertex line
    y = list(range(1, 5001))
    y[4000] = bad
    path = tmp_path / "bad.txt"
    path.write_text("p hd undirected 5000\nx" + " %d" * 5000 % tuple(range(1, 5001))
                    + "\ny" + " %d" * 5000 % tuple(y) + "\n")
    code, out, err = run(capsys, "solve", path)
    assert code == 64
    assert out == ""
    assert err == f"error: line 3: vertex sequence is not a permutation of 1..5000: {problem}\n"
    assert len(err) < 200


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


def _never_generated(*args):
    raise AssertionError("an instance was generated")


@pytest.mark.parametrize("argv,n", [
    (["bench", "--n", "99999999999", "--count", "1"], 99999999999),
    (["gen", "--n", "99999999999", "--mode", "directed"], 99999999999),
    (["bench", "--n", f"5,{MAX_N + 1}", "--count", "1"], MAX_N + 1),
    (["gen", "--n", MAX_N + 1, "--mode", "undirected"], MAX_N + 1),
    (["bench", "--n", "2", "--count", "1"], 2),
])
def test_size_out_of_range_is_an_input_error(capsys, monkeypatch, tmp_path, argv, n):
    # the size is checked before anything is generated, so a huge one
    # allocates nothing: before the check it ended in a MemoryError
    # traceback and exit 1, the code for NONE
    monkeypatch.setattr(cli, "gen_instance", _never_generated)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert err == f"error: --n must be at least 3 and at most {MAX_N}, got {n}\n"
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["gen", "bench"])
def test_help_names_the_largest_size(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "200")  # one line per option
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"from 3 to {MAX_N}" in capsys.readouterr().out


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


def test_bench_rows_keep_sub_millisecond_times(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "bench", "--n", 8, "--mode", "directed,undirected",
                     "--algo", "bsp,bcef", "--count", 3, "--csv", csv_path)
    assert code == 0
    with open(csv_path) as handle:
        times = [float(row["elapsed_ms"]) for row in csv.DictReader(handle)]
    assert len(times) == 12
    assert all(t > 0 for t in times)


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_bench_rows_match_solve_certificates(capsys, tmp_path, mode):
    suite = tmp_path / "suite"
    assert run(capsys, "gen", "--n", 10, "--mode", mode, "--count", 4, "--seed", 5,
               "--out", suite)[0] == 0
    csv_path = tmp_path / "rows.csv"
    assert run(capsys, "bench", "--n", 10, "--mode", mode, "--algo", "bsp,bcef",
               "--count", 4, "--seed", 5, "--csv", csv_path)[0] == 0
    with open(csv_path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 8
    for row in rows:
        inst_path = suite / f"inst_{mode}_10_{row['seed']}.txt"
        _, out, _ = run(capsys, "solve", inst_path, "--algo", row["algo"])
        cert = parse_certificate(out)
        assert (row["status"], int(row["nodes"]), int(row["edges_fixed"])) == (
            cert.status.value, cert.nodes, cert.edges_fixed)


def test_bench_generates_its_tasks_as_it_solves(capsys, monkeypatch):
    """A bench of a million runs interrupted at its first solve has built no
    task list: a list of them would take about 112 MB."""
    def interrupted(limits, task):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_bench_row", interrupted)
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "bench", "--n", 3, "--count", 1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "interrupted after 0 of 1000000 runs" in err
    assert peak < 4 * 2**20


def test_bench_rejects_empty_sizes(capsys):
    code, _, err = run(capsys, "bench", "--n", ",")
    assert code == 64
    assert "empty" in err


@pytest.mark.parametrize("option,value,message", [
    ("--n", "5,5", "duplicate size 5"),
    ("--n", "05,5", "duplicate size 5"),
    ("--mode", "directed,directed", "duplicate mode directed"),
    ("--algo", "bcef,bcef", "duplicate algorithm bcef"),
])
def test_bench_rejects_a_repeated_value(capsys, tmp_path, option, value, message):
    # a repeated value would be solved twice and counted twice in the table
    csv_path = tmp_path / "out.csv"
    argv = {"--n": "5", option: value}
    code, out, err = run(capsys, "bench", *[t for kv in argv.items() for t in kv],
                         "--count", "1", "--csv", csv_path)
    assert code == 64
    assert err == f"error: {message}\n"
    assert out == ""
    assert not csv_path.exists()


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


def test_solve_and_verify_read_past_a_byte_order_mark(capsys, feasible6, tmp_path):
    """Editors on Windows save UTF-8 with a leading BOM; the header after it
    is still the first line."""
    inst_path = tmp_path / "bom.txt"
    inst_path.write_bytes(b"\xef\xbb\xbf" + write_instance(feasible6).encode())
    code, out, err = run(capsys, "solve", inst_path, "--algo", "bcef")
    assert (code, err) == (0, "")
    cert_path = tmp_path / "cert.txt"
    cert_path.write_bytes(b"\xef\xbb\xbf" + out.encode())
    code, out, err = run(capsys, "verify", inst_path, cert_path)
    assert (code, err) == (0, "")
    assert "verified" in out


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


def test_bench_has_no_jobs_option(capsys, tmp_path):
    csv_path = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--n", "6", "--count", "1", "--jobs", "2", "--csv", str(csv_path)])
    assert excinfo.value.code == 64
    assert "--jobs" in capsys.readouterr().err
    assert not csv_path.exists()


def test_cli_import_leaves_multiprocessing_unloaded():
    # bench solves its rows one after another in this process, so nothing in
    # the front end may pull in a process pool
    code = ("import sys, hamdecomp.cli; "
            "sys.exit('concurrent.futures.process' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["solve", "gen", "bench", "verify", "bench --csv"])
def test_failed_write_exits_64_with_one_error_line(tmp_path, rigid6_file, command):
    # /dev/full takes no byte: a write there fails as on a full disk, and must
    # not read as exit 1, NONE or REFUTED
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text("s NONE\nt 0 0 0\n")
    argv = {
        "solve": ["solve", rigid6_file],
        "gen": ["gen", "--n", "6", "--mode", "undirected", "--out", tmp_path / "gen"],
        "bench": ["bench", "--n", "5", "--count", "2"],
        "verify": ["verify", rigid6_file, cert_path],
        "bench --csv": ["bench", "--n", "5", "--count", "2", "--csv", "/dev/full"],
    }[command]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "hamdecomp.cli", *map(str, argv)],
            stdout=full, stderr=subprocess.PIPE, env=env,
        )
    assert proc.returncode == 64
    assert b"Traceback" not in proc.stderr
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write "), lines


@pytest.mark.parametrize("command", ["solve", "gen", "bench", "verify"])
def test_closed_stdout_exits_141_quietly(tmp_path, rigid6_file, command):
    # 1 means NONE or REFUTED, so a reader that closes the pipe early, as
    # ``| head -1`` does, must not turn a verified certificate into exit 1
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text("s NONE\nt 0 0 0\n")
    argv = {
        "solve": [rigid6_file],
        "gen": ["--n", "6", "--mode", "undirected", "--out", tmp_path / "gen"],
        "bench": ["--n", "6", "--count", "2"],
        "verify": [rigid6_file, cert_path],
    }[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hamdecomp.cli", command, *map(str, argv)],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""
