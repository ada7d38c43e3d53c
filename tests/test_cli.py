import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wideca

from wideca.cli import main
from wideca.contributions import REPORT_FIELDS


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_gen_uniform_writes_matrix_and_meta(tmp_path):
    out = tmp_path / "u.csv"
    assert run("gen", "uniform", "--rows", 6, "--cols", 9, "--seed", 7,
               "-o", out) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 6 and len(lines[0].split(",")) == 9
    meta = read_json(str(out) + ".meta.json")
    assert meta["config"]["seed"] == 7
    assert meta["config"]["command"] == "gen"
    assert "version" in meta


def test_gen_powerlaw_triplet_density(tmp_path):
    out = tmp_path / "p.tpl"
    assert run("gen", "powerlaw", "--rows", 425, "--cols", 1052,
               "--exponent", 2.49, "--seed", 7, "-o", out) == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("%425 1052 ")
    nnz = int(header.split()[2])
    density = nnz / (425 * 1052)
    assert abs(density - 0.059) <= 0.015  # oracle count vs reference regime


def test_gen_powerlaw_marginals_file(tmp_path):
    from wideca.store import TRIPLET, save_matrix
    sums = tmp_path / "sums.txt"
    sums.write_text("3\n\n1\n5\n2\n")
    out = tmp_path / "p.tpl"
    assert run("gen", "powerlaw", "--rows", 6, "--cols", 40, "--seed", 3,
               "--marginals", sums, "-o", out) == 0
    ref = tmp_path / "ref.tpl"
    m = wideca.gen_powerlaw_boolean(
        6, 40, 3, marginals=wideca.EmpiricalMarginals([3, 1, 5, 2]))
    save_matrix(m, str(ref), TRIPLET)
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("text, message", [
    ("2\n1.5\n", "marginal 1.5 is not a whole number in the int64 range"),
    ("2\nx\n", "line 2: bad marginals value 'x'"),
    ("", "empty marginals file"),
    ("2\n-1\n", "empirical marginal sums must be nonnegative"),
    ("inf\n", "marginal inf is not a whole number in the int64 range"),
], ids=["fraction", "text", "empty", "negative", "inf"])
def test_exit_code_bad_marginals_file(tmp_path, capsys, text, message):
    sums = tmp_path / "sums.txt"
    sums.write_text(text)
    out = tmp_path / "p.tpl"
    assert run("gen", "powerlaw", "--rows", 6, "--cols", 40,
               "--marginals", sums, "-o", out) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("exponent", ["nan", "inf", "-inf", "1.0"])
def test_exit_code_bad_exponent(tmp_path, capsys, exponent):
    message = ("error: exponent must be finite and exceed 1, "
               f"got {float(exponent)}\n")
    out = tmp_path / "p.tpl"
    assert run("gen", "powerlaw", "--rows", 20, "--cols", 50,
               f"--exponent={exponent}", "-o", out) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()
    out = tmp_path / "t.csv"
    assert run("reproduce", "--table", "4", "--dims", 1052, "--seeds", 1,
               f"--exponent={exponent}", "-o", out) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_gen_signal(tmp_path):
    out = tmp_path / "s.txt"
    assert run("gen", "signal", "--len", 5000, "--start", 6800, "--seed", 7,
               "-o", out) == 0
    vals = np.loadtxt(out)
    assert vals.size == 5000
    assert (vals > 0).all()


def test_embed_roundtrip(tmp_path):
    sig = tmp_path / "s.txt"
    run("gen", "signal", "--len", 3000, "--start", 100, "--seed", 1, "-o", sig)
    out = tmp_path / "e.csv"
    assert run("embed", "--signal", sig, "--windows", 5, "--stride", 500,
               "--length", 200, "-o", out) == 0
    m = np.loadtxt(out, delimiter=",")
    assert m.shape == (5, 200)
    assert (m == np.loadtxt(sig)[np.arange(5)[:, None] * 500
                                 + np.arange(200)[None, :]]).all()


def test_analyze_report_files(tmp_path):
    mat = tmp_path / "u.csv"
    run("gen", "uniform", "--rows", 86, "--cols", 100, "--seed", 1, "-o", mat)
    out = tmp_path / "report"
    assert run("analyze", mat, "-o", out) == 0
    doc = read_json(str(out) + ".json")
    assert tuple(doc["report"].keys()) == REPORT_FIELDS
    assert doc["report"]["rel_mean"] == pytest.approx(0.86, abs=1e-10)
    assert doc["elapsed_seconds"] > 0
    assert doc["config"]["include_trivial"] is True
    header, row = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert header == ",".join(REPORT_FIELDS)
    assert len(row.split(",")) == len(REPORT_FIELDS)


def test_analyze_zero_column_excluded(tmp_path):
    mat = tmp_path / "m.csv"
    mat.write_text("1,0,2\n3,0,1\n2,0,2\n")
    out = tmp_path / "rep"
    assert run("analyze", mat, "-o", out) == 0
    doc = read_json(str(out) + ".json")
    assert doc["report"]["n_cols_effective"] == 2
    assert doc["report"]["dim"] == 3
    assert doc["excluded_cols"] == [1]


def test_analyze_include_trivial_false(tmp_path):
    mat = tmp_path / "m.csv"
    run("gen", "uniform", "--rows", 10, "--cols", 20, "--seed", 2, "-o", mat)
    out = tmp_path / "rep"
    assert run("analyze", mat, "--include-trivial", "false", "-o", out) == 0
    doc = read_json(str(out) + ".json")
    assert doc["report"]["nu"] == 9
    assert doc["report"]["rel_mean"] == pytest.approx(9 / 20, abs=1e-10)


def test_fit_exact_synthetic_sums(tmp_path):
    n = 400
    k = np.arange(1, n)
    vals = ((n - k) / n) ** (-1 / 1.5)
    mat = tmp_path / "m.csv"
    mat.write_text(",".join("%.17g" % v for v in
                            np.concatenate([vals, [vals[-1] * 2]])) + "\n")
    out = tmp_path / "fit.json"
    assert run("fit", mat, "-o", out, "--x-max", "inf") == 0
    doc = read_json(out)
    assert doc["fit"]["alpha"] == pytest.approx(1.5, abs=1e-9)
    assert doc["fit"]["r_squared"] == pytest.approx(1.0, abs=1e-12)


def test_fit_powerlaw_matrix_and_points_dump(tmp_path):
    mat = tmp_path / "p.tpl"
    run("gen", "powerlaw", "--rows", 425, "--cols", 1052, "--seed", 7,
        "-o", mat)
    out = tmp_path / "fit.json"
    pts = tmp_path / "pts.csv"
    assert run("fit", mat, "--format", "triplet", "--x-min", 12,
               "--points-out", pts, "-o", out) == 0
    doc = read_json(out)
    assert 1.2 <= doc["fit"]["alpha"] <= 2.0
    lines = pts.read_text().strip().splitlines()
    assert lines[0] == "x,ccdf"
    assert len(lines) > 10


def test_fit_insufficient_points_exit_code(tmp_path):
    mat = tmp_path / "m.csv"
    mat.write_text("3,3,3\n")
    assert run("fit", mat, "-o", tmp_path / "f.json") == 1


def test_reproduce_table1(tmp_path):
    out = tmp_path / "t1.csv"
    assert run("reproduce", "--table", "1", "--dims", "100,300", "--seeds", 2,
               "-o", out) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "dim" and "abs_mean" in header and "abs_mean_min" in header
    assert len(lines) == 3
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert float(rows[0]["rel_mean"]) == pytest.approx(86 / 100, abs=1e-10)
    assert float(rows[1]["rel_mean"]) == pytest.approx(86 / 300, abs=1e-10)
    meta = read_json(str(out) + ".meta.json")
    assert meta["config"]["table"] == "1"


def test_reproduce_table4(tmp_path):
    out = tmp_path / "t4.csv"
    assert run("reproduce", "--table", "4", "--dims", "1052", "--seeds", 1,
               "-o", out) == 0
    lines = out.read_text().strip().splitlines()
    cols = lines[0].split(",")
    row = dict(zip(cols, lines[1].split(",")))
    assert 0.008 <= float(row["abs_mean"]) <= 0.016
    assert "density" in cols


def test_reproduce_table3_four_rows_needs_allow_large(tmp_path):
    out = tmp_path / "t3.csv"
    assert run("reproduce", "--table", "3",
               "--dims", "1052,10520,105200,1052000", "--seeds", 1,
               "-o", out) == 1  # budget gate
    assert run("reproduce", "--table", "3", "--seeds", 1, "-o", out) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3  # default dims stop at the desk-scale budget
    exps = [float(line.split(",")[2]) for line in lines[1:]]
    for e in exps:
        assert -2.0 <= e <= -1.3


def test_reproduce_table3_four_rows_with_allow_large(tmp_path):
    # the full four-dimensionality sweep, budget-gated; one seed to keep the
    # suite quick
    out = tmp_path / "t3full.csv"
    assert run("reproduce", "--table", "3",
               "--dims", "1052,10520,105200,1052000", "--seeds", 1,
               "--allow-large", "-o", out) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5
    exps = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(-2.0 <= e <= -1.3 for e in exps)


def test_reproduce_table2_synthetic(tmp_path):
    out = tmp_path / "t2.csv"
    assert run("reproduce", "--table", "2-synthetic", "--dims", "100,1000",
               "--seeds", 2, "-o", out) == 0
    lines = out.read_text().strip().splitlines()
    cols = lines[0].split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines[1:]]
    for r in rows:
        dim = float(r["dim"])
        assert abs(float(r["abs_mean"]) - 1 / dim) <= 0.01 / dim
    assert float(rows[0]["abs_sd"]) > float(rows[1]["abs_sd"])


def test_exit_code_validation_error(tmp_path):
    mat = tmp_path / "bad.csv"
    mat.write_text("1,-2\n")
    assert run("analyze", mat, "-o", tmp_path / "r") == 1


def test_exit_code_overflowing_totals(tmp_path, capsys):
    mat = tmp_path / "huge.csv"
    mat.write_text("1e308,1e308\n1e308,1e308\n")
    assert run("analyze", mat, "-o", tmp_path / "r") == 1
    err = capsys.readouterr().err
    assert err.strip() == "error: matrix totals overflow float64"
    assert not (tmp_path / "r.csv").exists()


def test_exit_code_workers_below_one(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    mat.write_text("1,2\n3,4\n")
    for workers in (0, -3):
        assert run("analyze", mat, "--workers", workers, "-o", tmp_path / "r") == 1
        err = capsys.readouterr().err
        assert err.strip() == f"error: workers must be at least 1, got {workers}"
    assert not (tmp_path / "r.csv").exists()


def test_exit_code_reproduce_zero_seeds(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert run("reproduce", "--table", "1", "--dims", "100", "--seeds", 0,
               "-o", out) == 1
    assert capsys.readouterr().err.strip() == "error: seeds must be at least 1, got 0"
    assert not out.exists()


@pytest.mark.parametrize("table", ["1", "2-synthetic", "3", "4"])
@pytest.mark.parametrize("dims, bad", [("100,-1", -1), ("0", 0)])
def test_exit_code_reproduce_dim_below_one(tmp_path, capsys, table, dims, bad):
    out = tmp_path / "t.csv"
    assert run("reproduce", "--table", table, "--dims", dims, "-o", out) == 1
    err = capsys.readouterr().err
    assert err == f"error: dimension {bad} must be at least 1\n"
    assert not out.exists()


@pytest.mark.parametrize("header, message", [
    ("%3 2 -1", "line 1: negative triplet count -1"),
    ("%0 2 2", "line 1: matrix dimensions must be positive"),
    ("%3 2 100000000000", "line 4: expected 100000000000 triplets, file ended"),
], ids=["negative-nnz", "zero-rows", "huge-nnz"])
def test_exit_code_bad_triplet_header(tmp_path, capsys, header, message):
    mat = tmp_path / "m.tpl"
    mat.write_text(header + "\n0 0 1\n1 0 1\n")
    assert run("analyze", mat, "--format", "triplet", "-o", tmp_path / "r") == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not (tmp_path / "r.csv").exists()


def test_exit_code_out_of_memory(tmp_path):
    # A column count of 10^12 needs 7.28 TiB of CSC column pointers. The
    # command runs under a 4 GiB address-space limit, so the allocation
    # fails at once whatever the host's overcommit policy.
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    mat = tmp_path / "m.tpl"
    mat.write_text("%3 1000000000000 1\n0 0 1\n")
    src = str(Path(wideca.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "wideca.cli", "analyze", str(mat),
         "--format", "triplet", "-o", str(tmp_path / "r")],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=limit_memory)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: not enough memory: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("kind, denominator", [
    ("uniform", "eigenvalues"), ("embedding", "axis_inertia")])
def test_analyze_diagnostics(tmp_path, kind, denominator):
    mat = tmp_path / "m.csv"
    if kind == "uniform":
        run("gen", "uniform", "--rows", 86, "--cols", 100, "--seed", 1,
            "-o", mat)
    else:
        sig = tmp_path / "s.txt"
        run("gen", "signal", "--len", 95_011, "--seed", 1, "-o", sig)
        run("embed", "--signal", sig, "--windows", 86, "--stride", 1000,
            "--length", 100, "-o", mat)
    out = tmp_path / "report"
    assert run("analyze", mat, "-o", out) == 0
    doc = read_json(str(out) + ".json")
    diag = doc["diagnostics"]
    assert diag["relative_denominator"] == denominator
    assert (diag["inertia_gap"] <= 1e-12) == (denominator == "eigenvalues")
    assert tuple(doc["report"].keys()) == REPORT_FIELDS


def test_dense_commands_do_not_load_scipy(tmp_path):
    script = (
        "import sys\n"
        "import wideca.cli\n"
        "assert 'scipy' not in sys.modules, 'import loaded scipy'\n"
        "assert wideca.cli.main(['gen', 'uniform', '--rows', '4', '--cols', '9',"
        " '-o', 'u.csv']) == 0\n"
        "assert wideca.cli.main(['analyze', 'u.csv', '-o', 'r']) == 0\n"
        "assert 'scipy' not in sys.modules, 'gen uniform + analyze loaded scipy'\n"
    )
    src = str(Path(wideca.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "r.csv").exists()


def test_exit_code_bad_flags():
    assert run("analyze") == 1
    assert run("gen", "uniform", "--rows", 3, "--cols", "x", "-o", "/tmp/x") == 1
    assert run("nonsense") == 1


def test_exit_code_io_error(tmp_path):
    assert run("analyze", tmp_path / "missing.csv", "-o", tmp_path / "r") == 3


def test_exit_code_numerical_error(tmp_path, monkeypatch):
    import wideca.cli as cli
    from wideca.errors import NumericalError

    def boom(*a, **k):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli, "decompose", boom)
    mat = tmp_path / "m.csv"
    mat.write_text("1,2\n3,4\n")
    assert run("analyze", mat, "-o", tmp_path / "r") == 2


def test_rerun_same_config_identical_payload(tmp_path):
    m1, m2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run("gen", "uniform", "--rows", 8, "--cols", 30, "--seed", 5, "-o", m1)
    run("gen", "uniform", "--rows", 8, "--cols", 30, "--seed", 5, "-o", m2)
    assert m1.read_bytes() == m2.read_bytes()
    run("analyze", m1, "-o", tmp_path / "r1")
    run("analyze", m2, "-o", tmp_path / "r2")
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
    rep1 = read_json(tmp_path / "r1.json")["report"]
    rep2 = read_json(tmp_path / "r2.json")["report"]
    assert rep1 == rep2


def test_fit_infinite_cutoff_serializes_as_null(tmp_path):
    mat = tmp_path / "m.csv"
    mat.write_text(",".join(str(v) for v in range(1, 40)) + "\n")
    out = tmp_path / "f.json"
    assert run("fit", mat, "--x-max", "inf", "-o", out) == 0
    assert read_json(out)["fit"]["x_max"] is None


def _pin_blas(monkeypatch, cpus, openblas_threads):
    """A process with ``cpus`` usable CPUs and OpenBLAS at the given thread
    count (None: no BLAS thread variable set)."""
    monkeypatch.setattr("wideca.store.os.sched_getaffinity",
                        lambda pid: set(range(cpus)))
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    if openblas_threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(openblas_threads))


@pytest.mark.parametrize("openblas_threads, flag, recorded", [
    (None, [], 1), (1, [], 2), (None, ["--workers", "3"], 3)])
def test_resolved_workers_recorded(tmp_path, monkeypatch, openblas_threads,
                                   flag, recorded):
    _pin_blas(monkeypatch, 2, openblas_threads)
    mat = tmp_path / "u.csv"
    run("gen", "uniform", "--rows", 5, "--cols", 40, "--seed", 1, "-o", mat)
    assert run("analyze", mat, *flag, "-o", tmp_path / "r") == 0
    assert read_json(tmp_path / "r.json")["config"]["workers"] == recorded
    out = tmp_path / "t.csv"
    assert run("reproduce", "--table", "1", "--dims", "100", "--seeds", 1,
               *flag, "-o", out) == 0
    assert read_json(str(out) + ".meta.json")["config"]["workers"] == recorded


def test_analyze_diagnostics_block_count(tmp_path, monkeypatch):
    mat = tmp_path / "u.csv"
    run("gen", "uniform", "--rows", 10, "--cols", 1001, "--seed", 1, "-o", mat)
    assert run("analyze", mat, "-o", tmp_path / "one") == 0
    assert read_json(tmp_path / "one.json")["diagnostics"]["blocks"] == 1
    monkeypatch.setattr("wideca.store._BLOCK_ELEMS", 1000)  # 100 columns
    assert run("analyze", mat, "-o", tmp_path / "many") == 0
    assert read_json(tmp_path / "many.json")["diagnostics"]["blocks"] == 11


def test_analyze_default_workers_multi_block(tmp_path, monkeypatch):
    """The default's pool runs on a grid of several blocks, and the report
    equals the one-worker report byte for byte."""
    _pin_blas(monkeypatch, 2, 1)
    monkeypatch.setattr("wideca.store._BLOCK_ELEMS", 1000)  # 100 columns
    mat = tmp_path / "u.csv"
    run("gen", "uniform", "--rows", 10, "--cols", 1001, "--seed", 1, "-o", mat)
    assert run("analyze", mat, "--workers", 1, "-o", tmp_path / "one") == 0
    assert run("analyze", mat, "-o", tmp_path / "dflt") == 0
    meta = read_json(tmp_path / "dflt.json")
    assert meta["config"]["workers"] == 2
    assert meta["diagnostics"]["blocks"] == 11
    assert (tmp_path / "dflt.csv").read_bytes() == \
        (tmp_path / "one.csv").read_bytes()


@pytest.mark.parametrize("flag", ["--start", "--tick"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_exit_code_gen_signal_non_finite(tmp_path, capsys, flag, value):
    out = tmp_path / "s.txt"
    assert run("gen", "signal", "--len", 10, "--start", 5, f"{flag}={value}",
               "-o", out) == 1
    err = capsys.readouterr().err
    name = flag[2:]
    assert err == f"error: {name} must be finite and positive, got {value}\n"
    assert not out.exists()
