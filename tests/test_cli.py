import json
import os
import re
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


@pytest.mark.parametrize("argv", [
    ("gen", "powerlaw", "--rows", 425, "--cols", 100, "--exponent", 300),
    ("reproduce", "--table", "3", "--dims", 200, "--seeds", 1,
     "--exponent", 400),
    ("reproduce", "--table", "4", "--dims", 200, "--seeds", 1,
     "--exponent", 400)], ids=["gen-powerlaw", "table-3", "table-4"])
def test_exit_code_exponent_underflowing_body(tmp_path, capsys, argv):
    """x^-exponent underflows to 0 over the whole body: rejected in one line
    before any draw, not divided 0/0 into a matrix of one entry per column."""
    exponent = float(argv[-1])
    out = tmp_path / "out"
    assert run(*argv, "-o", out) == 1
    assert capsys.readouterr().err == (
        f"error: exponent {exponent} leaves the power-law body (sums 12 to "
        "425) no probability mass in float64\n")
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
    for line in lines[1:]:
        x, f = line.split(",")
        float(x), float(f)  # Python floats, not numpy reprs


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


def test_reproduce_table3_default_dims(tmp_path):
    out = tmp_path / "t3.csv"
    assert run("reproduce", "--table", "3", "--seeds", 1, "-o", out) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3  # default dims 1,052 and 10,520
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


def test_reproduce_table4_paper_dim_without_flag(tmp_path):
    out = tmp_path / "t4.csv"
    assert run("reproduce", "--table", "4", "--dims", "60000", "--seeds", 1,
               "-o", out) == 0
    assert out.read_text().splitlines()[1].startswith("60000,1,")


def test_allow_large_accepted_without_effect(tmp_path):
    csv = {}
    for name, flag in (("plain", []), ("flag", ["--allow-large"])):
        out = tmp_path / f"{name}.csv"
        assert run("reproduce", "--table", "1", "--dims", "100,1000",
                   "--seeds", 2, *flag, "-o", out) == 0
        csv[name] = out.read_bytes()
    assert csv["flag"] == csv["plain"]


@pytest.mark.parametrize("argv", [
    ["gen", "uniform", "--rows", 2, "--cols", 2],
    ["gen", "powerlaw", "--rows", 4, "--cols", 3],
    ["gen", "signal", "--len", 10],
    ["reproduce", "--table", "1", "--dims", 100, "--seeds", 1],
], ids=["uniform", "powerlaw", "signal", "reproduce"])
@pytest.mark.parametrize("seed", [-1, -5])
def test_exit_code_negative_seed(tmp_path, capsys, argv, seed):
    out = tmp_path / "x.csv"
    assert run(*argv, "--seed", seed, "-o", out) == 1
    assert capsys.readouterr().err == f"error: seed must be at least 0, got {seed}\n"
    assert not out.exists()


def _unreachable(*args, **kw):
    raise AssertionError("built before the memory check")


@pytest.mark.parametrize("argv, memory, message, spy", [
    # 8 * (86 * 100 + 5 * 100 + 5 * 86^2) bytes
    (["reproduce", "--table", "1", "--dims", 100, "--seeds", 1], 1_000,
     "table 1 at dimension 100 needs at least 368,640 bytes",
     "wideca.tables.gen_uniform"),
    (["gen", "uniform", "--rows", 2, "--cols", 2], 31,
     "a 2 x 2 uniform matrix needs at least 32 bytes",
     "wideca.generators.ordered_block_map"),
    # CSC storage at the law's mean sum, 29.0 a column, 12 bytes an entry
    (["gen", "powerlaw", "--rows", 425, "--cols", 100], 35_000,
     "a 425 x 100 power-law boolean matrix needs at least 35,204 bytes",
     "wideca.generators.ParametricMarginals.sample"),
    # the mean fits; the 3,047 entries seed 4 draws do not
    (["gen", "powerlaw", "--rows", 425, "--cols", 100, "--seed", 4], 36_000,
     "a 425 x 100 power-law boolean matrix needs at least 36,968 bytes",
     "wideca.generators.ordered_block_map"),
    # 8 * (2 * 2 + 5 * 2 + 5 * 2^2) bytes, checked after the file is read
    (["analyze", "IN"], 271,
     "the analysis of a 2 x 2 matrix needs at least 272 bytes",
     "wideca.engine.ordered_block_map"),
    # the samples and two masks, 10 bytes a sample: 9,000 bytes, above the
    # 8 a sample once counted and below the walk's peak, is refused
    (["gen", "signal", "--len", 1000], 9_000,
     "a 1000-sample random walk needs at least 10,000 bytes",
     "wideca.generators.rng_from_seed"),
    (["embed", "--signal", "SIG", "--windows", 2, "--stride", 1,
      "--length", 2], 31, "a 2 x 2 embedding needs at least 32 bytes",
     "numpy.lib.stride_tricks.sliding_window_view"),
], ids=["reproduce", "gen-uniform", "gen-powerlaw-sums", "gen-powerlaw-nnz",
        "analyze", "gen-signal", "embed"])
def test_exit_code_not_enough_memory(tmp_path, monkeypatch, capsys, argv,
                                     memory, message, spy):
    """Each site refuses a job larger than the physical memory with one
    line, before it builds anything, and writes no output."""
    from wideca import store
    inputs = {"IN": tmp_path / "in.csv", "SIG": tmp_path / "sig.txt"}
    inputs["IN"].write_text("1,2\n3,4\n")
    inputs["SIG"].write_text("1\n2\n3\n")
    monkeypatch.setattr(store, "_PHYSICAL_MEMORY", memory)
    monkeypatch.setattr(spy, _unreachable)
    out = tmp_path / "out"
    assert run(*[inputs.get(a, a) for a in argv], "-o", out) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.fullmatch(f"error: {message}, more than the {memory:,} bytes "
                        "of physical memory\n", err), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "sig.txt"]


def test_dense_csv_of_sparse_storage_checked_against_memory(tmp_path, monkeypatch,
                                                            capsys):
    """The dense copy that dense-csv writes from sparse storage is refused
    with one line before it is allocated and before the file is opened."""
    import tracemalloc
    from wideca import store
    monkeypatch.setattr(store, "_PHYSICAL_MEMORY", 10_000_000)  # CSC: 3.5 MB
    out = tmp_path / "p.csv"
    tracemalloc.start()
    try:
        code = run("gen", "powerlaw", "--rows", 425, "--cols", 10_000,
                   "--format", "dense-csv", "-o", out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == (
        "error: not enough memory: a dense copy of a 425 x 10000 matrix needs "
        "at least 34,000,000 bytes, more than the 10,000,000 bytes of "
        "physical memory\n")
    assert peak < 34_000_000 // 4
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("text, message", [
    ("1,1e-320,2\n1,0,1\n", "column 1 sums to 1e-320"),
    ("1e-320,1e-320\n1e-320,1e-320\n", "row 0 sums to 2e-320"),
])
def test_exit_code_subnormal_marginal(tmp_path, capsys, text, message):
    mat = tmp_path / "m.csv"
    mat.write_text(text)
    assert run("analyze", mat, "-o", tmp_path / "r") == 1
    assert capsys.readouterr().err == (
        f"error: {message}, below the smallest normal float64 "
        "2.2250738585072014e-308\n")
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


def test_exit_code_huge_nnz_beyond_maxsize(tmp_path, capsys):
    mat = tmp_path / "m.tpl"
    mat.write_text("%3 4 99999999999999999999\n0 0 1\n")
    assert run("analyze", mat, "--format", "triplet", "-o", tmp_path / "r") == 1
    assert capsys.readouterr().err == \
        "error: line 3: expected 99999999999999999999 triplets, file ended\n"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("command", ["analyze", "fit"])
@pytest.mark.parametrize("header", [
    "%399999999999999999999 2 3", "%3 99999999999999999999 3",
    "%3 1152921504606846974 1", "%9223372036854775807 2 1",
    "%1152921504606846976 2 1", "%1152921504606846975 2 1",
])
def test_exit_code_triplet_dimension_too_large(tmp_path, capsys, command, header):
    # Dimensions numpy cannot hold an array of are refused at line 1,
    # before any array is built from them.
    mat = tmp_path / "m.tpl"
    mat.write_text(header + "\n0 0 1\n")
    out = tmp_path / ("r" if command == "analyze" else "r.json")
    assert run(command, mat, "--format", "triplet", "-o", out) == 1
    n_rows, n_cols, _ = header[1:].split()
    assert capsys.readouterr().err == (f"error: line 1: matrix dimensions "
                                       f"{n_rows} x {n_cols} exceed 2^59\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.tpl"]


# Text inputs with a byte that is not UTF-8: (command, bytes, line named).
# "after-8k" puts the byte past the first 8 KB, which a text read decodes
# at once; the first bad line is named, whichever rule it breaks; lines
# end at "\r" too, as they do for the vectorised read.
UNDECODABLE = {
    "dense-csv": ("analyze", b"1,2\n3,\xff\n", 2),
    "dense-csv-after-8k": ("analyze", b"1,2\n" * 5000 + b"1,\xff\n", 5001),
    "dense-csv-before-bad-value": ("analyze", b"1,2\n\xc3,4\n1,x\n", 2),
    "dense-csv-cr": ("analyze", b"1,2\r3,4\r\xff,1\r", 3),
    "triplet": ("analyze-triplet", b"%3 2 2\n0 0 1\n1 0 \xc3\n", 3),
    "triplet-header": ("analyze-triplet", b"%3 \xff 2\n0 0 1\n1 0 1\n", 1),
    "triplet-fit": ("fit-triplet", b"%3 2 2\n0 0 1\n\xff 0 1\n", 3),
    "signal": ("embed", b"1\n2\n\xff\n4\n", 3),
    "marginals": ("gen-marginals", b"3\n\n1\xff\n", 3),
}
COMMANDS = {
    "analyze": ["analyze", "IN", "-o", "OUT"],
    "analyze-triplet": ["analyze", "IN", "--format", "triplet", "-o", "OUT"],
    "fit-triplet": ["fit", "IN", "--format", "triplet", "-o", "OUT.json"],
    "embed": ["embed", "--signal", "IN", "--windows", 2, "--stride", 1,
              "--length", 2, "-o", "OUT.csv"],
    "gen-marginals": ["gen", "powerlaw", "--rows", 3, "--cols", 4,
                      "--marginals", "IN", "-o", "OUT.tpl"],
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_exit_code_undecodable_byte_names_line(tmp_path, capsys, case):
    command, data, line = UNDECODABLE[case]
    src = tmp_path / "in.txt"
    src.write_bytes(data)
    assert run(*[src if a == "IN" else str(a).replace("OUT", str(tmp_path / "out"))
                 for a in COMMANDS[command]]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: line {line}: not UTF-8 \(byte 0x(ff|c3) at "
                        r"character \d+\)\n", err), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt"]


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


def test_triplet_header_checked_against_memory(tmp_path, monkeypatch, capsys):
    """A triplet header whose matrix does not fit is refused as the
    loaders' MemoryError before anything n_cols long is allocated: 4-byte
    column pointers for 9 * 10^8 columns need 3.6 GB of a 1 GiB memory
    (and the one entry 12 bytes of storage and 16 of parsed body)."""
    import tracemalloc
    from wideca import store
    monkeypatch.setattr(store, "_PHYSICAL_MEMORY", 1 << 30)
    mat = tmp_path / "m.tpl"
    mat.write_text("%3 900000000 1\n0 0 1\n")
    tracemalloc.start()
    try:
        code = run("analyze", mat, "--format", "triplet", "-o", tmp_path / "r")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == (
        "error: not enough memory: a 3 x 900000000 triplet matrix needs at "
        "least 3,600,000,032 bytes, more than the 1,073,741,824 bytes of "
        "physical memory\n")
    assert peak < 1 << 20
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.tpl"]


def test_triplet_parsed_body_checked_against_memory(tmp_path, monkeypatch,
                                                    capsys):
    """The header check counts the parsed body (16 bytes an entry at int32
    indices) beside the storage: a matrix whose storage and analysis fit,
    but not beside its body, is refused with one line before it is read."""
    from wideca import store
    from wideca.store import TRIPLET, save_matrix
    mat = tmp_path / "m.tpl"
    save_matrix(wideca.CountMatrix.from_dense(np.ones((20, 200))), str(mat),
                TRIPLET)
    need = store.footprint(20, 200, 4_000) + 4_000 * 16
    assert store.footprint(20, 200, 4_000, store.resolve_workers()) < need - 1
    monkeypatch.setattr(store, "_PHYSICAL_MEMORY", need - 1)
    assert run("analyze", mat, "--format", "triplet", "-o", tmp_path / "r") == 1
    assert capsys.readouterr().err == (
        f"error: not enough memory: a 20 x 200 triplet matrix needs at least "
        f"{need:,} bytes, more than the {need - 1:,} bytes of physical memory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.tpl"]


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


def _run_fresh_python(script: str, cwd: Path, **env: str | None) -> None:
    """Run ``script`` in a new interpreter that imports this checkout of
    wideca, so the modules it loads are its own; it must exit 0. ``env``
    sets variables, or unsets those given as None."""
    src = str(Path(wideca.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, **env}
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          env={k: v for k, v in env.items() if v is not None},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_analyze_bytes_do_not_depend_on_blas_threads(tmp_path):
    """``analyze`` writes the same CSV bytes with OPENBLAS_NUM_THREADS
    unset, 1 and 2, each at --workers 1, 2 and 3: wideca runs every BLAS
    call it makes on one thread."""
    run("gen", "powerlaw", "--rows", 425, "--cols", 10_520, "--seed", 1,
        "-o", tmp_path / "p.tpl")
    script = (
        "from wideca.cli import main\n"
        "for w in ('1', '2', '3'):\n"
        "    assert main(['analyze', 'p.tpl', '--format', 'triplet',"
        " '--workers', w, '-o', 'r' + w]) == 0\n"
    )
    payloads = set()
    for threads in (None, "1", "2"):
        _run_fresh_python(script, tmp_path, OPENBLAS_NUM_THREADS=threads)
        payloads |= {(tmp_path / f"r{w}.csv").read_bytes() for w in "123"}
    assert len(payloads) == 1


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
    _run_fresh_python(script, tmp_path)
    assert (tmp_path / "r.csv").exists()


def test_only_sparse_analysis_loads_scipy(tmp_path):
    """Generating, fitting, table 3 and the analysis of a matrix whose
    column blocks all fill more than 12 % of their cells keep their sparse
    matrices as numpy arrays; the projection pass loads scipy for a lighter
    block once any saving pays for the import."""
    script = (
        "import sys\n"
        "import wideca.engine\n"
        "from wideca.cli import main\n"
        "wideca.engine._SCIPY_IMPORT_MADDS = 1\n"
        "def run(*argv):\n"
        "    assert main([str(a) for a in argv]) == 0, argv\n"
        "    assert 'scipy' not in sys.modules, argv\n"
        "run('gen', 'powerlaw', '--rows', 40, '--cols', 300, '-o', 'p.tpl',"
        " '--format', 'triplet')\n"
        "run('gen', 'powerlaw', '--rows', 40, '--cols', 300, '-o', 'p.csv')\n"
        "run('fit', 'p.tpl', '--format', 'triplet', '-o', 'f')\n"
        "run('reproduce', '--table', '3', '--dims', '200', '--seeds', '1',"
        " '-o', 't3.csv')\n"
        "run('analyze', 'p.tpl', '--format', 'triplet', '-o', 'r')\n"
        "run('gen', 'powerlaw', '--rows', 425, '--cols', 300, '-o', 'q.tpl',"
        " '--format', 'triplet')\n"
        "assert main(['analyze', 'q.tpl', '--format', 'triplet', '-o', 's']) == 0\n"
        "assert 'scipy' in sys.modules\n"
    )
    _run_fresh_python(script, tmp_path)
    assert (tmp_path / "r.csv").exists() and (tmp_path / "s.csv").exists()


def test_w_pass_loads_no_scipy(tmp_path):
    """``decompose`` of a triplet-built matrix at 0.5 % fill, whose blocks
    all take the pair-count kernel, leaves scipy unloaded; the report's
    projection pass loads it once any saving pays for the import."""
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from wideca import CountMatrix\n"
        "from wideca.engine import build_frequency_model, decompose\n"
        "from wideca.contributions import concentration_report\n"
        "rng = np.random.default_rng(3)\n"
        "K = (rng.random((300, 10_000)) < 0.005).astype(float)\n"
        "K[:, 0] = 1.0\n"
        "m = CountMatrix.from_triplets(300, 10_000, *np.nonzero(K),"
        " K[np.nonzero(K)])\n"
        "fm = build_frequency_model(m)\n"
        "for workers in (1, 2):\n"
        "    assert decompose(fm, workers=workers).nu > 1\n"
        "assert 'scipy' not in sys.modules\n"
        "import wideca.engine\n"
        "wideca.engine._SCIPY_IMPORT_MADDS = 1\n"
        "concentration_report(fm, decompose(fm))\n"
        "assert 'scipy' in sys.modules\n"
    )
    _run_fresh_python(script, tmp_path)


def test_small_sparse_analyses_load_no_scipy(tmp_path):
    """The triplet ``analyze`` of a 425 x 10,520 power-law matrix and
    ``reproduce --table 4`` at its default dims save less than the import
    of ``scipy.sparse`` costs, so neither loads it."""
    run("gen", "powerlaw", "--rows", 425, "--cols", 10_520, "--seed", 1,
        "--format", "triplet", "-o", tmp_path / "p.tpl")
    script = (
        "import sys\n"
        "from wideca.cli import main\n"
        "assert main(['analyze', 'p.tpl', '--format', 'triplet', '-o', 'r'])"
        " == 0\n"
        "assert main(['reproduce', '--table', '4', '--seeds', '1',"
        " '-o', 't4.csv']) == 0\n"
        "assert 'scipy' not in sys.modules\n"
    )
    _run_fresh_python(script, tmp_path)


def test_scipy_rule_ignores_loaded_modules(tmp_path):
    """A sparse matrix under the import threshold gives the same report
    bits in a fresh interpreter whether or not ``scipy.sparse`` was
    imported first."""
    run("gen", "powerlaw", "--rows", 425, "--cols", 3_000, "--seed", 2,
        "--format", "triplet", "-o", tmp_path / "p.tpl")
    script = (
        "import sys\n"
        "if sys.argv[1] == 'scipy':\n"
        "    import scipy.sparse\n"
        "from wideca import analyze, load_matrix\n"
        "rep = analyze(load_matrix('p.tpl', 'triplet')).report\n"
        "assert ('scipy' in sys.modules) == (sys.argv[1] == 'scipy')\n"
        "with open(sys.argv[1] + '.bin', 'wb') as fh:\n"
        "    fh.write(repr(rep.to_csv_row()).encode())\n"
        "    for a in (rep.per_column_absolute, rep.per_column_relative,\n"
        "              rep.axis_column_inertia):\n"
        "        fh.write(a.tobytes())\n"
    )
    for first in ("scipy", "none"):
        _run_fresh_python(script.replace("sys.argv[1]", repr(first)), tmp_path)
    assert (tmp_path / "scipy.bin").read_bytes() == \
        (tmp_path / "none.bin").read_bytes()


def test_exit_code_bad_flags():
    assert run("analyze") == 1
    assert run("gen", "uniform", "--rows", 3, "--cols", "x", "-o", "/tmp/x") == 1
    assert run("nonsense") == 1


def test_exit_code_io_error(tmp_path):
    assert run("analyze", tmp_path / "missing.csv", "-o", tmp_path / "r") == 3


def test_exit_code_numerical_error(tmp_path, monkeypatch):
    from wideca.errors import NumericalError

    def boom(*a, **k):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr("wideca.contributions.decompose", boom)
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


def _two_cpus(monkeypatch):
    monkeypatch.setattr("wideca.store.os.sched_getaffinity",
                        lambda pid: {0, 1})


@pytest.mark.parametrize("openblas_threads, flag, recorded", [
    (None, [], 2), (1, [], 2), (None, ["--workers", "3"], 3)])
def test_resolved_workers_recorded(tmp_path, monkeypatch, openblas_threads,
                                   flag, recorded):
    """The recorded count is the resolved one; the BLAS variable set at run
    time chooses nothing."""
    _two_cpus(monkeypatch)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    if openblas_threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(openblas_threads))
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
    _two_cpus(monkeypatch)
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


@pytest.mark.parametrize("start, tick, p_repeat", [
    ("1", "1e308", "0.9"), ("1e308", "1e308", "0.5")])
def test_exit_code_gen_signal_overflow(tmp_path, start, tick, p_repeat):
    """A walk that leaves float64 is refused with one line, no numpy
    warning and no claim that it crossed zero."""
    out = tmp_path / "s.txt"
    src = str(Path(wideca.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "wideca.cli", "gen", "signal", "--len", "5",
         "--start", start, "--tick", tick, "--p-repeat", p_repeat,
         "-o", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == ("error: random walk overflows float64; "
                           "lower start or tick\n")
    assert not out.exists()


@pytest.mark.parametrize("args, high, tick", [
    (["--len", "1000", "--start", "2e14", "--tick", "0.01"],
     "200000000000000.03", "0.01"),
    (["--len", "100000", "--start", "1.7976931348623157e308",
      "--p-repeat", "0.5"], "1.7976931348623157e+308", "0.5")])
def test_exit_code_gen_signal_below_float_spacing(tmp_path, args, high, tick):
    """A walk whose values float64 spaces wider than its tick would be
    written off the tick lattice (steps of 0.03125 at 2e14), or constant:
    it is refused with one line."""
    out = tmp_path / "s.txt"
    src = str(Path(wideca.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "wideca.cli", "gen", "signal", *args,
         "-o", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == (
        f"error: random walk reaches {high}, where float64 spacing exceeds "
        f"the tick {tick}; lower start or raise tick\n")
    assert not out.exists()


# sha256 of files that ``gen`` wrote at the commit that pinned them, at
# seeds 1 and 1512 (the ``.meta.json`` sidecars aside): generated matrices
# and signals keep their bytes for a given seed.
GEN_DIGESTS = {
    ("uniform", "--rows", "86", "--cols", "2000"): (
        "42d2c108e9ed701acce5e02f2922c8fc3dc8b61d38e6c043fed5f7d6afab1ca1",
        "a61cb16d46e5655094ed925273c393577f5280e8d8ba10716874518c7eec91cf"),
    ("uniform", "--rows", "86", "--cols", "2000", "--format", "triplet"): (
        "20926348ceb70962ec830083d7de71b537222f6e821dc134ffc596e98b69f9be",
        "019864c7f3d37d133fb3175a533f61f4f3d313c97a7232c70d96b4e17680e05d"),
    ("powerlaw", "--rows", "425", "--cols", "1052"): (
        "22592ca0ce65478039ac7c01a21dacaf1eee057a99d06d8d205b8af9c7065283",
        "dab27c24a20d0a807adb353a6d642a5b2d7483e1ee35ecd3c8f63a3844239085"),
    ("powerlaw", "--rows", "425", "--cols", "1052", "--format", "dense-csv"): (
        "c98b654fb4a0f6b1267913a2650968cca2b5af02727e6b9b60dfc69e5adf4983",
        "3fd7a1e2abd2841aa5772750eb4bc1fe9dd4b91fd8d8cd25b56bc3126ef79218"),
    ("signal", "--len", "95011"): (
        "8a379ae6a7447948adce4bc86d3d0a79f4128b1bece75ff3934d8a54db39a5f8",
        "8ea3b24066f0f8b27e8b96680405750d0392718cbf218bc03b5b93cb132d3254"),
}


@pytest.mark.parametrize("command", GEN_DIGESTS, ids=" ".join)
def test_gen_files_keep_their_bytes(tmp_path, command):
    import hashlib
    for seed, digest in zip((1, 1512), GEN_DIGESTS[command]):
        out = tmp_path / f"out-{seed}"
        assert run("gen", *command, "--seed", seed, "-o", out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("command, named", [
    (["analyze", "IN", "-o", "b"], "b.csv"),
    (["analyze", "IN", "-o", "b.json"], "b.csv"),
    (["fit", "IN", "-o", "b.csv"], "b.csv"),
    (["fit", "IN", "-o", "f.json", "--points-out", "./b.csv"], "./b.csv"),
    (["embed", "--signal", "IN", "--windows", 2, "--stride", 1, "--length", 2,
      "-o", "b.csv"], "b.csv"),
    (["gen", "powerlaw", "--rows", 4, "--cols", 3, "--marginals", "IN",
      "-o", "b.csv"], "b.csv"),
], ids=["analyze", "analyze-json-suffix", "fit", "fit-points", "embed",
        "gen-marginals"])
def test_output_over_input_refused(tmp_path, monkeypatch, capsys, command,
                                   named):
    """A command that would write over the file it reads exits 1 with one
    line, before it writes anything, and the file keeps its bytes."""
    monkeypatch.chdir(tmp_path)
    src = tmp_path / "b.csv"
    src.write_text("1\n2\n3\n")
    assert run(*[src if a == "IN" else a for a in command]) == 1
    assert capsys.readouterr().err == \
        f"error: output {named} would overwrite the input {src}\n"
    assert src.read_text() == "1\n2\n3\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv"]
