"""Tests of the benchmark harness itself, on tiny inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import HOLDOUT_SEED, CheckError, check_report, stored_reference
from spans import Span, per_op_totals, self_times
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "0.2",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= (2 if trace == "1" else 1)
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if trace == "0":
            assert got["value"] > 0


def test_workload_names_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_holdout_seed_smoke_run_checks_stored_reference():
    assert stored_reference("smoke", "sweep-small", HOLDOUT_SEED) is not None
    proc = run_bench("--workload", "sweep-small", "--seed", str(HOLDOUT_SEED),
                     "--seconds", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def test_every_size_and_workload_has_stored_references():
    for size in SIZES:
        for name in WORKLOADS:
            for seed in (1, HOLDOUT_SEED):
                assert stored_reference(size, name, seed) is not None


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "dense-1m", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _report() -> dict:
    # 86 x 1000 uniform-like report whose identities hold exactly
    return {"dim": 1000, "n_cols_effective": 1000, "nu": 86,
            "total_inertia": 1.08, "abs_mean": 1.08e-3, "abs_sd": 1e-5,
            "abs_median": 1.08e-3, "rel_mean": 0.086, "rel_sd": 0.01,
            "rel_median": 0.085, "max_proj_cols": 0.5, "max_proj_rows": 0.3}


def test_checks_accept_consistent_report():
    check_report(_report())


@pytest.mark.parametrize("field, factor", [("abs_mean", 1 + 1e-6),
                                           ("rel_mean", 1 + 1e-8),
                                           ("total_inertia", 1 - 1e-6)])
def test_checks_reject_a_wrong_report(field, factor):
    bad = _report()
    bad[field] *= factor
    with pytest.raises(CheckError):
        check_report(bad)


def test_checks_reject_disagreement_with_direct_identity():
    oracle = {"abs_mean": 1.08e-3 * (1 + 1e-6)}
    with pytest.raises(CheckError):
        check_report(_report(), oracle)


def test_self_time_subtracts_children():
    spans = [Span(0, None, "op-1", "op", 0.0, 10.0),
             Span(1, 0, "op-1", "engine.decompose", 1.0, 4.0),
             Span(2, 0, "op-1", "contributions.report", 4.0, 9.0),
             Span(3, None, "op-3", "engine.decompose", 0.0, 2.0)]
    assert self_times(spans) == [2.0, 3.0, 5.0, 2.0]
    totals = per_op_totals(spans)
    assert totals["engine.decompose"] == {"op-1": 3.0, "op-3": 2.0}
