import sys
import threading
import tracemalloc
from collections import Counter

import pytest

from wideca import ValidationError
from wideca import store, tables
from wideca.tables import sweep

STAT_COLS = ["abs_mean", "abs_sd", "abs_median", "rel_mean", "rel_sd",
             "rel_median", "max_proj_cols", "max_proj_rows"]


def test_uniform_table_structure():
    rows = sweep("1", dims=(50, 200), seeds=2, base_seed=3)
    assert [r["dim"] for r in rows] == [50, 200]
    for r in rows:
        assert r["seeds"] == 2
        assert r["abs_mean_min"] <= r["abs_mean"] <= r["abs_mean_max"]
    # identity: rel_mean is nu/|J| and nu = min(86, dim) here
    assert rows[0]["rel_mean"] == pytest.approx(50 / 50, abs=1e-10)
    assert rows[1]["rel_mean"] == pytest.approx(86 / 200, abs=1e-10)


def test_uniform_table_concentration_trend():
    rows = sweep("1", dims=(100, 1000), seeds=2, base_seed=1)
    assert rows[0]["abs_mean"] > rows[1]["abs_mean"]
    assert rows[0]["abs_sd"] > rows[1]["abs_sd"]


def test_embedding_table_regime():
    rows = sweep("2-synthetic", dims=(100, 1000), seeds=2, base_seed=1)
    for r in rows:
        assert abs(r["abs_mean"] - 1.0 / r["dim"]) <= 0.01 / r["dim"]
        assert r["abs_sd"] <= 1e-5
        assert r["max_proj_cols"] <= 0.01
    assert rows[0]["abs_sd"] > rows[1]["abs_sd"]


def test_embedding_table_shares_one_signal_per_seed(monkeypatch):
    drawn, embedded = [], []
    gen, embed = tables.gen_randomwalk_signal, tables.embed_signal

    def gen_spy(n, start, seed, **kw):
        sig = gen(n, start, seed, **kw)
        drawn.append((seed, sig))
        return sig

    def embed_spy(sig, *args):
        embedded.append((args[-1], id(sig)))
        return embed(sig, *args)

    monkeypatch.setattr(tables, "gen_randomwalk_signal", gen_spy)
    monkeypatch.setattr(tables, "embed_signal", embed_spy)
    sweep("2-synthetic", dims=(100, 300), seeds=2, base_seed=5)
    assert [seed for seed, _ in drawn] == [5, 6]
    # every dim embeds the same two signals, each once; a dim's seeds may
    # run at once, so the order of the calls is not fixed
    assert Counter(embedded) == Counter(
        (dim, id(sig)) for dim in (100, 300) for _, sig in drawn)


def test_exponent_table_signs_and_regime():
    rows = sweep("3", dims=(1052,), seeds=3, base_seed=1)
    r = rows[0]
    assert -2.0 <= r["exponent"] <= -1.3
    assert 0.9 <= r["r_squared"] <= 1.0


def test_exponent_table_reference_value_at_1052():
    # seed-mean fitted exponent at 1052 columns stays within 0.15 of the
    # reference value 1.49 (individual seeds scatter wider)
    rows = sweep("3", dims=(1052,), seeds=10, base_seed=1)
    assert abs(-rows[0]["exponent"] - 1.49) <= 0.15


def test_powerlaw_concentration_density_column():
    rows = sweep("4", dims=(1052,), seeds=2, base_seed=1)
    assert 0.044 <= rows[0]["density"] <= 0.074


def _spread(cols):
    return [f"{c}_{end}" for c in cols for end in ("min", "max")]


@pytest.mark.parametrize("table, dim, stats", [
    ("1", 100, STAT_COLS),
    ("2-synthetic", 100, STAT_COLS),
    ("3", 1052, ["exponent", "r_squared"]),
    ("4", 1052, STAT_COLS + ["density"]),
])
def test_table_column_order(table, dim, stats):
    (row,) = sweep(table, dims=(dim,), seeds=1)
    assert list(row) == ["dim", "seeds", *stats, *_spread(stats)]


class Built(Exception):
    """Raised by a spy generator: the sweep got past its checks."""


def _spy_generators(monkeypatch):
    def built(*args, **kw):
        raise Built

    for name in ("gen_uniform", "gen_randomwalk_signal", "gen_powerlaw_boolean"):
        monkeypatch.setattr(tables, name, built)


def _refused(job, need):
    return pytest.raises(ValidationError, match=(
        f"^{job} needs at least {need:,} bytes, more than the "
        "1,073,741,824 bytes of physical memory$"))


def test_large_dims_gated(monkeypatch):
    """With 1 GiB of physical memory, a dim whose arrays fit gets past the
    checks, and one whose arrays do not is refused before any matrix is
    built, whichever its place in ``dims``."""
    monkeypatch.setattr(store, "_PHYSICAL_MEMORY", 1 << 30)
    _spy_generators(monkeypatch)
    for table, fits, refused, need in (
            # 86 x d float64 plus 5 per-column arrays and, at two workers,
            # W pass float64: W, 4 + 2 Grams of 86^2 and two blocks of
            # 86 x 11,627: 744,412,928 bytes at 10^6 columns
            ("1", 1_000_000, 2_000_000, 1_472_412_928),
            # 29.0 ones per column, 12 bytes each, plus 4-byte column
            # pointers: 370,349,196 bytes at 1,052,000 columns; table 4 adds
            # the analysis
            ("3", 1_052_000, 10_520_000, 3_703_491_936),
            ("4", 1_052_000, 10_520_000, 4_150_400_536)):
        with pytest.raises(Built):
            sweep(table, dims=(fits,), seeds=1, workers=2)
        with _refused(f"table {table} at dimension {refused}", need):
            sweep(table, dims=(100, refused), seeds=1, workers=2)


def test_table2_signals_counted(monkeypatch):
    """Table 2 holds each seed's 760,088-byte signal for the whole sweep.
    One worker runs one job at a time, so one embedding is counted."""
    monkeypatch.setattr(store, "_PHYSICAL_MEMORY", 1 << 30)
    _spy_generators(monkeypatch)
    with pytest.raises(Built):
        sweep("2-synthetic", dims=(100,), seeds=1000, workers=1)
    with _refused("table 2-synthetic at dimension 100", 1_520_544_640):
        sweep("2-synthetic", dims=(100,), seeds=2000, workers=1)


def test_jobs_in_flight_counted(monkeypatch):
    """A one-block dim counts one matrix and one-worker analysis per job in
    flight, min(workers, seeds); a multi-block dim counts one, on all the
    workers."""
    # 8 * (86 * 10^4 + 5 * 10^4 + 3 * 86^2 + 86 * 10^4) bytes a table 1 job
    # at 10^4: the matrix, 5 per-column arrays and the W pass (W, its one
    # block's Gram, a Gram being added and a scaled copy of the block)
    one = 14_337_504
    monkeypatch.setattr(store, "_PHYSICAL_MEMORY", 3 * one)
    _spy_generators(monkeypatch)
    for workers, seeds in ((1, 5), (3, 5), (5, 3)):
        with pytest.raises(Built):
            sweep("1", dims=(10_000,), seeds=seeds, workers=workers)
    with pytest.raises(ValidationError, match=(
            f"^table 1 at dimension 10000 needs at least {4 * one:,} bytes")):
        sweep("1", dims=(10_000,), seeds=5, workers=4)
    # 425 x 10,520 is five blocks: one job at a time on four workers, where
    # four one-worker jobs would count 71.6 MB
    job = store.footprint(425, 10_520, int(tables.ParametricMarginals()
                                           .mean_sum(425) * 10_520), workers=4)
    assert job == 50_561_488
    monkeypatch.setattr(store, "_PHYSICAL_MEMORY", job)
    with pytest.raises(Built):
        sweep("4", dims=(10_520,), seeds=5, workers=4)
    monkeypatch.setattr(store, "_PHYSICAL_MEMORY", job - 1)
    with pytest.raises(ValidationError, match=(
            f"^table 4 at dimension 10520 needs at least {job:,} bytes")):
        sweep("4", dims=(1052, 10_520), seeds=5, workers=4)


def test_dims_checked_before_any_matrix(monkeypatch):
    def unreachable(*args, **kw):
        raise AssertionError("a matrix was built before the dims were checked")

    for name in ("gen_uniform", "gen_randomwalk_signal", "gen_powerlaw_boolean"):
        monkeypatch.setattr(tables, name, unreachable)
    for table in tables.TABLE_DIMS:
        for dims in ((100, -1), (0,)):
            with pytest.raises(ValidationError,
                               match=f"^dimension {dims[-1]} must be at least 1$"):
                sweep(table, dims=dims, seeds=1)
    with pytest.raises(ValidationError, match="^unknown table '5'$"):
        sweep("5", seeds=1)
    # The embedding's windows must fit in the signal: 95,011 samples hold
    # 86 windows at stride 1,000 of at most 10,011 samples each.
    with pytest.raises(ValidationError, match=(
            "^dimension 10012 exceeds 10011, the longest window of "
            "table 2-synthetic$")):
        sweep("2-synthetic", dims=(100, 10_012), seeds=1)
    monkeypatch.undo()
    (row,) = sweep("2-synthetic", dims=(10_011,), seeds=1)
    assert row["dim"] == 10_011


def test_seeds_are_paired_across_dims():
    rows = sweep("1", dims=(60, 120), seeds=1, base_seed=9)
    # single seed: min == max == mean
    for r in rows:
        assert r["abs_mean"] == r["abs_mean_min"] == r["abs_mean_max"]


# -- concurrent (dim, seed) jobs -----------------------------------------------
# A dim whose matrix is one column block runs its seeds as concurrent jobs,
# each analyzing at one worker; a multi-block dim runs them one at a time.
# Either way each job builds and frees its own matrix.

WORKER_CASES = {"1": (50, 11_700), "2-synthetic": (100,), "3": (1052, 2400),
                "4": (300, 2400)}


@pytest.mark.parametrize("table", list(WORKER_CASES))
def test_sweep_rows_do_not_depend_on_workers(table):
    """Rows are bit-identical at 1, 2 and 3 workers, for one-block dims and
    multi-block dims (the second of tables 1, 3 and 4), with threads
    switching every 10 microseconds."""
    dims = WORKER_CASES[table]
    assert [len(list(store.column_blocks(tables.TABLE_ROWS[table], d))) > 1
            for d in dims] == [False, True][:len(dims)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        rows = [repr(sweep(table, dims=dims, seeds=3, workers=w))
                for w in (1, 2, 3)]
    finally:
        sys.setswitchinterval(interval)
    assert rows[1] == rows[0] and rows[2] == rows[0]


def test_one_block_dims_run_seeds_concurrently(monkeypatch):
    """Both seeds of the one-block dim are in flight at once, each at one
    worker; the two-block dim's seeds run one at a time at two workers."""
    analyze, lock = tables.analyze, threading.Lock()
    in_flight, calls = [0], []
    meet = threading.Barrier(2, timeout=30)

    def spy(m, include_trivial, workers):
        with lock:
            in_flight[0] += 1
            calls.append((m.n_cols, workers, in_flight[0]))
        try:
            if m.n_cols == 100:
                meet.wait()  # BrokenBarrierError unless both seeds meet
            return analyze(m, include_trivial, workers)
        finally:
            with lock:
                in_flight[0] -= 1

    monkeypatch.setattr(tables, "analyze", spy)
    sweep("1", dims=(100, 11_700), seeds=2, workers=2)
    assert sorted((d, w) for d, w, _ in calls) == [(100, 1), (100, 1),
                                                   (11_700, 2), (11_700, 2)]
    assert max(n for d, _, n in calls if d == 100) == 2
    assert max(n for d, _, n in calls if d == 11_700) == 1


def test_multi_block_dim_holds_one_matrix_at_a_time():
    """The seeds of a multi-block dim run one after another, and each
    seed's matrix is freed before the next is built: the traced peak stays
    well below two matrices."""
    tracemalloc.start()
    try:
        sweep("1", dims=(100_000,), seeds=2, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * store.footprint(tables.UNIFORM_ROWS, 100_000)
