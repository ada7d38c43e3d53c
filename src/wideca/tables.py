"""The evaluation sweeps behind ``reproduce``: one dim x seed loop for every table.

A table is a matrix factory and a stats function. ``sweep`` builds the
table's matrices for every (dim, seed) pair, reduces each to a dict of
statistics (one ``wideca.analyze`` call for the concentration tables; table
3's factory draws only a matrix's column sums, which is all its fit reads),
and returns one row dict per dimensionality: the seed-mean of
every statistic, then per-seed min/max spread columns, in the order of the
first per-seed dict. Seeds are ``base_seed + i`` and are shared across
dimensionalities, so per-seed comparisons between dimensions are paired; the
embedding table draws one signal per seed and embeds it at every dim.

Every dim runs its seeds as jobs on ``store.ordered_block_map``. A job
builds its matrix, reduces it and frees it, so it holds one matrix. The
per-seed dicts come back in seed order, so no row depends on ``workers``.
A dim whose matrix is one column block (``store.column_blocks``: at most
10^6 cells) runs ``workers`` jobs at a time, each on one worker, where one
block runs anyway; a dim of several blocks runs one job at a time on all
the workers.

Every dim is checked before any matrix is built, against physical memory
too (``store.check_memory``), with one matrix and analysis, on the job's
workers (table 3: one matrix's column sums), counted per job in flight.
The paper's sizes run in seconds and hold one matrix at a time at any
number of seeds: on a 2-vCPU Xeon,
table 1 at 10^6 columns took 1.3 s for one seed and 2.4-2.9 s at 766 MiB
peak for two, table 4 at 1,052,000 took 8.9-9.5 s for one and 21.6-23.0 s
at 505-509 MiB for two. The four ``reproduce`` commands of the
``sweep-small`` benchmark (default dims; seeds 10, 3, 3 and 3) took
1.91-1.93 s (median of ten 20-second runs, at seeds 1 and 1512), against
2.17-2.31 s with the seeds run one at a time.
"""

from __future__ import annotations

import numpy as np

from .contributions import analyze
from .errors import ValidationError
from .generators import (DEFAULT_EXPONENT, ParametricMarginals, embed_signal,
                         gen_powerlaw_boolean, gen_randomwalk_signal,
                         gen_uniform, rng_from_seed)
from .powerlaw import fit_exponent, percentile
from .store import (check_memory, column_blocks, footprint, ordered_block_map,
                    resolve_workers)

UNIFORM_ROWS = 86
UNIFORM_DIMS = (100, 1000, 10_000)

EMBED_WINDOWS = 86
EMBED_STRIDE = 1000
EMBED_DIMS = (100, 1000, 10_000)
SIGNAL_LEN = 95_011
SIGNAL_START = 6800.0
SIGNAL_P_REPEAT = 0.9
# The longest window the signal holds for every one of the windows.
EMBED_MAX_DIM = SIGNAL_LEN - (EMBED_WINDOWS - 1) * EMBED_STRIDE

POWERLAW_ROWS = 425
POWERLAW_DIMS = (1052, 10_520)

# Table ids and their default dimensionalities.
TABLE_DIMS = {"1": UNIFORM_DIMS, "2-synthetic": EMBED_DIMS,
              "3": POWERLAW_DIMS, "4": POWERLAW_DIMS}
TABLE_ROWS = {"1": UNIFORM_ROWS, "2-synthetic": EMBED_WINDOWS,
              "3": POWERLAW_ROWS, "4": POWERLAW_ROWS}

_STAT_COLS = ("abs_mean", "abs_sd", "abs_median", "rel_mean", "rel_sd",
              "rel_median", "max_proj_cols", "max_proj_rows")


def _jobs(table: str, dim: int, seeds: int, workers: int) -> int:
    """How many of a dim's (dim, seed) jobs run at once: up to ``workers``
    when its matrix is one column block, else one."""
    one_block = len(list(column_blocks(TABLE_ROWS[table], dim))) == 1
    return min(workers, seeds) if one_block else 1


def _check_sweep(table, dims, seeds: int, marg: ParametricMarginals,
                 workers: int) -> None:
    if seeds < 1:
        raise ValidationError(f"seeds must be at least 1, got {seeds}")
    for d in dims:
        if d < 1:
            raise ValidationError(f"dimension {d} must be at least 1")
        if table == "2-synthetic" and d > EMBED_MAX_DIM:
            raise ValidationError(f"dimension {d} exceeds {EMBED_MAX_DIM}, "
                                  f"the longest window of table 2-synthetic")
        rows, jobs = TABLE_ROWS[table], _jobs(table, d, seeds, workers)
        # CSC storage at the law's mean column sum for table 4; table 3
        # holds one matrix's column sums and the uniform draws behind them
        nnz = int(marg.mean_sum(rows) * d) if table == "4" else None
        size = jobs * (footprint(2, d) if table == "3" else
                       footprint(rows, d, nnz, 1 if jobs > 1 else workers))
        if table == "2-synthetic":  # every seed's signal is held throughout
            size += footprint(seeds, SIGNAL_LEN)
        check_memory(f"table {table} at dimension {d}", size)


def _aggregate(dim: int, per_seed: list[dict]) -> dict:
    vals = {c: np.array([s[c] for s in per_seed]) for c in per_seed[0]}
    row: dict = {"dim": dim, "seeds": len(per_seed)}
    row.update((c, float(v.mean())) for c, v in vals.items())
    for c, v in vals.items():
        row[f"{c}_min"], row[f"{c}_max"] = float(v.min()), float(v.max())
    return row


def sweep(table: str, dims=None, seeds: int = 3, base_seed: int = 1,
          exponent: float = DEFAULT_EXPONENT, include_trivial: bool = True,
          workers: int | None = None) -> list[dict]:
    """Seed-aggregated rows of one table, one per dimensionality.

    Tables: "1" concentration statistics of 86-row uniform [0,1) clouds;
    "2-synthetic" the same for sliding-window embeddings of a synthetic
    quantized random-walk signal; "3" fitted column-sum CCDF exponents of
    425-row power-law boolean matrices; "4" concentration statistics and
    fill density of those matrices. ``dims`` defaults to ``TABLE_DIMS``.
    A table ignores the options it has no use for: ``exponent`` (the
    density exponent of the generated marginal law) matters to tables 3 and
    4 only, ``include_trivial`` and ``workers`` (default
    ``store.resolve_workers()``) to all but table 3.

    Table 3 fits the linear region of the generated law: from the body
    start of the marginal distribution up to the 90th percentile, ahead of
    the sparse fan-out. It builds no matrix: a power-law matrix's column
    sums are exactly the generator's first draws from the law, which it
    makes alone. Its ``exponent`` column carries the conventional negative
    sign of a decaying CCDF slope.
    """
    if table not in TABLE_DIMS:
        raise ValidationError(f"unknown table {table!r}")
    dims = TABLE_DIMS[table] if dims is None else dims
    marg = ParametricMarginals(exponent=exponent)
    workers = resolve_workers(workers)
    _check_sweep(table, dims, seeds, marg, workers)

    def uniform(seed):
        return lambda dim: gen_uniform(UNIFORM_ROWS, dim, seed)

    def embedding(seed):
        sig = gen_randomwalk_signal(SIGNAL_LEN, SIGNAL_START, seed,
                                    p_repeat=SIGNAL_P_REPEAT)
        return lambda dim: embed_signal(sig, EMBED_WINDOWS, EMBED_STRIDE, dim)

    def powerlaw(seed):
        return lambda dim: gen_powerlaw_boolean(POWERLAW_ROWS, dim, seed,
                                                marginals=marg)

    def powerlaw_sums(seed):  # the column sums of powerlaw(seed)(dim)
        return lambda dim: marg.sample(rng_from_seed(seed), dim, POWERLAW_ROWS)

    def concentration(m, workers: int) -> dict:
        d = analyze(m, include_trivial, workers).report.to_dict()
        return {c: d[c] for c in _STAT_COLS}

    def exponent_fit(sums, workers: int) -> dict:
        fit = fit_exponent(sums, x_min=float(marg.body_start),
                           x_max=percentile(sums, 90.0))
        return {"exponent": -fit.alpha, "r_squared": fit.r_squared}

    def density(m, workers: int) -> dict:
        return {**concentration(m, workers),
                "density": m.nnz / (m.n_rows * m.n_cols)}

    factory, stats = {"1": (uniform, concentration),
                      "2-synthetic": (embedding, concentration),
                      "3": (powerlaw_sums, exponent_fit),
                      "4": (powerlaw, density)}[table]
    matrices = [factory(base_seed + i) for i in range(seeds)]
    rows = []
    for dim in dims:
        # One job per seed, each building, reducing and freeing its matrix;
        # the results come back in seed order.
        jobs = _jobs(table, dim, seeds, workers)
        per_seed = list(ordered_block_map(
            lambda i, _: stats(matrices[i](dim), 1 if jobs > 1 else workers),
            ((i, i + 1) for i in range(seeds)), jobs))
        rows.append(_aggregate(dim, per_seed))
    return rows
