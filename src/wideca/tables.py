"""The evaluation sweeps behind ``reproduce``: one dim x seed loop for every table.

A table is a matrix factory and a stats function. ``sweep`` builds the
table's matrices for every (dim, seed) pair, reduces each to a dict of
statistics, and returns one row dict per dimensionality: the seed-mean of
every statistic, then per-seed min/max spread columns, in the order of the
first per-seed dict. Seeds are ``base_seed + i`` and are shared across
dimensionalities, so per-seed comparisons between dimensions are paired; the
embedding table draws one signal per seed and embeds it at every dim.

Dimensions above ``LARGE_DIM_LIMIT`` are refused unless ``allow_large`` is
set; the large settings run for minutes and allocate hundreds of megabytes.
"""

from __future__ import annotations

import numpy as np

from .contributions import concentration_report
from .engine import build_frequency_model, decompose
from .errors import ValidationError
from .generators import (DEFAULT_EXPONENT, ParametricMarginals, embed_signal,
                         gen_powerlaw_boolean, gen_randomwalk_signal,
                         gen_uniform)
from .powerlaw import fit_exponent
from .store import column_sums

LARGE_DIM_LIMIT = 50_000

UNIFORM_ROWS = 86
UNIFORM_DIMS = (100, 1000, 10_000)

EMBED_WINDOWS = 86
EMBED_STRIDE = 1000
EMBED_DIMS = (100, 1000, 10_000)
SIGNAL_LEN = 95_011
SIGNAL_START = 6800.0
SIGNAL_P_REPEAT = 0.9

POWERLAW_ROWS = 425
POWERLAW_DIMS = (1052, 10_520)

# Table ids and their default dimensionalities.
TABLE_DIMS = {"1": UNIFORM_DIMS, "2-synthetic": EMBED_DIMS,
              "3": POWERLAW_DIMS, "4": POWERLAW_DIMS}

_STAT_COLS = ("abs_mean", "abs_sd", "abs_median", "rel_mean", "rel_sd",
              "rel_median", "max_proj_cols", "max_proj_rows")


def _check_sweep(dims, seeds: int, allow_large: bool) -> None:
    if seeds < 1:
        raise ValidationError(f"seeds must be at least 1, got {seeds}")
    for d in dims:
        if d < 1:
            raise ValidationError(f"dimension {d} must be at least 1")
        if d > LARGE_DIM_LIMIT and not allow_large:
            raise ValidationError(
                f"dimension {d} exceeds the default budget "
                f"({LARGE_DIM_LIMIT}); pass allow_large to run it")


def _aggregate(dim: int, per_seed: list[dict]) -> dict:
    row: dict = {"dim": dim, "seeds": len(per_seed)}
    cols = list(per_seed[0])
    for c in cols:
        vals = np.array([s[c] for s in per_seed])
        row[c] = float(vals.mean())
    for c in cols:
        vals = np.array([s[c] for s in per_seed])
        row[f"{c}_min"] = float(vals.min())
        row[f"{c}_max"] = float(vals.max())
    return row


def sweep(table: str, dims=None, seeds: int = 3, base_seed: int = 1,
          exponent: float = DEFAULT_EXPONENT, include_trivial: bool = True,
          workers: int | None = None,
          allow_large: bool = False) -> list[dict]:
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
    the sparse fan-out. Its ``exponent`` column carries the conventional
    negative sign of a decaying CCDF slope.
    """
    if table not in TABLE_DIMS:
        raise ValidationError(f"unknown table {table!r}")
    dims = TABLE_DIMS[table] if dims is None else dims
    _check_sweep(dims, seeds, allow_large)
    marg = ParametricMarginals(exponent=exponent)

    def uniform(seed):
        return lambda dim: gen_uniform(UNIFORM_ROWS, dim, seed)

    def embedding(seed):
        sig = gen_randomwalk_signal(SIGNAL_LEN, SIGNAL_START, seed,
                                    p_repeat=SIGNAL_P_REPEAT)
        return lambda dim: embed_signal(sig, EMBED_WINDOWS, EMBED_STRIDE, dim)

    def powerlaw(seed):
        return lambda dim: gen_powerlaw_boolean(POWERLAW_ROWS, dim, seed,
                                                marginals=marg)

    def concentration(m) -> dict:
        fm = build_frequency_model(m)
        fd = decompose(fm, include_trivial=include_trivial, workers=workers)
        d = concentration_report(fm, fd, workers).to_dict()
        return {c: d[c] for c in _STAT_COLS}

    def exponent_fit(m) -> dict:
        sums = column_sums(m)
        fit = fit_exponent(sums, x_min=float(marg.body_start),
                           x_max=float(np.percentile(sums, 90.0)))
        return {"exponent": -fit.alpha, "r_squared": fit.r_squared}

    def density(m) -> dict:
        return {**concentration(m), "density": m.nnz / (m.n_rows * m.n_cols)}

    factory, stats = {"1": (uniform, concentration),
                      "2-synthetic": (embedding, concentration),
                      "3": (powerlaw, exponent_fit),
                      "4": (powerlaw, density)}[table]
    matrices = [factory(base_seed + i) for i in range(seeds)]
    rows = []
    for dim in dims:
        per_seed = []
        for matrix in matrices:
            # m stays alive until the next matrix replaces it, as in a plain
            # loop: freeing each matrix before the next is built made table 1
            # about 4 % slower (allocator reuse).
            m = matrix(dim)
            per_seed.append(stats(m))
        rows.append(_aggregate(dim, per_seed))
    return rows
