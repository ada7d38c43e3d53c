"""Drivers that sweep the three evaluation settings and aggregate over seeds.

Each driver returns one row dict per dimensionality with the seed-mean of
every statistic plus appended per-seed min/max spread columns. Seeds are
derived as ``base_seed + i`` and are shared across dimensionalities, so
per-seed comparisons between dimensions are paired.

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
UNIFORM_DIMS_LARGE = (100, 1000, 10_000, 100_000, 1_000_000)

EMBED_WINDOWS = 86
EMBED_STRIDE = 1000
EMBED_DIMS = (100, 1000, 10_000)
SIGNAL_LEN = 95_011
SIGNAL_START = 6800.0
SIGNAL_P_REPEAT = 0.9

POWERLAW_ROWS = 425
POWERLAW_DIMS = (1052, 10_520)
POWERLAW_DIMS_LARGE = (1052, 10_520, 105_200, 1_052_000)

_STAT_COLS = ("abs_mean", "abs_sd", "abs_median", "rel_mean", "rel_sd",
              "rel_median", "max_proj_cols", "max_proj_rows")


def _check_sweep(dims, seeds: int, allow_large: bool) -> None:
    if seeds < 1:
        raise ValidationError(f"seeds must be at least 1, got {seeds}")
    for d in dims:
        if d > LARGE_DIM_LIMIT and not allow_large:
            raise ValidationError(
                f"dimension {d} exceeds the default budget "
                f"({LARGE_DIM_LIMIT}); pass allow_large to run it")


def _aggregate(dim: int, per_seed: list[dict], cols) -> dict:
    row: dict = {"dim": dim, "seeds": len(per_seed)}
    for c in cols:
        vals = np.array([s[c] for s in per_seed])
        row[c] = float(vals.mean())
    for c in cols:
        vals = np.array([s[c] for s in per_seed])
        row[f"{c}_min"] = float(vals.min())
        row[f"{c}_max"] = float(vals.max())
    return row


def _report_stats(report) -> dict:
    d = report.to_dict()
    return {c: d[c] for c in _STAT_COLS}


def uniform_cloud_table(dims=UNIFORM_DIMS, seeds: int = 3, base_seed: int = 1,
                        include_trivial: bool = True, workers: int = 1,
                        allow_large: bool = False) -> list[dict]:
    """Concentration statistics of uniform [0,1) clouds, 86 rows per cloud."""
    _check_sweep(dims, seeds, allow_large)
    rows = []
    for dim in dims:
        per_seed = []
        for i in range(seeds):
            m = gen_uniform(UNIFORM_ROWS, dim, base_seed + i)
            fm = build_frequency_model(m)
            fd = decompose(fm, include_trivial=include_trivial, workers=workers)
            per_seed.append(_report_stats(concentration_report(fm, fd, workers)))
        rows.append(_aggregate(dim, per_seed, _STAT_COLS))
    return rows


def embedding_table(dims=EMBED_DIMS, seeds: int = 3, base_seed: int = 1,
                    include_trivial: bool = True, workers: int = 1,
                    allow_large: bool = False,
                    p_repeat: float = SIGNAL_P_REPEAT) -> list[dict]:
    """Concentration statistics of sliding-window embeddings of a synthetic
    quantized random-walk signal (one signal per seed, all dims share it)."""
    _check_sweep(dims, seeds, allow_large)
    signals = [gen_randomwalk_signal(SIGNAL_LEN, SIGNAL_START, base_seed + i,
                                     p_repeat=p_repeat)
               for i in range(seeds)]
    rows = []
    for dim in dims:
        per_seed = []
        for sig in signals:
            m = embed_signal(sig, EMBED_WINDOWS, EMBED_STRIDE, dim)
            fm = build_frequency_model(m)
            fd = decompose(fm, include_trivial=include_trivial, workers=workers)
            per_seed.append(_report_stats(concentration_report(fm, fd, workers)))
        rows.append(_aggregate(dim, per_seed, _STAT_COLS))
    return rows


def powerlaw_exponent_table(dims=POWERLAW_DIMS, seeds: int = 3,
                            base_seed: int = 1,
                            exponent: float = DEFAULT_EXPONENT,
                            allow_large: bool = False) -> list[dict]:
    """Fitted column-sum CCDF exponents of generated boolean matrices.

    The fit window is the linear region of the generated law: from the body
    start of the marginal distribution up to the 90th percentile, ahead of
    the sparse fan-out. The ``exponent`` column carries the conventional
    negative sign of a decaying CCDF slope.
    """
    _check_sweep(dims, seeds, allow_large)
    marg = ParametricMarginals(exponent=exponent)
    rows = []
    for dim in dims:
        per_seed = []
        for i in range(seeds):
            m = gen_powerlaw_boolean(POWERLAW_ROWS, dim, base_seed + i,
                                     marginals=marg)
            sums = column_sums(m)
            fit = fit_exponent(sums, x_min=float(marg.body_start),
                               x_max=float(np.percentile(sums, 90.0)))
            per_seed.append({"exponent": -fit.alpha,
                             "r_squared": fit.r_squared})
        rows.append(_aggregate(dim, per_seed, ("exponent", "r_squared")))
    return rows


def powerlaw_concentration_table(dims=POWERLAW_DIMS, seeds: int = 3,
                                 base_seed: int = 1,
                                 exponent: float = DEFAULT_EXPONENT,
                                 include_trivial: bool = True,
                                 workers: int = 1,
                                 allow_large: bool = False) -> list[dict]:
    """Concentration statistics of generated power-law boolean matrices."""
    _check_sweep(dims, seeds, allow_large)
    marg = ParametricMarginals(exponent=exponent)
    rows = []
    for dim in dims:
        per_seed = []
        for i in range(seeds):
            m = gen_powerlaw_boolean(POWERLAW_ROWS, dim, base_seed + i,
                                     marginals=marg)
            fm = build_frequency_model(m)
            fd = decompose(fm, include_trivial=include_trivial, workers=workers)
            stats = _report_stats(concentration_report(fm, fd, workers))
            stats["density"] = m.nnz / (m.n_rows * m.n_cols)
            per_seed.append(stats)
        rows.append(_aggregate(dim, per_seed, _STAT_COLS + ("density",)))
    return rows


TABLE_DRIVERS = {
    "1": (uniform_cloud_table, UNIFORM_DIMS),
    "2-synthetic": (embedding_table, EMBED_DIMS),
    "3": (powerlaw_exponent_table, POWERLAW_DIMS),
    "4": (powerlaw_concentration_table, POWERLAW_DIMS),
}
