"""Inertia decomposition, contributions, and concentration statistics.

Definitions used throughout, for column j on axis a with eigenvalue lambda_a
and column projection G_a(j):

* absolute contribution to axis a:  f_j G_a(j)^2
* absolute contribution of j:       f_j rho^2(j), rho^2(j) = sum_a G_a(j)^2
* relative contribution to axis a:  f_j G_a(j)^2 / sum_j f_j G_a(j)^2

The relative denominator is the axis inertia accumulated from the
projections themselves. Analytically it equals lambda_a; computing it
empirically keeps the per-axis relative total at exactly 1 even for axes
whose eigenvalue sits at the numerical noise floor, which is precisely the
regime near-duplicate-column data lands in. With the trivial axis included,
rho^2(j) = 1 + (centered chi-squared distance), and the mean relative
contribution over columns is the exact identity nu / |J|.

Summary statistics: sample standard deviation (n-1 denominator); the median
of an even-length vector is the mean of the two central order statistics.
Maximum projections are reported over non-trivial axes only (the trivial
projection is identically 1 and carries no information), separately for the
column cloud (the headline number for wide matrices) and the row cloud.

The column statistics are reductions over the engine's column blocks
(``map_projection_blocks``), which hand over standardized projections
S = sqrt(f_j) G, so S^2 is exactly the contribution f_j G_a(j)^2. Each
block's S is squared in place inside the worker that computed it; the worker
writes that block's slice of the per-column arrays (column sums of S^2 for
the absolute, inverse axis inertias times S^2 for the relative
contributions), and only per-axis sums of S^2 and the block's largest
|G| = sqrt(max_a S^2) / sqrt(f_j) come back, merged in block order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (FactorDecomposition, FrequencyModel, _inv_pos,
                     column_projection, map_projection_blocks)
from .errors import ValidationError
from .store import column_sums

REPORT_FIELDS = (
    "dim", "abs_mean", "abs_sd", "abs_median", "rel_mean", "rel_sd",
    "rel_median", "max_proj_cols", "max_proj_rows", "total_inertia", "nu",
    "n_cols_effective",
)


@dataclass
class ContributionReport:
    """Per-column contribution statistics plus cloud-level summaries."""

    dim: int
    n_cols_effective: int
    nu: int
    total_inertia: float
    abs_mean: float
    abs_sd: float
    abs_median: float
    rel_mean: float
    rel_sd: float
    rel_median: float
    max_proj_cols: float
    max_proj_rows: float
    per_column_absolute: np.ndarray
    per_column_relative: np.ndarray
    per_row_absolute: np.ndarray
    per_row_relative: np.ndarray
    axis_column_inertia: np.ndarray
    excluded_cols: np.ndarray

    def to_dict(self) -> dict:
        """Scalar summary with the exact serialization field set."""
        out = {}
        for name in REPORT_FIELDS:
            val = getattr(self, name)
            out[name] = int(val) if name in ("dim", "nu", "n_cols_effective") \
                else float(val)
        return out

    def to_csv_row(self) -> tuple[str, str]:
        """(header line, value line) in the canonical field order."""
        d = self.to_dict()
        header = ",".join(REPORT_FIELDS)
        row = ",".join(repr(d[name]) for name in REPORT_FIELDS)
        return header, row


def chi2_distance_to_centroid(fm: FrequencyModel, column: int) -> float:
    """Centered chi-squared distance of a column profile from the centroid.

    Returns sum_i (f_ij/f_j - f_i)^2 / f_i over nonzero-mass rows. The full
    rho^2 used in contributions is this value plus 1 when the trivial axis
    is included.
    """
    kj = column_sums(fm.matrix)
    if not 0 <= column < fm.n_cols:
        raise ValidationError(f"column index {column} out of range")
    if kj[column] == 0.0:
        raise ValidationError(f"column {column} has zero mass")
    rows, vals = fm.matrix.column_entries(column)
    p = np.zeros(fm.n_rows)
    p[rows] = vals / kj[column]
    fi = fm.row_masses
    live = fi > 0
    return float((((p - fi) ** 2)[live] / fi[live]).sum())


def _square_in_place(S: np.ndarray) -> np.ndarray:
    return np.multiply(S, S, out=S)


def axis_column_inertias(fm: FrequencyModel, fd: FactorDecomposition,
                         workers: int = 1) -> np.ndarray:
    """Per-axis inertia sum_j f_j G_a(j)^2 over non-trivial axes."""
    total = np.zeros(fd.n_nontrivial)
    for part in map_projection_blocks(
            fm, fd, lambda j0, j1, S: _square_in_place(S).sum(axis=1), workers):
        total += part
    return total


def absolute_contribution(fm: FrequencyModel, fd: FactorDecomposition,
                          column: int) -> tuple[np.ndarray, float]:
    """Per-axis absolute contributions f_j G_a(j)^2 of one column, and their sum."""
    g = column_projection(fm, fd, column)
    fj = fm.col_masses[column]
    per_axis = fj * g * g
    if fd.include_trivial:
        per_axis = np.concatenate(([fj], per_axis))
    return per_axis, float(per_axis.sum())


def relative_contribution(fm: FrequencyModel, fd: FactorDecomposition,
                          column: int, workers: int = 1, *,
                          axis_inertia: np.ndarray | None = None
                          ) -> tuple[np.ndarray, float]:
    """Per-axis relative contributions of one column, and their sum.

    Per axis these sum to 1 over all columns; summed over the nu retained
    axes and averaged over columns they give exactly nu / |J|. The
    denominators are the per-axis column inertias: pass
    ``report.axis_column_inertia`` or ``axis_column_inertias(fm, fd)`` to
    reuse them, otherwise they are computed here in one streaming pass.
    """
    g = column_projection(fm, fd, column)
    fj = fm.col_masses[column]
    if axis_inertia is None:
        axis_inertia = axis_column_inertias(fm, fd, workers)
    per_axis = fj * g * g * _inv_pos(axis_inertia)
    if fd.include_trivial:
        per_axis = np.concatenate(([fj], per_axis))
    return per_axis, float(per_axis.sum())


def concentration_report(fm: FrequencyModel, fd: FactorDecomposition,
                         workers: int = 1) -> ContributionReport:
    """All per-column metrics and summaries in two streaming passes.

    Pass one accumulates per-column absolute contributions, the per-axis
    column inertias, and the largest |projection|; pass two, which needs those
    axis inertias as denominators, accumulates the relative contributions.
    """
    fj = fm.col_masses
    n_cols = fm.n_cols
    live = fj > 0
    trivial = 1.0 if fd.include_trivial else 0.0

    abs_col = np.zeros(n_cols)

    def absolute(j0: int, j1: int, S: np.ndarray) -> tuple[float, np.ndarray]:
        f = fj[j0:j1]
        S2 = _square_in_place(S)
        abs_col[j0:j1] = trivial * f + S2.sum(axis=0)
        # max |G| = sqrt(f_j G^2) / sqrt(f_j); an empty block leaves the
        # running max alone
        top = float((np.sqrt(S2.max(axis=0)) * _inv_pos(np.sqrt(f))).max()) \
            if S2.size else 0.0
        return top, S2.sum(axis=1)

    axis_inertia = np.zeros(fd.n_nontrivial)
    max_proj_cols = 0.0
    for top, part in map_projection_blocks(fm, fd, absolute, workers):
        axis_inertia += part
        max_proj_cols = max(max_proj_cols, top)

    rel_col = np.zeros(n_cols)
    inv_inertia = _inv_pos(axis_inertia)

    def relative(j0: int, j1: int, S: np.ndarray) -> None:
        rel_col[j0:j1] = trivial * fj[j0:j1] + inv_inertia @ _square_in_place(S)

    for _ in map_projection_blocks(fm, fd, relative, workers):
        pass

    # Row cloud: small by design, computed densely.
    F = fd.row_projections
    F_nt = F[:, 1:] if fd.include_trivial else F
    fi = fm.row_masses
    row_abs = fi * (F * F).sum(axis=1)
    row_axis_inertia = (F_nt * F_nt).T @ fi
    inv_row_inertia = _inv_pos(row_axis_inertia)
    row_rel = fi * (trivial * np.where(fi > 0, 1.0, 0.0)
                    + (F_nt * F_nt) @ inv_row_inertia)
    max_proj_rows = float(np.abs(F_nt).max()) if F_nt.size else 0.0

    abs_live = abs_col[live]
    rel_live = rel_col[live]
    return ContributionReport(
        dim=n_cols,
        n_cols_effective=int(live.sum()),
        nu=fd.nu,
        total_inertia=float(fd.eigenvalues.sum()),
        abs_mean=float(abs_live.mean()),
        abs_sd=float(abs_live.std(ddof=1)) if abs_live.size > 1 else 0.0,
        abs_median=float(np.median(abs_live)),
        rel_mean=float(rel_live.mean()),
        rel_sd=float(rel_live.std(ddof=1)) if rel_live.size > 1 else 0.0,
        rel_median=float(np.median(rel_live)),
        max_proj_cols=max_proj_cols,
        max_proj_rows=max_proj_rows,
        per_column_absolute=abs_col,
        per_column_relative=rel_col,
        per_row_absolute=row_abs,
        per_row_relative=row_rel,
        axis_column_inertia=axis_inertia,
        excluded_cols=fm.excluded_cols,
    )
