"""Inertia decomposition, contributions, and concentration statistics.

Definitions used throughout, for column j on axis a with eigenvalue lambda_a
and column projection G_a(j):

* absolute contribution to axis a:  f_j G_a(j)^2
* absolute contribution of j:       f_j rho^2(j), rho^2(j) = sum_a G_a(j)^2
* relative contribution to axis a:  f_j G_a(j)^2 / lambda_a

Analytically the axis inertia I_a = sum_j f_j G_a(j)^2 equals lambda_a. The
report accumulates I_a from the projections themselves and measures
gap = max_a |lambda_a / I_a - 1|. When gap <= ``_EIG_INERTIA_TOL`` (1e-12)
the relative denominators are the eigenvalues: each relative contribution is
then within gap of the one divided by I_a, since every term is scaled by
I_a / lambda_a. Otherwise (axes whose eigenvalue sits at the numerical noise
floor, the regime near-duplicate-column data lands in) they are the
empirical I_a, which keep the per-axis relative total at exactly 1. Either
way, with the trivial axis included, rho^2(j) = 1 + (centered chi-squared
distance), and the mean relative contribution over columns is the identity
nu / |J|. The report records the gap and the denominator it used.

Per-column values come from the report's arrays: ``per_column_absolute[j]``
is f_j rho^2(j), so with the trivial axis included the chi-squared distance
of column j to the centroid is ``per_column_absolute[j] / f_j - 1``, and
``per_column_relative[j]`` sums column j's relative contributions over the
retained axes; ``axis_column_inertia`` holds the empirical I_a.

When the spectrum repeats an eigenvalue, ``eigh`` returns an arbitrary
orthonormal basis of that eigenspace, so the per-axis outputs,
``max_proj_cols`` and ``axis_column_inertia``, then depend on the storage
form and the summation order, not on the data alone. The eigenvalues and
sums over all axes, such as ``per_column_absolute``, do not depend on the
basis.

Summary statistics: sample standard deviation (n-1 denominator); the median
of an even-length vector is the mean of the two central order statistics.
The trivial axis (eigenvalue 1, every projection 1) is counted here alone,
by the convention of the contribution tables: ``decompose`` returns the
non-trivial axes, and ``include_trivial`` adds 1 to ``nu`` and the total
inertia and f_j to each column's contributions (f_i to each live row's).
Maximum projections are reported over non-trivial axes only, separately for
the column cloud (the headline number for wide matrices) and the row cloud.

The column statistics are reductions over the engine's column blocks
(``map_projection_blocks``), which hand over standardized projections
S = sqrt(f_j) G, so S^2 is exactly the contribution f_j G_a(j)^2. One
column-pass function does the whole reduction: each block's S is squared in
place inside the worker that computed it; the worker writes that block's
columns of the per-column arrays (a slice of them for dense storage, the
block's fill-ordered column indices for sparse storage): column sums of S^2
for the absolute, the inverse denominators times S^2 for the relative
contributions. Only per-axis sums of S^2 and the block's largest
|G| / sqrt(k) = sqrt(max_a S^2) / sqrt(k_j) come back, merged in block
order, and the largest is scaled by sqrt(k) once. The pass
runs once with the inverse eigenvalues, and again with the inverse axis
inertias only when the gap check fails; the rerun rewrites the absolute
contributions with the same bits and its sums are discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import (FactorDecomposition, FrequencyModel, _inv_pos,
                     build_frequency_model, decompose, map_projection_blocks)
from .store import CountMatrix

# The report divides by the eigenvalues instead of the axis inertias
# sum_j f_j G_a(j)^2 when max_a |lambda_a / I_a - 1| is at most this; each
# relative contribution then stays within that gap.
_EIG_INERTIA_TOL = 1e-12

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
    # max_a |lambda_a / I_a - 1|; 0.0 with no non-trivial axis
    inertia_gap: float

    @property
    def relative_denominator(self) -> str:
        """The relative denominators the gap chose: "eigenvalues" when the
        gap is at most 1e-12, else (a NaN or infinite gap included)
        "axis_inertia"."""
        return "eigenvalues" if self.inertia_gap <= _EIG_INERTIA_TOL \
            else "axis_inertia"

    def to_dict(self) -> dict:
        """Scalar summary with the exact serialization field set."""
        return {name: (int if name in ("dim", "nu", "n_cols_effective")
                       else float)(getattr(self, name))
                for name in REPORT_FIELDS}

    def to_csv_row(self) -> tuple[str, str]:
        """(header line, value line) in the canonical field order."""
        d = self.to_dict()
        return ",".join(REPORT_FIELDS), ",".join(repr(d[n]) for n in REPORT_FIELDS)


def _summary(x: np.ndarray) -> tuple[float, float, float]:
    """(mean, sample sd, median); the sd of a single value is 0. The median
    is ``np.median``'s, taken by ``np.partition``, which, unlike
    ``np.median``, does not import ``numpy.ma``."""
    sd = float(x.std(ddof=1)) if x.size > 1 else 0.0
    h, odd = divmod(x.size, 2)
    part = np.partition(x, (h - 1 + odd, h))
    median = part[h] if odd else (part[h - 1] + part[h]) / 2
    return float(x.mean()), sd, float(median)


def concentration_report(fm: FrequencyModel, fd: FactorDecomposition,
                         workers: int | None = None, *,
                         include_trivial: bool = True) -> ContributionReport:
    """All per-column metrics and summaries, in one streaming pass when the
    eigenvalues can serve as relative denominators.

    The pass accumulates per-column absolute contributions, the per-axis
    column inertias I_a, the largest |projection|, and the relative
    contributions divided by the eigenvalues. Those are kept when every
    |lambda_a / I_a - 1| <= 1e-12; otherwise, or when an I_a is zero or not
    a number, the same pass runs again dividing by I_a. ``fd`` holds the
    non-trivial axes; ``include_trivial`` adds the trivial one (see above).
    """
    fj = fm.col_masses
    n_cols = fm.n_cols
    live = fj > 0
    trivial = 1.0 if include_trivial else 0.0
    lams = fd.eigenvalues

    abs_col = np.zeros(n_cols)
    rel_col = np.zeros(n_cols)

    def column_pass(inv_denominators: np.ndarray) -> tuple[np.ndarray, float]:
        """Write abs_col and rel_col; return (I_a, max |G|)."""
        def block(cols: slice | np.ndarray,
                  S: np.ndarray) -> tuple[float, np.ndarray]:
            f = fj[cols]
            S2 = np.multiply(S, S, out=S)
            abs_col[cols] = trivial * f + S2.sum(axis=0)
            rel_col[cols] = trivial * f + inv_denominators @ S2
            # max |G| / sqrt(k) = sqrt(max_a S^2) / sqrt(k_j); an empty
            # block leaves the running max alone
            top = float((np.sqrt(S2.max(axis=0))
                         * fm.col_scale[cols]).max()) if S2.size else 0.0
            return top, S2.sum(axis=1)

        inertia = np.zeros(fd.n_nontrivial)
        max_proj = 0.0
        for top, part in map_projection_blocks(fm, fd, block, workers):
            inertia += part
            max_proj = max(max_proj, top)
        return inertia, float(np.sqrt(fm.grand_total)) * max_proj

    axis_inertia, max_proj_cols = column_pass(1.0 / lams)
    # A zero I_a gives an infinite gap and a NaN one a NaN gap: both fail
    # the check below and take the rerun.
    with np.errstate(divide="ignore", invalid="ignore"):
        inertia_gap = float(np.abs(lams / axis_inertia - 1.0).max()) \
            if axis_inertia.size else 0.0
    if not inertia_gap <= _EIG_INERTIA_TOL:
        column_pass(_inv_pos(axis_inertia))

    # Row cloud: small by design, computed densely.
    F, fi = fd.row_projections, fm.row_masses
    F2 = F * F
    trivial_rows = trivial * (fi > 0)  # F_0(i)^2, 0 for zero-mass rows
    row_abs = fi * (trivial_rows + F2.sum(axis=1))
    row_rel = fi * (trivial_rows + F2 @ _inv_pos(F2.T @ fi))
    max_proj_rows = float(np.abs(F).max()) if F.size else 0.0
    spectrum = np.r_[1.0, lams] if include_trivial else lams

    abs_mean, abs_sd, abs_median = _summary(abs_col[live])
    rel_mean, rel_sd, rel_median = _summary(rel_col[live])
    return ContributionReport(
        dim=n_cols, n_cols_effective=int(live.sum()), nu=spectrum.size,
        total_inertia=float(spectrum.sum()),
        abs_mean=abs_mean, abs_sd=abs_sd, abs_median=abs_median,
        rel_mean=rel_mean, rel_sd=rel_sd, rel_median=rel_median,
        max_proj_cols=max_proj_cols, max_proj_rows=max_proj_rows,
        per_column_absolute=abs_col, per_column_relative=rel_col,
        per_row_absolute=row_abs, per_row_relative=row_rel,
        axis_column_inertia=axis_inertia, excluded_cols=fm.excluded_cols,
        inertia_gap=inertia_gap)


class Analysis(NamedTuple):
    """The three stages of one analysis, in pipeline order."""

    model: FrequencyModel
    decomposition: FactorDecomposition
    report: ContributionReport


def analyze(m: CountMatrix, include_trivial: bool = True,
            workers: int | None = None) -> Analysis:
    """The whole pipeline: ``build_frequency_model``, ``decompose`` and
    ``concentration_report``, on ``workers`` (default ``resolve_workers()``)."""
    fm = build_frequency_model(m)
    fd = decompose(fm, workers=workers)
    return Analysis(fm, fd, concentration_report(
        fm, fd, workers, include_trivial=include_trivial))
