"""Empirical tail distributions and log-log power-law exponent fitting.

The estimator is deliberately the plot-based one: ordinary least squares on
(ln x, ln CCDF(x)) over the distinct observed values inside a fit window,
with alpha reported as the positive magnitude of the slope. CCDF here means
the strict survival fraction P(value > x). Conventions: if data follow a
density ~ x^-(alpha+1), the CCDF decays ~ x^-alpha; every reported number in
this package is a CCDF exponent unless labeled otherwise.

The default window is x_min = 1 up to the 99th percentile of the observed
values (``percentile``, ``np.percentile``'s value); the upper cutoff exists to exclude the sparse fan-out region where
single observations dominate the tail. Both cutoffs are overridable;
``x_max=None`` selects the percentile default and ``x_max=inf`` disables the
upper cutoff entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass
class PowerLawFit:
    """OLS log-log fit of a CCDF: P(x > x0) ~ c * x0^-alpha."""

    alpha: float
    c: float
    x_min: float
    x_max: float
    r_squared: float
    n_points: int

    def to_dict(self) -> dict:
        # an infinite upper cutoff serializes as null (strict JSON has no inf)
        return {
            "alpha": float(self.alpha),
            "c": float(self.c),
            "x_min": float(self.x_min),
            "x_max": float(self.x_max) if np.isfinite(self.x_max) else None,
            "r_squared": float(self.r_squared),
            "n_points": int(self.n_points),
        }


def ccdf(values) -> tuple[np.ndarray, np.ndarray]:
    """Strict survival fractions over the distinct observed values.

    Returns (xs, fractions) with xs ascending and fractions[i] the share of
    values strictly greater than xs[i]; the last fraction is 0.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0 or not (vals > 0).any():
        raise ValidationError("ccdf needs at least one positive value")
    xs, counts = np.unique(vals, return_counts=True)
    greater = vals.size - np.cumsum(counts)
    return xs, greater / vals.size


def percentile(values: np.ndarray, q: float) -> float:
    """``np.percentile(values, q)`` of a nonempty 1-D array, for q in
    [0, 100], by its default ("linear") method, bit for bit: the same order
    statistics, from ``np.partition`` at the same positions (signed zeros
    included), and the same interpolation. Unlike ``np.percentile``, it
    does not import ``numpy.ma``. A NaN among the values gives NaN."""
    at = (values.size - 1) * (q / 100)  # numpy's virtual index
    # from the last index on, numpy takes the largest value, at index -1
    i = -1 if at >= values.size - 1 else int(at)
    j = -1 if i < 0 else i + 1
    part = np.partition(values, sorted({0, -1, i, j}))
    if np.isnan(part[-1]):
        return float(part[-1])
    a, b, t = part[i], part[j], at - i
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def fit_loglog(x, y) -> tuple[float, float, float]:
    """OLS of ln y on ln x; returns (slope, intercept, r_squared)."""
    lx = np.log(np.asarray(x, dtype=np.float64))
    ly = np.log(np.asarray(y, dtype=np.float64))
    if lx.size < 3:
        raise ValidationError(f"need at least 3 points to fit, got {lx.size}")
    if np.ptp(lx) == 0.0:
        raise ValidationError("zero variance in ln x, cannot fit a slope")
    lx_c = lx - lx.mean()
    slope = float((lx_c @ (ly - ly.mean())) / (lx_c @ lx_c))
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (slope * lx + intercept)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2


def fit_exponent(values, x_min: float = 1.0,
                 x_max: float | None = None) -> PowerLawFit:
    """Fit the CCDF exponent of a sample over the window [x_min, x_max].

    ``x_max=None`` uses the 99th percentile of the observed values. Only
    distinct values with a strictly positive survival fraction enter the fit.
    """
    vals = np.asarray(values, dtype=np.float64)
    xs, fractions = ccdf(vals)
    if x_min < 1.0:
        raise ValidationError("x_min must be at least 1")
    if x_max is None:
        x_max = percentile(vals, 99.0)
    if x_max < x_min:
        raise ValidationError(f"empty fit window [{x_min}, {x_max}]")
    mask = (xs >= x_min) & (xs <= x_max) & (fractions > 0)
    n_points = int(mask.sum())
    if n_points < 3:
        raise ValidationError(
            f"need at least 3 distinct in-range values with positive CCDF, "
            f"got {n_points}")
    slope, intercept, r2 = fit_loglog(xs[mask], fractions[mask])
    return PowerLawFit(
        alpha=-slope,
        c=float(np.exp(intercept)),
        x_min=float(x_min),
        x_max=float(x_max),
        r_squared=r2,
        n_points=n_points,
    )
