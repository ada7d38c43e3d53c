"""Seeded synthetic data generators for the three evaluation settings.

All randomness flows through numpy's PCG64 generator, constructed as
``np.random.Generator(np.random.PCG64(seed))``. PCG64 is a named, documented
64-bit stream whose output for a given seed is stable across platforms, so
identical generator parameters always produce bit-identical data. Generation
is single-pass and sequential; worker counts never touch it.

The parametric marginal law for boolean matrices is a discrete power law
with an attenuated head:

    P(x) ~ x^-exponent        for x in [body_start, n_rows]
    P(x) ~ head_mass-scaled   for x in [1, body_start)

i.e. a fraction ``head_mass`` of columns draw small sums (still x^-exponent
shaped within the head), the rest draw from the pure power-law body. The
defaults (exponent 2.49, body_start 13, head_mass 0.006) are calibrated so a
425-row matrix lands in the reference regime: column-sum CCDF exponent near
1.49, fill density near 6-7%, and occasional single-entry columns that give
the column cloud its large projection outliers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .store import CountMatrix, SignalSeries

DEFAULT_EXPONENT = 2.49
DEFAULT_BODY_START = 12
DEFAULT_HEAD_MASS = 0.006
DEFAULT_TICK = 0.5

# Upper bound on dense generation, in elements (count of float64 values).
MAX_DENSE_ELEMS = 200_000_000


def rng_from_seed(seed: int) -> np.random.Generator:
    """The project-wide RNG: PCG64 under numpy's Generator interface."""
    return np.random.Generator(np.random.PCG64(seed))


def gen_uniform(n_rows: int, n_cols: int, seed: int) -> CountMatrix:
    """Dense matrix of i.i.d. uniform [0, 1) values."""
    if n_rows < 1 or n_cols < 1:
        raise ValidationError("matrix dimensions must be at least 1")
    if n_rows * n_cols > MAX_DENSE_ELEMS:
        raise ValidationError(
            f"requested {n_rows}x{n_cols} dense matrix exceeds the "
            f"{MAX_DENSE_ELEMS}-element memory budget")
    rng = rng_from_seed(seed)
    return CountMatrix.from_dense(rng.random((n_rows, n_cols)))


def gen_randomwalk_signal(n: int, start: float, seed: int,
                          p_repeat: float = 0.9,
                          tick: float = DEFAULT_TICK) -> SignalSeries:
    """Quantized random walk: repeat with probability p_repeat, else +-tick.

    Mimics a slow-moving instrument price stream: values stay on the tick
    lattice, with long runs of identical values when p_repeat is high. The
    walk aborts (rather than clamping) if it would touch zero.
    """
    if n < 1:
        raise ValidationError("signal length must be at least 1")
    if not 0.0 <= p_repeat < 1.0:
        raise ValidationError("p_repeat must be in [0, 1)")
    if start <= 0:
        raise ValidationError("start must be positive")
    if tick <= 0:
        raise ValidationError("tick must be positive")
    rng = rng_from_seed(seed)
    moves = rng.random(n - 1) >= p_repeat
    signs = np.where(rng.random(n - 1) < 0.5, -1.0, 1.0)
    steps = np.where(moves, signs * tick, 0.0)
    values = start + np.concatenate(([0.0], np.cumsum(steps)))
    if values.min() <= 0:
        raise ValidationError(
            "random walk crossed zero; raise start or lower n")
    return SignalSeries(values)


def embed_signal(sig: SignalSeries, n_windows: int, stride: int,
                 length: int) -> CountMatrix:
    """Sliding-window embedding: row r = sig[r*stride : r*stride + length]."""
    if n_windows < 1 or stride < 1 or length < 1:
        raise ValidationError("n_windows, stride, and length must be positive")
    needed = (n_windows - 1) * stride + length
    if needed > sig.length:
        raise ValidationError(
            f"signal too short: need {needed} samples, have {sig.length}")
    if sig.values.min() < 0:
        raise ValidationError("signal must be nonnegative to embed as counts")
    starts = np.arange(n_windows) * stride
    rows = sig.values[starts[:, None] + np.arange(length)[None, :]]
    return CountMatrix.from_dense(rows)


# -- marginal sources for the boolean generator ------------------------------

@dataclass(frozen=True)
class ParametricMarginals:
    """Power-law-with-attenuated-head distribution over column sums."""

    exponent: float = DEFAULT_EXPONENT
    body_start: int = DEFAULT_BODY_START
    head_mass: float = DEFAULT_HEAD_MASS

    def weights(self, n_rows: int) -> np.ndarray:
        """Probability table over sums 1..n_rows."""
        if self.exponent <= 1.0:
            raise ValidationError("exponent must exceed 1")
        if not 0.0 <= self.head_mass < 1.0:
            raise ValidationError("head_mass must be in [0, 1)")
        body_start = min(self.body_start, n_rows)
        if body_start < 1:
            raise ValidationError("body_start must be at least 1")
        x = np.arange(1, n_rows + 1, dtype=np.float64)
        w = x ** (-self.exponent)
        body = w.copy()
        body[: body_start - 1] = 0.0
        probs = body / body.sum()
        if body_start > 1 and self.head_mass > 0:
            head = w.copy()
            head[body_start - 1:] = 0.0
            probs = (1.0 - self.head_mass) * probs \
                + self.head_mass * head / head.sum()
        return probs

    def sample(self, rng: np.random.Generator, size: int, n_rows: int) -> np.ndarray:
        """Inverse-CDF draws from the precomputed cumulative table."""
        cdf = np.cumsum(self.weights(n_rows))
        cdf /= cdf[-1]
        return np.searchsorted(cdf, rng.random(size), side="left") + 1


@dataclass(frozen=True)
class EmpiricalMarginals:
    """Uniform resampling (with replacement) from observed column sums."""

    sums: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.sums, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("empirical marginals must be a nonempty vector")
        if arr.min() < 0:
            raise ValidationError("empirical marginal sums must be nonnegative")
        object.__setattr__(self, "sums", arr)

    def sample(self, rng: np.random.Generator, size: int, n_rows: int) -> np.ndarray:
        if self.sums.max() > n_rows:
            raise ValidationError(
                f"empirical marginal {self.sums.max()} exceeds n_rows={n_rows}")
        idx = rng.integers(0, self.sums.size, size=size)
        return self.sums[idx]


def load_marginals(path: str) -> EmpiricalMarginals:
    """One integer column sum per line."""
    return EmpiricalMarginals(np.loadtxt(path, dtype=np.int64, ndmin=1))


def gen_powerlaw_boolean(n_rows: int, n_cols: int, seed: int,
                         marginals: ParametricMarginals | EmpiricalMarginals | None = None,
                         ) -> CountMatrix:
    """Sparse boolean matrix whose column sums follow the marginal source.

    For each column, a sum is drawn from the source, then that many distinct
    rows are chosen uniformly without replacement and set to 1. Output column
    sums therefore equal the drawn sums exactly; values are presence flags,
    so a cell never exceeds 1.
    """
    import scipy.sparse as sp  # deferred: dense-only commands never load scipy

    if n_rows < 1 or n_cols < 1:
        raise ValidationError("matrix dimensions must be at least 1")
    if marginals is None:
        marginals = ParametricMarginals()
    rng = rng_from_seed(seed)
    sums = marginals.sample(rng, n_cols, n_rows)

    indptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(sums, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    # Key-threshold sampling: per column, the rows holding the s_j smallest
    # of n_rows i.i.d. uniform keys form a uniform subset of size s_j. Row
    # indices come out of nonzero() already sorted within each column.
    chunk = max(1, 4_000_000 // max(1, n_rows))
    for c0 in range(0, n_cols, chunk):
        c1 = min(c0 + chunk, n_cols)
        s = sums[c0:c1]
        while True:
            keys = rng.random((c1 - c0, n_rows))
            kth = np.sort(keys, axis=1)[np.arange(c1 - c0), np.maximum(s, 1) - 1]
            mask = keys <= kth[:, None]
            mask[s == 0] = False
            if (mask.sum(axis=1) == s).all():
                break
            # duplicate keys in a column (measure-zero); redraw the chunk
        _, rows = np.nonzero(mask)
        indices[indptr[c0]: indptr[c1]] = rows
    mat = sp.csc_matrix((np.ones(indices.size), indices, indptr),
                        shape=(n_rows, n_cols))
    return CountMatrix(sparse=mat)
