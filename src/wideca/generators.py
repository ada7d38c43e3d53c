"""Seeded synthetic data generators for the three evaluation settings.

All randomness flows through numpy's PCG64 generator, constructed as
``np.random.Generator(np.random.PCG64(seed))``. PCG64 is a named, documented
64-bit stream whose output for a given seed is stable across platforms, so
identical generator parameters always produce bit-identical data.

``gen_uniform`` and ``gen_powerlaw_boolean`` draw in place, block by block,
on the store's column-block grid (``store.column_blocks``: about 10^6 values
a block, whole columns of keys for a power-law matrix) and run the blocks on
``store.ordered_block_map``. Each block builds its own PCG64 at its offset in
the one sequential stream (``PCG64.advance`` jumps there in O(log n) steps),
so every block draws exactly the numbers a single thread would have drawn
there, and the output depends on neither the grid nor the worker count. A
power-law block's keys, sorted keys and mask are buffers of the pass's one
``store._Scratch``, which each thread reuses for its next sub-slice. The
worker count is the passes' default (``store.resolve_workers``); no option
sets it. Seeds must be at least 0, and every generator refuses a matrix or
signal larger than physical memory before allocating it
(``store.check_memory``).

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .store import (CSC, CountMatrix, SignalSeries, _index_dtype, _Scratch,
                    check_memory, column_blocks, footprint, ordered_block_map)

DEFAULT_EXPONENT = 2.49
DEFAULT_BODY_START = 12
DEFAULT_HEAD_MASS = 0.006
DEFAULT_TICK = 0.5

# Within a block, gen_powerlaw_boolean draws and selects its keys in
# sub-slices of at most this many, in buffers each thread reuses.
_KEY_SLICE = 1 << 17


def rng_from_seed(seed: int) -> np.random.Generator:
    """The project-wide RNG: PCG64 under numpy's Generator interface."""
    if seed < 0:
        raise ValidationError(f"seed must be at least 0, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def _stream_at(state: dict, offset: int) -> np.random.Generator:
    """A generator that continues the PCG64 stream in ``state`` past
    ``offset`` 64-bit outputs, one per float64 that ``random`` draws."""
    bits = np.random.PCG64()
    bits.state = state
    bits.advance(offset)
    return np.random.Generator(bits)


def gen_uniform(n_rows: int, n_cols: int, seed: int) -> CountMatrix:
    """Dense matrix of i.i.d. uniform [0, 1) values."""
    if n_rows < 1 or n_cols < 1:
        raise ValidationError("matrix dimensions must be at least 1")
    state = rng_from_seed(seed).bit_generator.state
    check_memory(f"a {n_rows} x {n_cols} uniform matrix",
                 footprint(n_rows, n_cols))
    out = np.empty((n_rows, n_cols))
    flat = out.reshape(-1)

    def fill(lo: int, hi: int) -> None:
        _stream_at(state, lo).random(out=flat[lo:hi])

    # the flat array as one row, so a block is a run of the stream
    for _ in ordered_block_map(fill, column_blocks(1, flat.size)):
        pass
    return CountMatrix.from_dense(out)


def gen_randomwalk_signal(n: int, start: float, seed: int,
                          p_repeat: float = 0.9,
                          tick: float = DEFAULT_TICK) -> SignalSeries:
    """Quantized random walk: repeat with probability p_repeat, else +-tick.

    Mimics a slow-moving instrument price stream: values stay on the tick
    lattice, with long runs of identical values when p_repeat is high. The
    walk aborts at zero, on overflow or where float64 spacing exceeds tick.
    """
    if n < 1:
        raise ValidationError("signal length must be at least 1")
    if not 0.0 <= p_repeat < 1.0:
        raise ValidationError("p_repeat must be in [0, 1)")
    for name, value in (("start", start), ("tick", tick)):
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(
                f"{name} must be finite and positive, got {value}")
    check_memory(f"a {n}-sample random walk",  # the samples and two masks
                 footprint(1, n) + 2 * n)
    rng = rng_from_seed(seed)
    values = np.zeros(n)
    steps = values[1:]  # both draws, then the steps, in place
    stays = rng.random(out=steps) < p_repeat
    down = rng.random(out=steps) < 0.5
    steps.fill(tick)
    steps[down] = -tick
    steps[stays] = 0.0
    with np.errstate(over="ignore"):
        np.cumsum(steps, out=steps)
        values += start
    low, high = values.min(), values.max()
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValidationError(
            "random walk overflows float64; lower start or tick")
    if low <= 0:
        raise ValidationError(
            "random walk crossed zero; raise start or lower n")
    if high - np.nextafter(high, 0.0) > tick:  # steps rounded off the ticks
        raise ValidationError(f"random walk reaches {high:.17g}, where "
                              f"float64 spacing exceeds the tick {tick:.17g}; "
                              "lower start or raise tick")
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
    check_memory(f"a {n_windows} x {length} embedding",
                 footprint(n_windows, length))
    windows = np.lib.stride_tricks.sliding_window_view(sig.values, length)
    return CountMatrix.from_dense(windows[np.arange(n_windows) * stride])


# -- marginal sources for the boolean generator ------------------------------

@dataclass(frozen=True)
class ParametricMarginals:
    """Power-law-with-attenuated-head distribution over column sums."""

    exponent: float = DEFAULT_EXPONENT
    body_start: int = DEFAULT_BODY_START
    head_mass: float = DEFAULT_HEAD_MASS

    def weights(self, n_rows: int) -> np.ndarray:
        """Probability table over sums 1..n_rows."""
        if not (math.isfinite(self.exponent) and self.exponent > 1.0):
            raise ValidationError(
                f"exponent must be finite and exceed 1, got {self.exponent}")
        if not 0.0 <= self.head_mass < 1.0:
            raise ValidationError("head_mass must be in [0, 1)")
        body_start = min(self.body_start, n_rows)
        if body_start < 1:
            raise ValidationError("body_start must be at least 1")
        x = np.arange(1, n_rows + 1, dtype=np.float64)
        w = x ** (-self.exponent)
        body = w.copy()
        body[: body_start - 1] = 0.0
        body_mass = body.sum()
        if not body_mass > 0:  # x^-exponent underflows over the whole body
            raise ValidationError(
                f"exponent {self.exponent} leaves the power-law body (sums "
                f"{body_start} to {n_rows}) no probability mass in float64")
        probs = body / body_mass
        if body_start > 1 and self.head_mass > 0:
            head = w.copy()
            head[body_start - 1:] = 0.0
            probs = (1.0 - self.head_mass) * probs \
                + self.head_mass * head / head.sum()
        return probs

    def mean_sum(self, n_rows: int) -> float:
        """The expected column sum."""
        return float(self.weights(n_rows) @ np.arange(1, n_rows + 1))

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

    def mean_sum(self, n_rows: int) -> float:
        """The expected column sum: the mean of the observed sums."""
        return float(self.sums.mean())

    def sample(self, rng: np.random.Generator, size: int, n_rows: int) -> np.ndarray:
        if self.sums.max() > n_rows:
            raise ValidationError(
                f"empirical marginal {self.sums.max()} exceeds n_rows={n_rows}")
        return self.sums[rng.integers(0, self.sums.size, size=size)]


def gen_powerlaw_boolean(n_rows: int, n_cols: int, seed: int,
                         marginals: ParametricMarginals | EmpiricalMarginals | None = None,
                         ) -> CountMatrix:
    """Sparse boolean matrix whose column sums follow the marginal source.

    For each column, a sum is drawn from the source, then that many distinct
    rows are chosen uniformly without replacement and set to 1. Output column
    sums therefore equal the drawn sums exactly; values are presence flags,
    so a cell never exceeds 1.
    """
    if n_rows < 1 or n_cols < 1:
        raise ValidationError("matrix dimensions must be at least 1")
    if marginals is None:
        marginals = ParametricMarginals()
    rng = rng_from_seed(seed)
    job = f"a {n_rows} x {n_cols} power-law boolean matrix"
    mean_nnz = int(marginals.mean_sum(n_rows) * n_cols)
    # the sums and their draws, or CSC storage at the mean sum if larger
    check_memory(job, max(footprint(2, n_cols),
                          footprint(n_rows, n_cols, mean_nnz)))
    sums = marginals.sample(rng, n_cols, n_rows)
    # The keys continue the stream after the sums. The state is copied, not
    # computed: EmpiricalMarginals draws a data-dependent number of outputs.
    state = rng.bit_generator.state

    nnz = int(sums.sum())
    check_memory(job, footprint(n_rows, n_cols, nnz))
    dtype = _index_dtype(n_rows, n_cols, nnz)
    indptr = np.zeros(n_cols + 1, dtype=dtype)
    np.cumsum(sums, out=indptr[1:])
    indices = np.empty(nnz, dtype=dtype)
    # Key-threshold sampling: per column, the rows holding the s_j smallest
    # of n_rows i.i.d. uniform keys form a uniform subset of size s_j. The
    # flat indices of the selected keys ascend, so their rows (each flat
    # index mod n_rows) come out sorted within each column. The keys are
    # drawn in column order, n_rows per column, so block [c0, c1) starts
    # c0 * n_rows outputs into the stream.
    step = max(1, _KEY_SLICE // n_rows)
    scratch = _Scratch()

    def draw(c0: int, c1: int) -> None:
        """Draws and selects columns [c0, c1) sub-slice by sub-slice, in
        the thread's buffers of ``scratch``."""
        rng = _stream_at(state, c0 * n_rows)
        for a in range(c0, c1, step):
            b = min(a + step, c1)
            keys = rng.random(out=scratch.take("keys", (b - a, n_rows)))
            flat = _select(keys, sums[a:b], scratch.take("sorted", keys.shape),
                           scratch.take("mask", keys.shape, bool))
            indices[indptr[a]: indptr[b]] = flat % n_rows

    for _ in ordered_block_map(draw, column_blocks(n_rows, n_cols)):
        pass
    return CountMatrix._from_csc(n_rows, n_cols,
                                 CSC(indptr, indices, np.ones(nnz)))


def _select(keys: np.ndarray, s: np.ndarray, sorted_keys: np.ndarray,
            mask: np.ndarray) -> np.ndarray:
    """The flat indices, in row-major order, of the ``s[j]`` smallest keys
    of each row j of ``keys``: every key below the row's threshold (its
    ``s[j]``-th smallest key) and, of the keys equal to it, the leftmost.

    ``sorted_keys`` and ``mask`` are buffers of the shape of ``keys``. Every
    row marks at least its ``s[j]`` keys, so only a total above ``s.sum()``
    shows a tie at some threshold.
    """
    np.copyto(sorted_keys, keys)
    sorted_keys.sort(axis=1)
    kth = sorted_keys[np.arange(len(s)), np.maximum(s, 1) - 1]
    np.less_equal(keys, kth[:, None], out=mask)
    mask[s == 0] = False
    flat = np.flatnonzero(mask)
    if flat.size == s.sum():
        return flat
    for j in np.flatnonzero(mask.sum(axis=1) > s):
        tied = np.flatnonzero(keys[j] == kth[j])
        below = mask[j].sum() - tied.size
        mask[j, tied[s[j] - below:]] = False
    return np.flatnonzero(mask)
