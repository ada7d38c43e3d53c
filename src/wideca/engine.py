"""Correspondence analysis factorization for few-row, very-wide matrices.

The factorization works in the dual (row) space: instead of decomposing the
full n_rows x n_cols standardized kernel, it accumulates the n_rows x n_rows
symmetric operator

    W[i, k] = sum_j f_ij f_kj / (sqrt(f_i f_k) f_j)

in a single pass over columns and eigendecomposes that. W has the known
eigenpair (1, sqrt(f_I)), the "trivial" axis on which every profile projects
to 1. That pair is deflated analytically before calling the eigensolver, so
degenerate spectra (other eigenvalues equal to 1) cannot mix with it. Column
coordinates are recovered afterwards by the transition formula

    G_a(j) = (1 / sqrt(lambda_a)) sum_i F_a(i) f_ij / f_j

in a second streaming pass, which keeps cost and memory linear in the number
of columns. Row coordinates are F_a(i) = sqrt(lambda_a) u_a(i) / sqrt(f_i).

Each pass is one block function over the fixed column-block grid. The
mass-unit scales 1/sqrt(f_i) and 1/sqrt(f_j) are built once, by
``build_frequency_model``, and every reader in mass units takes them from
the model; the W pass keeps its own count-unit scales, fixed once per pass.
The W pass (``block_gram`` in ``decompose``) scales each block of K into a
scratch buffer and returns its Gram matrix. The projection pass
(``map_projection_blocks``) folds the row scaling into the basis, so a
block's projections come from one product that reads K where it is stored,
and hands the standardized S = sqrt(f_j) G to the caller's reduction inside
the same worker. Both passes run on ``store.ordered_block_map``: by default
with usable CPUs // BLAS threads workers, at least 1 and at most 2
(``store.resolve_workers``), the calling thread computing one block of each
round. Each thread has one scratch buffer of one block per pass, reused by
its next block. Only small per-block partials leave a worker, and they are
merged in block order: outputs do not depend on the worker count.
Per-column contributions and chi-squared distances come from the
contribution report.

The dual route is appropriate while n_rows stays small (designed for roughly
86 to 10^4 rows); it is rejected above ``MAX_DUAL_ROWS``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import NumericalError, ValidationError
from .store import CountMatrix, column_blocks, column_sums, ordered_block_map

MAX_DUAL_ROWS = 32768

# Non-trivial axes below _REL_EIG_TOL times the largest non-trivial
# eigenvalue are dropped.
_REL_EIG_TOL = 1e-12
# The contribution report divides by the eigenvalues instead of the axis
# inertias sum_j f_j G_a(j)^2 when max_a |lambda_a / I_a - 1| is at most
# this; each relative contribution then stays within that gap.
_EIG_INERTIA_TOL = 1e-12
# Eigenvalues below n_rows * eps are indistinguishable from the deflation
# residual of the unit-norm trivial axis, whatever the data.
_ABS_EIG_FLOOR_PER_ROW = np.finfo(np.float64).eps


@dataclass
class FrequencyModel:
    """Frequency form of a count matrix: masses and the implicit f_ij = k_ij / k.

    Row and column masses each sum to 1. Zero-mass rows and columns are kept
    in place but recorded here; they have no profile and are excluded from
    every profile-based computation downstream. ``row_scale`` and
    ``col_scale`` are 1/sqrt(f_i) and 1/sqrt(f_j), exactly 0 at zero mass:
    the mass-unit scales of the row coordinates, the projection pass and the
    report's largest |projection|, computed here once.
    """

    matrix: CountMatrix
    row_masses: np.ndarray
    col_masses: np.ndarray
    grand_total: float
    excluded_rows: np.ndarray
    excluded_cols: np.ndarray
    row_scale: np.ndarray
    col_scale: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.matrix.n_rows

    @property
    def n_cols(self) -> int:
        return self.matrix.n_cols

    @property
    def n_cols_effective(self) -> int:
        return self.n_cols - self.excluded_cols.size

    @property
    def n_rows_effective(self) -> int:
        return self.n_rows - self.excluded_rows.size


@dataclass
class FactorDecomposition:
    """Eigenvalues, row projections, and the basis needed to stream columns.

    Axes are ordered by eigenvalue, descending. When ``include_trivial`` is
    set (the default), axis 0 is the trivial one: eigenvalue exactly 1, row
    projections exactly 1. ``basis`` holds the orthonormal eigenvectors u_a
    of the non-trivial axes only, as columns.
    """

    nu: int
    eigenvalues: np.ndarray
    row_projections: np.ndarray
    basis: np.ndarray
    include_trivial: bool

    @property
    def n_nontrivial(self) -> int:
        return self.basis.shape[1]


def build_frequency_model(m: CountMatrix) -> FrequencyModel:
    """Convert counts to frequencies with row/column mass distributions."""
    k = m.grand_total
    if k <= 0:
        raise ValidationError("all-zero matrix has no frequency form")
    row_masses = m.row_sums() / k
    col_masses = column_sums(m) / k
    return FrequencyModel(
        matrix=m,
        row_masses=row_masses,
        col_masses=col_masses,
        grand_total=k,
        excluded_rows=np.flatnonzero(row_masses == 0.0),
        excluded_cols=np.flatnonzero(col_masses == 0.0),
        row_scale=_inv_pos(np.sqrt(row_masses)),
        col_scale=_inv_pos(np.sqrt(col_masses)),
    )


def _inv_pos(x: np.ndarray) -> np.ndarray:
    """Elementwise 1 / x where x > 0, else 0 (zero-mass rows and columns)."""
    pos = x > 0
    return np.where(pos, 1.0 / np.where(pos, x, 1.0), 0.0)


class _Scratch(threading.local):
    """Per-thread buffer of one block, reused by the thread's next block."""

    buf: np.ndarray | None = None

    def take(self, shape: tuple[int, int]) -> np.ndarray:
        size = shape[0] * shape[1]
        if self.buf is None or self.buf.size < size:
            self.buf = np.empty(size)
        return self.buf[:size].reshape(shape)


def decompose(fm: FrequencyModel, include_trivial: bool = True,
              workers: int | None = None) -> FactorDecomposition:
    """Eigendecompose the dual-space operator and build row projections.

    Non-trivial axes below ``_REL_EIG_TOL * max(non-trivial eigenvalue)``
    are dropped, as are axes below the absolute noise floor
    ``n_rows * eps``. The retained count never exceeds
    min(effective rows, effective cols) - 1 non-trivial axes.
    """
    m = fm.matrix
    if m.n_rows > MAX_DUAL_ROWS:
        raise ValidationError(
            f"dual-space route is designed for at most {MAX_DUAL_ROWS} rows; "
            f"got {m.n_rows}")
    inv_sqrt_ki = _inv_pos(np.sqrt(m.row_sums()))
    inv_sqrt_kj = np.sqrt(_inv_pos(column_sums(m)))
    scratch = _Scratch()

    def block_gram(j0: int, j1: int) -> np.ndarray:
        """Gram matrix of columns [j0, j1) of B = diag(1/sqrt(k_i)) K
        diag(1/sqrt(k_j)); in count units W = B B^T exactly. A dense block
        is scaled into the thread's scratch buffer, a sparse one in a fresh
        CSC copy."""
        col_scale = inv_sqrt_kj[j0:j1]
        if m.is_sparse:
            blk = m.sparse[:, j0:j1].astype(np.float64, copy=True)
            blk.data *= inv_sqrt_ki[blk.indices]
            blk.data *= np.repeat(col_scale, np.diff(blk.indptr))
            return (blk @ blk.T).toarray()
        buf = scratch.take((m.n_rows, j1 - j0))
        np.multiply(m.dense[:, j0:j1], inv_sqrt_ki[:, None], out=buf)
        np.multiply(buf, col_scale[None, :], out=buf)
        return buf @ buf.T

    W = np.zeros((m.n_rows, m.n_rows))
    for part in ordered_block_map(block_gram,
                                  column_blocks(m.n_rows, m.n_cols), workers):
        W += part

    u0 = np.sqrt(fm.row_masses)
    Wc = W - np.outer(u0, u0)
    try:
        lams, U = np.linalg.eigh(Wc)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from None
    if lams.size and lams.min() < -1e-8:
        raise NumericalError(
            f"dual operator numerically indefinite (min eigenvalue {lams.min():.3e})")

    order = np.argsort(-lams, kind="stable")
    lams, U = lams[order], U[:, order]
    floor = max(float(lams[0]) * _REL_EIG_TOL if lams.size else 0.0,
                m.n_rows * _ABS_EIG_FLOOR_PER_ROW)
    n_keep = int(np.searchsorted(-lams, -floor, side="right"))
    max_rank = max(0, min(fm.n_rows_effective, fm.n_cols_effective) - 1)
    n_keep = min(n_keep, max_rank)
    lams, U = lams[:n_keep].copy(), U[:, :n_keep].copy()
    _canonical_signs(U)

    # Row principal coordinates; zero-mass rows have no profile and get 0.
    F_nt = U * np.sqrt(lams)[None, :] * fm.row_scale[:, None]
    if include_trivial:
        trivial_col = np.where(fm.row_masses > 0, 1.0, 0.0)
        eigenvalues = np.concatenate(([1.0], lams))
        row_projections = np.column_stack([trivial_col, F_nt])
    else:
        eigenvalues = lams
        row_projections = F_nt
    return FactorDecomposition(
        nu=int(eigenvalues.size),
        eigenvalues=eigenvalues,
        row_projections=row_projections,
        basis=U,
        include_trivial=include_trivial,
    )


def _canonical_signs(U: np.ndarray) -> None:
    """Flip each eigenvector so its first significant coordinate is positive."""
    for a in range(U.shape[1]):
        col = U[:, a]
        big = np.flatnonzero(np.abs(col) > 1e-8 * np.abs(col).max())
        if big.size and col[big[0]] < 0:
            U[:, a] = -col


def map_projection_blocks(fm: FrequencyModel, fd: FactorDecomposition,
                          reduce: Callable,
                          workers: int | None = None) -> Iterator:
    """Yield ``reduce(j0, j1, S)`` for every column block, in block order.

    S, of shape (n_nontrivial, j1 - j0), holds the block's standardized
    non-trivial projections S = sqrt(f_j) G, so S^2 is exactly the
    contribution f_j G_a(j)^2; zero-mass columns hold zeros. In mass units
    the transition formula collapses to

        G_a(j) = (1 / f_j) sum_i u_a(i) f_ij / sqrt(f_i)

    since the sqrt(lambda_a) in F and the 1/sqrt(lambda_a) prefactor cancel.
    The model's row scale is folded into the basis once per pass,
    Ub = U^T diag(1/sqrt(f_i)) / k, so the block product H = Ub K[:, j0:j1]
    reads K where it is stored, with no scaled copy, and one in-place column
    pass by the model's column scale gives S = H / sqrt(f_j). S keeps the
    range that H^2 / f_j would lose for columns of relative mass below about
    1e-154.

    ``reduce`` runs inside the worker that computed S and may overwrite it,
    but must not keep it: a dense S is the worker's scratch buffer, reused by
    its next block. Sparse storage gives a fresh F-ordered S, the transpose
    of a sparse-times-dense product. That layout fixes the summation order
    of reductions over S, so it is part of the output contract. The block
    grid is fixed by the matrix shape (see ``column_blocks``), so merging the
    results in the order they come keeps every reduction independent of
    ``workers``.
    """
    m = fm.matrix
    # Ub^T, C-ordered: scipy's sparse-times-dense product takes it as it
    # is, and its transpose is the BLAS operand Ub.
    UbT = fd.basis * fm.row_scale[:, None] / fm.grand_total
    scratch = _Scratch()

    def block(j0: int, j1: int):
        if m.is_sparse:
            S = (m.sparse[:, j0:j1].T @ UbT).T
        else:
            S = np.matmul(UbT.T, m.dense[:, j0:j1],
                          out=scratch.take((UbT.shape[1], j1 - j0)))
        np.multiply(S, fm.col_scale[None, j0:j1], out=S)
        return reduce(j0, j1, S)

    return ordered_block_map(block, column_blocks(fm.n_rows, fm.n_cols), workers)
