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

Both passes run one block kernel over the fixed column-block grid. Each
block is scaled, and its projections G computed, in scratch buffers of one
block each that belong to the thread running it and are reused by that
thread's next block. The caller's reduction runs on the block inside the
same worker (``map_projection_blocks``), so only small per-block partials
leave it, and they are merged in block order: outputs do not depend on the
worker count.

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

# Eigenvalues below n_rows * eps are indistinguishable from the deflation
# residual of the unit-norm trivial axis, whatever the data.
_ABS_EIG_FLOOR_PER_ROW = np.finfo(np.float64).eps


@dataclass
class FrequencyModel:
    """Frequency form of a count matrix: masses and the implicit f_ij = k_ij / k.

    Row and column masses each sum to 1. Zero-mass rows and columns are kept
    in place but recorded here; they have no profile and are excluded from
    every profile-based computation downstream.
    """

    matrix: CountMatrix
    row_masses: np.ndarray
    col_masses: np.ndarray
    grand_total: float
    excluded_rows: np.ndarray
    excluded_cols: np.ndarray

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


@dataclass(frozen=True)
class Profile:
    """Conditional distribution of one row or column; coordinates sum to 1."""

    axis: str
    index: int
    coordinates: np.ndarray


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

    @property
    def nontrivial_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[1:] if self.include_trivial else self.eigenvalues


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
    )


def profile(fm: FrequencyModel, axis: str, index: int) -> Profile:
    """Row profile f_ij / f_i or column profile f_ij / f_j."""
    if axis not in ("row", "column"):
        raise ValidationError(f"axis must be 'row' or 'column', got {axis!r}")
    m = fm.matrix
    if axis == "row":
        if not 0 <= index < m.n_rows:
            raise ValidationError(f"row index {index} out of range")
        total = m.row_sums()[index]
        if total == 0.0:
            raise ValidationError(f"row {index} has zero mass, no profile")
        if m.is_sparse:
            coords = np.asarray(m.sparse[index, :].todense()).ravel() / total
        else:
            coords = m.dense[index] / total
    else:
        if not 0 <= index < m.n_cols:
            raise ValidationError(f"column index {index} out of range")
        total = column_sums(m)[index]
        if total == 0.0:
            raise ValidationError(f"column {index} has zero mass, no profile")
        rows, vals = m.column_entries(index)
        coords = np.zeros(m.n_rows)
        coords[rows] = vals / total
    return Profile(axis=axis, index=index, coordinates=coords)


def _inv_pos(x: np.ndarray) -> np.ndarray:
    """Elementwise 1 / x where x > 0, else 0 (zero-mass rows and columns)."""
    pos = x > 0
    return np.where(pos, 1.0 / np.where(pos, x, 1.0), 0.0)


class _Scratch(threading.local):
    """Per-thread buffers, one block each, reused by the thread's next block."""

    def take(self, name: str, shape: tuple[int, int]) -> np.ndarray:
        size = shape[0] * shape[1]
        buf = getattr(self, name, None)
        if buf is None or buf.size < size:
            buf = np.empty(size)
            setattr(self, name, buf)
        return buf[:size].reshape(shape)


class _BlockKernel:
    """Scaled column blocks of K and their projections G, one block at a time.

    In count units, with B = diag(1/sqrt(k_i)) K diag(1/sqrt(k_j)), the dual
    operator is W = B B^T exactly, and the transition formula collapses to

        G_a(j) = (sqrt(k) / k_j) sum_i u_a(i) k_ij / sqrt(k_i)

    since the sqrt(lambda_a) in F and the 1/sqrt(lambda_a) prefactor cancel.
    Dense blocks and dense G live in per-thread scratch: a result is valid
    until the same thread computes its next block.
    """

    def __init__(self, fm: FrequencyModel, basis: np.ndarray | None = None):
        m = fm.matrix
        self.m = m
        self.inv_sqrt_ki = _inv_pos(np.sqrt(m.row_sums()))
        self.kj = column_sums(m)
        self.sqrt_k = np.sqrt(fm.grand_total)
        self.UT = None if basis is None else basis.T
        self.scratch = _Scratch()

    def scaled(self, j0: int, j1: int, scale_cols: bool):
        """Columns [j0, j1) of diag(1/sqrt(k_i)) K, right-multiplied by
        diag(1/sqrt(k_j)) when ``scale_cols``; dense or scipy sparse,
        matching the matrix storage."""
        m = self.m
        if m.is_sparse:
            blk = m.sparse[:, j0:j1].astype(np.float64, copy=True)
            blk.data *= self.inv_sqrt_ki[blk.indices]
            if scale_cols:
                blk.data *= np.repeat(np.sqrt(_inv_pos(self.kj[j0:j1])),
                                      np.diff(blk.indptr))
            return blk
        buf = self.scratch.take("block", (m.n_rows, j1 - j0))
        np.multiply(m.dense[:, j0:j1], self.inv_sqrt_ki[:, None], out=buf)
        if scale_cols:
            np.multiply(buf, np.sqrt(_inv_pos(self.kj[j0:j1]))[None, :], out=buf)
        return buf

    def projections(self, j0: int, j1: int) -> np.ndarray:
        """Non-trivial projections G of columns [j0, j1), shape
        (n_nontrivial, j1 - j0); zero-mass columns hold zeros.

        Dense G is C-ordered scratch; sparse storage gives a fresh F-ordered
        array, the transpose of a sparse-times-dense product. The layout
        fixes the summation order of reductions over G, so it is part of
        the output contract."""
        blk = self.scaled(j0, j1, scale_cols=False)
        if self.m.is_sparse:
            G = (blk.T @ self.UT.T).T
        else:
            G = np.matmul(self.UT, blk,
                          out=self.scratch.take("G", (self.UT.shape[0], j1 - j0)))
        G *= (self.sqrt_k * _inv_pos(self.kj[j0:j1]))[None, :]
        return G


def decompose(fm: FrequencyModel, include_trivial: bool = True,
              tol: float = 1e-12, workers: int = 1) -> FactorDecomposition:
    """Eigendecompose the dual-space operator and build row projections.

    ``tol`` is the relative eigenvalue cutoff: non-trivial axes below
    ``tol * max(non-trivial eigenvalue)`` are dropped, as are axes below the
    absolute noise floor ``n_rows * eps``. The retained count never exceeds
    min(effective rows, effective cols) - 1 non-trivial axes.
    """
    m = fm.matrix
    if m.n_rows > MAX_DUAL_ROWS:
        raise ValidationError(
            f"dual-space route is designed for at most {MAX_DUAL_ROWS} rows; "
            f"got {m.n_rows}")
    kernel = _BlockKernel(fm)

    def block_gram(j0: int, j1: int) -> np.ndarray:
        blk = kernel.scaled(j0, j1, scale_cols=True)
        if m.is_sparse:
            return (blk @ blk.T).toarray()
        return blk @ blk.T

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
    floor = max(float(lams[0]) * tol if lams.size else 0.0,
                m.n_rows * _ABS_EIG_FLOOR_PER_ROW)
    n_keep = int(np.searchsorted(-lams, -floor, side="right"))
    max_rank = max(0, min(fm.n_rows_effective, fm.n_cols_effective) - 1)
    n_keep = min(n_keep, max_rank)
    lams, U = lams[:n_keep].copy(), U[:, :n_keep].copy()
    _canonical_signs(U)

    # Row principal coordinates; zero-mass rows have no profile and get 0.
    inv_sqrt_fi = _inv_pos(np.sqrt(fm.row_masses))
    F_nt = U * np.sqrt(lams)[None, :] * inv_sqrt_fi[:, None]
    if include_trivial:
        trivial_col = np.where(fm.row_masses > 0, 1.0, 0.0)
        eigenvalues = np.concatenate(([1.0], lams))
        row_projections = np.column_stack([trivial_col, F_nt]) if n_keep \
            else trivial_col[:, None]
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
                          reduce: Callable, workers: int = 1) -> Iterator:
    """Yield ``reduce(j0, j1, G)`` for every column block, in block order.

    G is the block's non-trivial column projections (see
    ``_BlockKernel.projections``). ``reduce`` runs inside the worker that
    computed G and may overwrite it, but must not keep it: a dense G is
    scratch that the worker's next block reuses. The block grid is fixed by
    the matrix shape (see ``column_blocks``), so merging the results in the
    order they come keeps every reduction independent of ``workers``.
    """
    kernel = _BlockKernel(fm, fd.basis)
    return ordered_block_map(
        lambda j0, j1: reduce(j0, j1, kernel.projections(j0, j1)),
        column_blocks(fm.n_rows, fm.n_cols), workers)


def projection_blocks(fm: FrequencyModel, fd: FactorDecomposition,
                      workers: int = 1) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (j0, j1, G) with G the non-trivial column projections of a block.

    G has shape (n_nontrivial, j1 - j0); zero-mass columns hold zeros. Each
    G is a copy the caller may keep.
    """
    return map_projection_blocks(
        fm, fd, lambda j0, j1, G: (j0, j1, G.copy(order="K")), workers)


def column_projection(fm: FrequencyModel, fd: FactorDecomposition,
                      column: int) -> np.ndarray:
    """Non-trivial projections G_a(column) of one nonzero-mass column."""
    if not 0 <= column < fm.n_cols:
        raise ValidationError(f"column index {column} out of range")
    if column_sums(fm.matrix)[column] == 0.0:
        raise ValidationError(f"column {column} has zero mass")
    return _BlockKernel(fm, fd.basis).projections(column, column + 1)[:, 0].copy()


def column_projections(fm: FrequencyModel, fd: FactorDecomposition,
                       workers: int = 1):
    """Iterate (j, projections) per nonzero-mass column, ascending j.

    Each vector has ``fd.nu`` entries; when the trivial axis is included its
    projection is the constant 1. Zero-mass columns are skipped (they are
    listed in ``fm.excluded_cols``).
    """
    nonzero = column_sums(fm.matrix) > 0
    for j0, j1, G in projection_blocks(fm, fd, workers):
        for j in range(j0, j1):
            if not nonzero[j]:
                continue
            g = G[:, j - j0]
            if fd.include_trivial:
                yield j, np.concatenate(([1.0], g))
            else:
                yield j, g.copy()
