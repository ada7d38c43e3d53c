"""Correspondence analysis factorization for few-row, very-wide matrices.

The factorization works in the dual (row) space: instead of decomposing the
full n_rows x n_cols standardized kernel, it accumulates the n_rows x n_rows
symmetric operator

    W[i, k] = sum_j f_ij f_kj / (sqrt(f_i f_k) f_j)

in a single pass over columns and eigendecomposes that. W has the known
eigenpair (1, sqrt(f_I)), the "trivial" axis on which every profile projects
to 1. That pair is deflated analytically before calling the eigensolver, so
degenerate spectra (other eigenvalues equal to 1) cannot mix with it; only
the report counts it, so ``decompose`` returns the other axes. Column
coordinates are recovered afterwards by the transition formula

    G_a(j) = (1 / sqrt(lambda_a)) sum_i F_a(i) f_ij / f_j

in a second streaming pass, which keeps cost and memory linear in the number
of columns.

Both passes read one matrix, B = diag(1/sqrt(k_i)) K diag(1/sqrt(k_j)) of
the counts K, row sums k_i and column sums k_j, whose grand totals cancel:
it is diag(1/sqrt(f_i)) F diag(1/sqrt(f_j)) of the frequencies F = K / k.
The first pass forms W = B B^T, the second the projections S = U^T B onto
the eigenvectors u_a, the columns of U. By the transition formula
S = sqrt(f_j) G, so the column coordinates are G = sqrt(k) S / sqrt(k_j)
and the row coordinates F_a(i) = sqrt(lambda_a) sqrt(k) u_a(i) / sqrt(k_i).
``build_frequency_model`` computes the scales 1/sqrt(k_i) and 1/sqrt(k_j)
once, and sparse storage's fill order, and every reader takes them from the
model; sqrt(k) enters each coordinate once.

Each pass is one block function over the fixed column-block grid. Dense
storage lays the grid over its columns as they are; sparse storage lays it
over its columns sorted by entry count (``CountMatrix._fill_order``, a
stable sort the model makes once for both passes), so each block holds
columns of like fill and takes one kernel for all of them. A block reads
storage only through ``store``: ``_slabs`` hands it to BLAS in slabs, a
dense block as one slab, a view of its storage, and a sparse block's
entries (``CountMatrix._entries``) scattered into the thread's ``slab``
buffer, in slabs of at most ``_SLAB_ELEMS`` cells. So each pass makes one
choice per block: its slabs, or a sparse block's light kernel. The W pass
(``block_gram`` in ``decompose``) scales each slab of K into the thread's
``slab`` buffer, a sparse slab in place, and sums the slabs' Gram
matrices, formed by BLAS. A sparse block whose fill does not make BLAS pay
(``_dense_gram``) sums the products of its columns' entry pairs with
``np.bincount`` instead (``_pair_gram``), which fills only the lower
triangle ``eigh`` reads. The W pass imports no scipy. The projection pass
(``map_projection_blocks``) folds the row scale into the basis, so a
block's projections come from products that read K where it is stored,
and hands S to the caller's reduction inside the same worker. A sparse
block at most ``_DENSE_PROJECTION_FILL`` full takes scipy's sparse product
when, over the whole pass, what that product saves on the light blocks
pays for importing ``scipy.sparse`` (``_scipy_pays``), and the BLAS slabs
otherwise. scipy's product needs sparse storage's scipy view
(``CountMatrix.sparse``), taken in the calling thread before the pool
starts, and only when scipy pays. Both passes run on
``store.ordered_block_map``, with BLAS on one thread and by default one
worker per usable CPU, at most 2 (``store.resolve_workers``); ``eigh`` runs
on one BLAS thread too, so no output's bits depend on BLAS's thread
setting. The calling thread and the pool share the blocks in ascending
order, with no barrier between them, and the calling thread computes the
next free block whenever the next result is not ready. Each pass makes one
``store._Scratch``, whose buffers each thread reuses for its next block:
``slab``, ``keys`` and ``weights`` in the W pass (freed before ``eigh``),
``S`` and ``slab`` in the projection pass. Only per-block partials leave a
worker, merged in block order: outputs do not depend on the worker count.
Per-column contributions and chi-squared distances come from the
contribution report.

The dual route is appropriate while n_rows stays small (designed for roughly
86 to 10^4 rows); ``decompose`` refuses one whose analysis exceeds physical
memory (``store.check_memory``), past about 12,300 rows on 8 GB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import NumericalError, ValidationError
from .store import (CountMatrix, _Scratch, check_memory, column_blocks,
                    column_sums, footprint, one_blas_thread, ordered_block_map,
                    resolve_workers)

# Axes below _REL_EIG_TOL times the largest eigenvalue are dropped.
_REL_EIG_TOL = 1e-12
# Eigenvalues below n_rows * eps are indistinguishable from the deflation
# residual of the unit-norm trivial axis, whatever the data.
_ABS_EIG_FLOOR_PER_ROW = np.finfo(np.float64).eps
# Sparse storage lays the column-block grid over its columns in fill order.
# The W pass forms a block's Gram matrix with BLAS, over dense slabs of at
# most _SLAB_ELEMS cells (2 MB of float64), when the pair-count kernel's work
# sum_j nnz_j^2 is at least _DENSE_GRAM_RATIO * n_rows^2 * width (see
# ``_dense_gram``); the pair-count kernel takes at most _SLAB_ELEMS pairs per
# ``np.bincount``. The projection pass multiplies a block by BLAS, in the same
# slabs, when its entries fill more than _DENSE_PROJECTION_FILL of its cells,
# and by scipy's sparse product otherwise. Slabs, not whole blocks, keep peak
# memory flat.
_SLAB_ELEMS = 1 << 18
_DENSE_GRAM_RATIO = 0.0025
_DENSE_PROJECTION_FILL = 0.12
# The light blocks take scipy's product only when it saves, over the whole
# pass, at least the cost of importing ``scipy.sparse``: 0.17-0.20 s after
# numpy (9 fresh interpreters on a 2-vCPU Xeon), about 4e9 BLAS
# multiply-adds at 0.04-0.045 ns each, scatter included (``_scipy_pays``).
_SCIPY_IMPORT_MADDS = 4e9


@dataclass
class FrequencyModel:
    """Frequency form of a count matrix: masses and the implicit f_ij = k_ij / k.

    Row and column masses each sum to 1. Zero-mass rows and columns are kept
    in place but recorded here; they have no profile and are excluded from
    every profile-based computation downstream.

    ``row_scale`` and ``col_scale`` are 1/sqrt(k_i) and 1/sqrt(k_j), of the
    row and column sums k_i and k_j, exactly 0 at a zero sum: the scales of
    B = diag(1/sqrt(k_i)) K diag(1/sqrt(k_j)), which both block passes read,
    W = B B^T in the first and S = U^T B in the second. In mass units
    B = diag(1/sqrt(f_i)) F diag(1/sqrt(f_j)), F = K / k, since the grand
    totals cancel; only the coordinates carry sqrt(k), once each:
    G = sqrt(k) S / sqrt(k_j) and F_a = sqrt(lambda_a) sqrt(k) u_a / sqrt(k_i).
    ``fill_order`` is sparse storage's (entries per column, columns by
    ascending entry count) from ``CountMatrix._fill_order``, taken once here
    for both passes; None for dense storage.
    """

    matrix: CountMatrix
    row_masses: np.ndarray
    col_masses: np.ndarray
    grand_total: float
    excluded_rows: np.ndarray
    excluded_cols: np.ndarray
    row_scale: np.ndarray
    col_scale: np.ndarray
    fill_order: tuple[np.ndarray, np.ndarray] | None

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
    """Eigenvalues, row projections, and the basis needed to stream columns,
    of the non-trivial axes only: the report adds the trivial one.

    Axes are ordered by eigenvalue, descending. ``basis`` holds their
    orthonormal eigenvectors u_a, as columns.
    """

    eigenvalues: np.ndarray
    row_projections: np.ndarray
    basis: np.ndarray

    @property
    def n_nontrivial(self) -> int:
        return self.basis.shape[1]


def build_frequency_model(m: CountMatrix) -> FrequencyModel:
    """Convert counts to frequencies with row/column mass distributions; a
    positive row or column sum below the smallest normal float64, whose
    reciprocal scales would overflow, is rejected."""
    k = m.grand_total  # positive: ``CountMatrix`` checks it
    tiny = float(np.finfo(np.float64).tiny)
    row_sums, col_sums = m.row_sums(), column_sums(m)
    for name, sums in (("row", row_sums), ("column", col_sums)):
        low = np.flatnonzero((sums > 0) & (sums < tiny))
        if low.size:
            raise ValidationError(f"{name} {low[0]} sums to {float(sums[low[0]])}, "
                                  f"below the smallest normal float64 {tiny}")
    row_masses, col_masses = row_sums / k, col_sums / k
    return FrequencyModel(
        matrix=m, row_masses=row_masses, col_masses=col_masses, grand_total=k,
        excluded_rows=np.flatnonzero(row_masses == 0.0),
        excluded_cols=np.flatnonzero(col_masses == 0.0),
        row_scale=_inv_pos(np.sqrt(row_sums)),
        col_scale=np.sqrt(_inv_pos(col_sums)),
        fill_order=m._fill_order() if m.is_sparse else None)


def _inv_pos(x: np.ndarray) -> np.ndarray:
    """Elementwise 1 / x where x > 0, else 0 (zero-mass rows and columns)."""
    pos = x > 0
    return np.where(pos, 1.0 / np.where(pos, x, 1.0), 0.0)


def _dense_gram(counts: np.ndarray, n_rows: int) -> bool:
    """Whether the W pass forms a sparse block's Gram matrix densely.

    ``counts`` holds the block's entries per column. The pair-count kernel
    (``_pair_gram``) does sum_j nnz_j (nnz_j + 1) / 2 pair products, about
    half of sum_j nnz_j^2; BLAS ``syrk`` on the block, scattered into slabs,
    about n_rows^2 * width / 2 multiply-adds. On fill-ordered power-law
    blocks (one thread of a 2 MiB-L2 Xeon) a pair took 9 to 15 ns at 425
    rows and 20 to 40 ns at 2,000, where the n_rows^2 triangle leaves the
    cache; a BLAS multiply-add, scatter included, took 0.05 to 0.07 ns at
    425 and 2,000 rows and 0.15 to 0.45 ns at 86. The kernels cross near a
    ratio sum_j nnz_j^2 / (n_rows^2 * width) of 0.002 at 2,000 rows, 0.007
    at 425 and 0.02 at 86; ``_DENSE_GRAM_RATIO`` errs towards BLAS, whose
    time does not grow with the fill. The rule reads only the block's counts
    and shape, never the worker count.
    """
    c = counts.astype(np.float64)
    return float(c @ c) >= _DENSE_GRAM_RATIO * n_rows * n_rows * c.size


def _dense_projection(counts: np.ndarray, n_rows: int) -> bool:
    """Whether the projection pass multiplies a sparse block by BLAS: its
    ``counts`` entries fill more than ``_DENSE_PROJECTION_FILL`` of its
    cells. scipy's product costs about nnz * axes multiply-adds, BLAS about
    n_rows * width * axes at a fifth of the price or less; on fill-ordered
    power-law blocks they crossed near 12 % fill at 425 and 2,000 rows and
    near 28 % at 86."""
    return int(counts.sum()) > _DENSE_PROJECTION_FILL * n_rows * counts.size


def _scipy_pays(counts: np.ndarray, by_fill: np.ndarray, n_rows: int,
                axes: int) -> bool:
    """Whether the projection pass takes scipy's product for its light
    blocks (those ``_dense_projection`` refuses): what scipy saves over
    BLAS on them, axes * sum (n_rows * width - nnz / _DENSE_PROJECTION_FILL)
    BLAS multiply-adds, reaches ``_SCIPY_IMPORT_MADDS``, the cost of
    importing ``scipy.sparse``. Otherwise every block takes BLAS and scipy
    is not imported. The rule reads only the matrix's shape and fill, never
    whether scipy is loaded, so the output bits depend on the data alone."""
    saving = 0.0
    for j0, j1 in column_blocks(n_rows, counts.size):
        c = counts[by_fill[j0:j1]]
        if not _dense_projection(c, n_rows):
            saving += n_rows * c.size - int(c.sum()) / _DENSE_PROJECTION_FILL
    return axes * saving >= _SCIPY_IMPORT_MADDS


def _pair_gram(rows: np.ndarray, values: np.ndarray, counts: np.ndarray,
               n_rows: int, scratch: _Scratch) -> np.ndarray:
    """Lower triangle of the Gram matrix of sparse columns, zeros above it,
    from the products of their entry pairs.

    ``rows`` and ``values`` hold the entries column by column, rows ascending
    within a column, and ``counts`` the entries per column. A column of c
    entries adds v_a v_b at (r_b, r_a) for each of its c (c + 1) / 2 pairs
    a <= b, all on or below the diagonal. Columns of equal count, adjacent in
    fill order, are taken together as (c, columns) arrays, so each pair's
    gather is one row copy. The pairs' flat indices and products go to views
    of ``_SLAB_ELEMS`` pairs of the ``keys`` and ``weights`` of ``scratch``
    (larger only for a column of more pairs), whatever the buffers' size,
    and each full view is summed into the triangle by one ``np.bincount``,
    in order: the bits depend on the columns alone.
    """
    lower = np.zeros(n_rows * n_rows)
    keys = scratch.take("keys", _SLAB_ELEMS, np.int64)
    weights, filled = scratch.take("weights", _SLAB_ELEMS), 0
    ends = np.cumsum(counts)
    runs = np.flatnonzero(np.diff(counts)) + 1
    for r0, r1 in zip(np.r_[0, runs], np.r_[runs, counts.size]):
        c = int(counts[r0])
        if not c:
            continue
        a, b = np.triu_indices(c)
        step = max(1, _SLAB_ELEMS // a.size)
        for k0 in range(r0, r1, step):
            k1 = min(k0 + step, r1)
            size = a.size * (k1 - k0)
            if filled + size > keys.size:
                lower += np.bincount(keys[:filled], weights[:filled],
                                     minlength=lower.size)
                filled = 0
                if size > keys.size:
                    keys = scratch.take("keys", size, np.int64)
                    weights = scratch.take("weights", size)
            e0, e1 = ends[k0] - c, ends[k1 - 1]
            r = rows[e0:e1].reshape(-1, c).T.astype(np.int64)
            v = np.ascontiguousarray(values[e0:e1].reshape(-1, c).T)
            key = keys[filled:filled + size].reshape(a.size, -1)
            np.multiply(r[b], n_rows, out=key)
            key += r[a]
            np.multiply(v[a], v[b], out=weights[filled:filled + size]
                        .reshape(a.size, -1))
            filled += size
    lower += np.bincount(keys[:filled], weights[:filled], minlength=lower.size)
    return lower.reshape(n_rows, n_rows)


def _slabs(m: CountMatrix, cols: slice | np.ndarray, scratch: _Scratch
           ) -> Iterator[tuple[int, slice | np.ndarray, np.ndarray]]:
    """Yield (s0, c, slab): the block of columns ``cols`` as BLAS operands
    of shape (n_rows, c's width), whose first column is the block's s0-th.
    A dense block is one slab, a view of its storage. A sparse block's
    entries are scattered into the thread's ``slab`` buffer of ``scratch``,
    zeroed, one slab of at most ``_SLAB_ELEMS`` cells at a time."""
    if not m.is_sparse:
        yield 0, cols, m.dense[:, cols]
        return
    step = max(1, _SLAB_ELEMS // m.n_rows)
    for s0 in range(0, cols.size, step):
        c = cols[s0:s0 + step]
        rows, values, counts = m._entries(c)
        slab = scratch.take("slab", (m.n_rows, c.size))
        slab.fill(0.0)
        slab[rows, np.repeat(np.arange(c.size), counts)] = values
        yield s0, c, slab


def decompose(fm: FrequencyModel, *,
              workers: int | None = None) -> FactorDecomposition:
    """Eigendecompose the dual-space operator and build the row projections
    of its non-trivial axes, on ``workers`` (default ``resolve_workers()``).

    Axes below ``_REL_EIG_TOL * max(eigenvalue)`` are dropped, as are axes
    below the absolute noise floor ``n_rows * eps``. The retained count
    never exceeds min(effective rows, effective cols) - 1.
    """
    m = fm.matrix
    workers = resolve_workers(workers)
    check_memory(f"the analysis of a {m.n_rows} x {m.n_cols} matrix",
                 footprint(m.n_rows, m.n_cols, m.nnz if m.is_sparse else None,
                           workers))
    scratch = _Scratch()
    if m.is_sparse:
        counts, by_fill = fm.fill_order

    def block_gram(j0: int, j1: int) -> np.ndarray:
        """Gram matrix of one block of columns of B (see ``FrequencyModel``),
        whose sum over the blocks is W = B B^T. A dense block
        is columns [j0, j1), a sparse block positions [j0, j1) of the fill
        order. Unless the block is sparse and ``_dense_gram`` refuses it,
        each of its slabs is scaled into the thread's ``slab`` buffer (a
        sparse slab already is that buffer) and the slab Grams are summed
        in slab order; otherwise ``_pair_gram`` sums the pair products of
        its entries, scaled in the slabs' order. Either way each entry of B
        has the same bits."""
        cols = by_fill[j0:j1] if m.is_sparse else slice(j0, j1)
        if m.is_sparse and not _dense_gram(counts[cols], m.n_rows):
            rows, values, n = m._entries(cols)
            return _pair_gram(rows, values * fm.row_scale[rows] * np.repeat(
                fm.col_scale[cols], n), n, m.n_rows, scratch)
        gram = None  # a one-slab block returns its slab's Gram
        for _, c, slab in _slabs(m, cols, scratch):
            buf = scratch.take("slab", slab.shape)
            np.multiply(slab, fm.row_scale[:, None], out=buf)
            np.multiply(buf, fm.col_scale[None, c], out=buf)
            part = buf @ buf.T
            gram = part if gram is None else np.add(gram, part, out=gram)
        return gram

    W = np.zeros((m.n_rows, m.n_rows))
    for part in ordered_block_map(block_gram, column_blocks(m.n_rows, m.n_cols),
                                  workers):
        W += part
        del part  # freed before the next block runs
    del block_gram, scratch  # and the pass's buffers before ``eigh``

    # Pair-count parts fill only W's lower triangle, the one ``eigh`` reads.
    u0 = np.sqrt(fm.row_masses)
    W -= np.outer(u0, u0)
    try:
        with one_blas_thread():  # bits independent of BLAS's thread count
            lams, U = np.linalg.eigh(W, UPLO="L")
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
    row_scale = np.sqrt(fm.grand_total) * fm.row_scale
    return FactorDecomposition(
        eigenvalues=lams, basis=U,
        row_projections=U * np.sqrt(lams)[None, :] * row_scale[:, None])


def _canonical_signs(U: np.ndarray) -> None:
    """Flip each eigenvector so its first significant coordinate, the first
    above 1e-8 times its largest magnitude, is positive. An all-zero column
    has none and stays as it is."""
    mag = np.abs(U)
    first = np.argmax(mag > 1e-8 * mag.max(axis=0), axis=0)
    U *= np.where(U[first, np.arange(U.shape[1])] < 0, -1.0, 1.0)


def map_projection_blocks(fm: FrequencyModel, fd: FactorDecomposition,
                          reduce: Callable,
                          workers: int | None = None) -> Iterator:
    """Yield ``reduce(cols, S)`` for every column block, in block order.

    ``cols`` indexes the block's columns: a slice for dense storage, an
    array of column indices in fill order for sparse storage (see the
    module docstring). S, of shape (n_nontrivial, block width), holds the
    block's standardized non-trivial projections S = U^T B[:, cols], of the
    B whose Gram matrix is W (see ``FrequencyModel``). By the transition
    formula, whose sqrt(lambda_a) in F and 1/sqrt(lambda_a) prefactor
    cancel, S = sqrt(f_j) G, so S^2 is exactly the contribution
    f_j G_a(j)^2; zero-mass columns hold zeros. The model's row scale is
    folded into the basis once per pass, Ub = U^T diag(1/sqrt(k_i)), so the
    block product H = Ub K[:, cols] reads K where it is stored, with no
    scaled copy, and one in-place column pass by the model's column scale
    gives S = H / sqrt(k_j). S keeps the range that H^2 / k_j would lose
    for columns of relative mass below about 1e-154.

    ``reduce`` runs inside the worker that computed S and may overwrite it,
    but must not keep it: a BLAS block's S, dense or sparse, is the worker's
    scratch buffer, reused by its next block. A block of scipy's product
    gives a fresh F-ordered S, the transpose of a sparse-times-dense
    product. Those layouts fix the summation order of reductions over S, so
    they are part of the output contract. The block grid is fixed by the
    matrix shape (see ``column_blocks``) and the fill order by the stored
    entries, so merging the results in the order they come keeps every
    reduction independent of ``workers``.
    """
    m = fm.matrix
    # Ub^T, C-ordered: scipy's sparse-times-dense product takes it as it
    # is, and its transpose is the BLAS operand Ub.
    UbT = fd.basis * fm.row_scale[:, None]
    scratch = _Scratch()
    sparse = None
    if m.is_sparse:
        counts, by_fill = fm.fill_order
        # built in the calling thread, and only when scipy's product pays
        if _scipy_pays(counts, by_fill, m.n_rows, UbT.shape[1]):
            sparse = m.sparse

    def block(j0: int, j1: int):
        cols = by_fill[j0:j1] if m.is_sparse else slice(j0, j1)
        if sparse is not None and not _dense_projection(counts[cols], m.n_rows):
            S = (sparse[:, cols].T @ UbT).T
        else:
            S = scratch.take("S", (UbT.shape[1], j1 - j0))
            for s0, _, slab in _slabs(m, cols, scratch):
                np.matmul(UbT.T, slab, out=S[:, s0:s0 + slab.shape[1]])
        np.multiply(S, fm.col_scale[None, cols], out=S)
        return reduce(cols, S)

    return ordered_block_map(block, column_blocks(fm.n_rows, fm.n_cols), workers)
