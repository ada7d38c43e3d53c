"""Storage, validation, and text I/O for nonnegative data matrices.

Matrices are immutable after construction and come in two storage forms:

* dense: a C-contiguous float64 array, row-major;
* sparse: column-compressed (CSC) triplets, the natural layout here because
  every analysis pass walks the matrix column by column.

Two interchange formats are supported:

* ``dense-csv``: comma-separated reals, one matrix row per line, no header;
* ``triplet``: a header line ``%<n_rows> <n_cols> <nnz>`` followed by nnz
  lines ``<row> <col> <value>`` with 0-based indices, sorted by column then
  row.

Values are written with 17 significant digits so a save/load round trip is
bit-exact for float64. Writers render a chunk of values at a time with array
operations (``_render``), byte for byte as ``"%.17g" % v`` renders each.
Loaders read UTF-8 text through ``_read_text``: one ``np.loadtxt`` call,
and on any ValueError the one line scanner, which reads the text again and
hands each line to the format's line rule, so that the ``ParseError``
names the first bad line, one with a byte that is not UTF-8 included. A
triplet header is checked, against physical memory too (a MemoryError,
counting the storage and the parsed body), before the body is read, and
nothing is allocated from its ``nnz``. Triplets sorted by column then row,
from the loader or ``CountMatrix.from_triplets``, become CSC arrays through
one function that checks them once, ``_sorted_triplets_csc``.

Sparse storage is three numpy arrays (``CountMatrix.csc``); only scipy's
sparse product in the projection pass takes the scipy view
(``CountMatrix.sparse``), which imports scipy. Everything else reads the
columns of either storage through one reader, ``CountMatrix._entries``:
the rows and values of some columns' entries, column by column, and each
column's entry count. Validation and ``to_dense`` read one column block at
a time, the triplet writer one chunk of columns and the analysis passes
one block or slab, so none holds an array of one item per stored entry.
A block pass that reuses buffers takes them from one ``_Scratch``: each
thread gets its own, reused by its next block.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
from dataclasses import dataclass
from itertools import chain, filterfalse, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ParseError, ValidationError

if TYPE_CHECKING:
    import scipy.sparse as sp

DENSE_CSV = "dense-csv"
TRIPLET = "triplet"
FORMATS = (DENSE_CSV, TRIPLET)

# Column blocks are sized so one dense block stays around 8 MB of float64;
# a matrix of at most this many cells is one block.
_BLOCK_ELEMS = 1_000_000
# A block pass with w workers starts block k only while k < (blocks
# consumed) + _LOOKAHEAD_PER_WORKER * w.
_LOOKAHEAD_PER_WORKER = 2
# The thread-count getters and setters of OpenBLAS builds ("{}": get, set).
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                        "scipy_openblas_{}_num_threads", "openblas_{}_num_threads")
# The default worker count never exceeds this, whatever the CPU count: each
# worker holds one block of scratch and, in a pool thread, its own malloc
# arena, so peak memory grows with the worker count. An explicit count may
# go higher.
_MAX_DEFAULT_WORKERS = 2
# An analysis's per-column float64 arrays: sums, masses, scales, abs, rel.
_ANALYSIS_COLUMNS = 5
try:  # physical memory in bytes; 0 where the OS gives no answer
    _PHYSICAL_MEMORY = max(0, os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
    _PHYSICAL_MEMORY = 0


class CSC(NamedTuple):
    """The arrays of CSC storage: column j's row indices and values are
    ``indices[indptr[j]:indptr[j + 1]]`` and ``data[...]``."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


class CountMatrix:
    """Validated nonnegative matrix with dense or column-grouped sparse storage.

    Construction enforces the invariants all downstream analysis relies on:
    finite nonnegative values, row and grand totals that are finite (do not
    overflow float64), a positive grand total, and (for sparse storage) CSC
    arrays with non-decreasing column pointers, in canonical format (row
    indices strictly increasing within each column, so no duplicate
    (row, col) pairs) and with every row index in [0, n_rows). Zero columns
    and zero rows are retained; the frequency model records their indices so
    profile-based computations can exclude them.

    Given values are copied only to make them float64, and dense ones a 2-D
    C-ordered array. Sparse storage is given as a scipy CSC matrix
    (``sparse=``), whose arrays are kept, or built by this module from its
    arrays (``_from_csc``, for the generators and ``_sorted_triplets_csc``).
    Columns of either storage are read through ``_entries``, for a column
    range or an array of columns, and sparse columns are ordered by entry
    count by ``_fill_order``; only scipy's sparse product takes the scipy
    view ``sparse``: the given matrix if its values were kept, or one built
    over the arrays, without a copy, on first use.

    Validation (``_validate``) is one pass over the column blocks for either
    storage; it checks a CSC block's arrays before it sums them, and keeps
    the row and column sums.
    """

    def __init__(self, dense=None, sparse: sp.csc_matrix | None = None):
        if (dense is None) == (sparse is None):
            raise ValidationError("exactly one of dense/sparse storage required")
        if dense is not None:
            dense = np.ascontiguousarray(dense, dtype=np.float64)
            if dense.ndim != 2:
                raise ValidationError(f"dense matrix must be 2-D, got {dense.ndim}-D")
            self._init(dense.shape, dense, None)
        else:
            if getattr(sparse, "format", None) != "csc":
                raise ValidationError(_NOT_CANONICAL)
            data = np.asarray(sparse.data, dtype=np.float64)
            self._sparse = sparse if data is sparse.data else None
            self._init(sparse.shape, None,
                       CSC(sparse.indptr, sparse.indices, data))

    def _init(self, shape: tuple[int, int], dense: np.ndarray | None,
              csc: CSC | None) -> None:
        self.n_rows, self.n_cols = shape
        self._dense = dense
        self._csc = csc
        self._validate()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dense(cls, values) -> "CountMatrix":
        return cls(dense=values)

    @classmethod
    def from_triplets(cls, n_rows: int, n_cols: int, rows, cols, values) -> "CountMatrix":
        """Sparse storage of the entries ``values`` at (``rows``, ``cols``),
        in any order; ValidationError for arrays of unequal length, a
        dimension below 1, an index out of range or a repeated entry."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (rows.shape == cols.shape == values.shape):
            raise ValidationError("triplet arrays must have identical length")
        if n_rows <= 0 or n_cols <= 0:
            raise ValidationError("matrix dimensions must be positive")
        order = np.lexsort((rows, cols))
        return cls._from_csc(n_rows, n_cols, _sorted_triplets_csc(
            n_rows, n_cols, rows[order], cols[order], values[order]))

    @classmethod
    def _from_csc(cls, n_rows: int, n_cols: int, csc: CSC) -> "CountMatrix":
        """Sparse storage of CSC arrays built by the caller, with index
        dtype ``_index_dtype``, so that the ``sparse`` view shares them."""
        m = cls.__new__(cls)
        m._sparse = None
        m._init((n_rows, n_cols), None, csc)
        return m

    def _validate(self, workers: int | None = None) -> None:
        """One pass over the column blocks on ``ordered_block_map``: a block
        writes its columns' sums and hands back its rows' entries, which the
        calling thread adds to the row sums in block order (``np.add.at``).
        So each row is summed in stored order, whatever ``workers`` (loaders
        take the default): dense row sums of one block get the bits of
        ``dense.sum(axis=1)``, sparse ones those of one ``np.bincount`` and
        of scipy's ``sum(axis=1)``. Overflow and a NaN or infinite entry
        are reported below, not as numpy warnings."""
        if self.n_rows <= 0 or self.n_cols <= 0:
            raise ValidationError("matrix dimensions must be positive")
        self._col_sums = np.empty(self.n_cols)
        block = functools.partial(_csc_block if self.is_sparse else _dense_block,
                                  self)
        self._row_sums, low = np.zeros(self.n_rows), np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            for rows, values, part_low in ordered_block_map(
                    block, column_blocks(self.n_rows, self.n_cols), workers):
                np.add.at(self._row_sums, rows, values)
                low = min(low, part_low)  # means something if all are finite
            total = self.grand_total
        vals = self._dense if self._dense is not None else self._csc.data
        # A NaN or infinite entry makes its row sum non-finite, so the values
        # are scanned for one only when a row sum is.
        if not np.isfinite(self._row_sums).all() and not np.isfinite(vals).all():
            raise ValidationError("matrix contains NaN or infinite values")
        if low < 0:
            if self._dense is not None:
                i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
            else:
                nz = int(np.argmin(vals))
                i = int(self._csc.indices[nz])
                j = int(np.searchsorted(self._csc.indptr, nz, side="right")) - 1
            raise ValidationError(f"negative value at (row={i}, col={j})")
        if not np.isfinite(total):
            raise ValidationError("matrix totals overflow float64")
        if total <= 0:
            raise ValidationError("matrix grand total must be positive")

    # -- basic accessors ----------------------------------------------------

    @property
    def is_sparse(self) -> bool:
        return self._csc is not None

    @property
    def nnz(self) -> int:
        if self.is_sparse:
            return int(self._csc.indptr[-1])
        return int(np.count_nonzero(self._dense))

    @property
    def dense(self) -> np.ndarray:
        if self._dense is None:
            raise ValidationError("matrix uses sparse storage")
        return self._dense

    @property
    def csc(self) -> CSC:
        """The arrays of sparse storage."""
        if self._csc is None:
            raise ValidationError("matrix uses dense storage")
        return self._csc

    @property
    def sparse(self) -> sp.csc_matrix:
        """Sparse storage as a scipy CSC matrix over the stored arrays.

        Built and cached on first use, which imports scipy; the analysis
        passes take it in the calling thread, before their pool starts.
        """
        indptr, indices, data = self.csc
        if self._sparse is None:
            import scipy.sparse as sp  # deferred: only the sparse kernels need scipy
            view = sp.csc_matrix((data, indices, indptr),
                                 shape=(self.n_rows, self.n_cols), copy=False)
            view.has_canonical_format = True  # checked by _csc_block
            self._sparse = view
        return self._sparse

    def row_sums(self) -> np.ndarray:
        return self._row_sums

    @property
    def grand_total(self) -> float:
        return float(self._row_sums.sum())

    def to_dense(self) -> np.ndarray:
        """Dense storage, or a copy of sparse storage filled block by block;
        MemoryError, before it is allocated, when the copy would not fit."""
        if not self.is_sparse:
            return self._dense
        check_memory(f"a dense copy of a {self.n_rows} x {self.n_cols} matrix",
                     footprint(self.n_rows, self.n_cols), MemoryError)
        out = np.zeros((self.n_rows, self.n_cols))
        for j0, j1 in column_blocks(self.n_rows, self.n_cols):
            rows, values, counts = self._entries(slice(j0, j1))
            out[rows, j0 + np.repeat(np.arange(j1 - j0), counts)] = values
        return out

    def _entries(self, cols: slice | np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows and values of the stored (sparse) or nonzero (dense) entries
        of columns ``cols``, a range ``slice(j0, j1)`` or an array of column
        indices, column by column with rows ascending, and each column's
        entry count. For a range of sparse storage the rows and values are
        views of the stored arrays, and the counts are the differences of
        its column pointers as they are, unchecked."""
        if not self.is_sparse:
            block = self._dense[:, cols]
            where, rows = np.nonzero(block.T)  # column-major
            return (rows, block[rows, where],
                    np.bincount(where, minlength=block.shape[1]))
        indptr, indices, data = self._csc
        if isinstance(cols, slice):
            p0, p1 = indptr[cols.start], indptr[cols.stop]
            return (indices[p0:p1], data[p0:p1],
                    np.diff(indptr[cols.start:cols.stop + 1]))
        counts = (indptr[cols + 1] - indptr[cols]).astype(np.int64)
        starts = np.cumsum(counts) - counts
        pos = np.arange(int(counts.sum())) + np.repeat(indptr[cols] - starts, counts)
        return indices[pos], data[pos], counts

    def _fill_order(self) -> tuple[np.ndarray, np.ndarray]:
        """(entries per column, columns by ascending entry count) of sparse
        storage; the stable sort keeps equal counts in column order."""
        counts = np.diff(self._csc.indptr).astype(np.int64)
        return counts, np.argsort(counts, kind="stable")


_NOT_CANONICAL = "sparse storage must be a CSC matrix with sorted, unique row indices"


def _index_dtype(n_rows: int, n_cols: int, nnz: int) -> type:
    """The index dtype of CSC arrays that scipy keeps without a copy:
    int32 while the shape and nnz fit it, else int64."""
    fits = max(n_rows, n_cols, nnz) <= np.iinfo(np.int32).max
    return np.int32 if fits else np.int64


def _sorted_triplets_csc(n_rows: int, n_cols: int, rows: np.ndarray,
                         cols: np.ndarray, values: np.ndarray) -> CSC:
    """CSC arrays of triplets sorted by column then row: the rows and values
    as they stand, and pointers summed from the per-column counts.
    ValidationError, before any of them is built, for an index out of
    range, then at the first (col, row) that does not strictly ascend."""
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise ValidationError("triplet row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
        raise ValidationError("triplet column index out of range")
    bad = cols[1:] == cols[:-1]
    bad &= rows[1:] <= rows[:-1]
    bad |= cols[1:] < cols[:-1]
    if bad.any():
        k = int(bad.argmax()) + 1
        if (rows[k], cols[k]) == (rows[k - 1], cols[k - 1]):
            raise ValidationError(
                f"duplicate triplet for (row={rows[k]}, col={cols[k]})")
        raise ValidationError("triplets must be sorted by column then row")
    del bad  # freed before the storage is built
    dtype = _index_dtype(n_rows, n_cols, rows.size)
    indptr = np.zeros(n_cols + 1, dtype=dtype)
    np.cumsum(np.bincount(cols, minlength=n_cols), out=indptr[1:])
    return CSC(indptr, rows.astype(dtype), np.ascontiguousarray(values))


@dataclass(frozen=True)
class SignalSeries:
    """Ordered sequence of signal samples with no missing values."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise ValidationError("signal must be a nonempty 1-D sequence")
        if not np.isfinite(vals).all():
            raise ValidationError("signal contains NaN or infinite values")
        object.__setattr__(self, "values", vals)

    @property
    def length(self) -> int:
        return int(self.values.size)


# -- operations --------------------------------------------------------------

def column_sums(m: CountMatrix) -> np.ndarray:
    """Per-column totals, kept by validation; they sum to the grand total.

    Both storage forms add each column's entries one at a time in row order:
    numpy sums a C-ordered array of two or more columns down its rows that
    way, and ``np.bincount`` adds the CSC entries in stored order. So sparse
    and dense storage of a matrix with two or more columns give the same
    sums bit for bit. (Dense storage of a single column is contiguous, and
    numpy sums it pairwise.)
    """
    return m._col_sums


def column_blocks(n_rows: int, n_cols: int) -> Iterator[tuple[int, int]]:
    """Fixed column-range grid used by every streaming pass.

    The grid depends only on the matrix shape, never on the worker count, so
    chunked reductions merge identically no matter how work is scheduled.
    """
    width = max(1, min(n_cols, _BLOCK_ELEMS // max(1, n_rows)))
    for j0 in range(0, n_cols, width):
        yield j0, min(j0 + width, n_cols)


def resolve_workers(workers: int | None = None) -> int:
    """The worker count of a block pass: ``workers`` itself, checked to be
    at least 1, or for None the default: the usable CPUs (the affinity
    mask's size, or ``os.cpu_count()`` off Linux; neither sees a cgroup CPU
    quota), at most ``_MAX_DEFAULT_WORKERS``. Passes run BLAS on one thread
    (``one_blas_thread``); where the pin finds no thread setter (MKL,
    Accelerate), BLAS keeps its threads and the default is 1.
    """
    if workers is None:
        affinity = getattr(os, "sched_getaffinity", None)  # absent off Linux
        cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
        return min(_MAX_DEFAULT_WORKERS, cpus) if _blas_threads() else 1
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    return workers


def footprint(n_rows: int, n_cols: int, nnz: int | None = None,
              workers: int = 0) -> int:
    """Bytes of a job's arrays: dense storage (``nnz`` None) or CSC storage
    of ``nnz`` entries, plus, for an analysis on ``workers`` workers (0:
    none), ``_ANALYSIS_COLUMNS`` per-column float64 arrays and the larger
    phase in float64: ``eigh``, 6 n_rows^2 (W and its workspace: 5.7 n^2
    measured at 1,000 rows), or the W pass: W, the Grams of the blocks in
    flight, and per thread a Gram being added and one block of scratch."""
    index = np.dtype(_index_dtype(n_rows, n_cols, nnz or 0)).itemsize
    size = 8 * n_rows * n_cols if nnz is None else \
        nnz * (8 + index) + (n_cols + 1) * index
    width = max(1, min(n_cols, _BLOCK_ELEMS // max(1, n_rows)))
    blocks = -(-n_cols // width)  # as ``column_blocks`` lays them
    threads = min(workers, blocks)
    in_flight = min(_LOOKAHEAD_PER_WORKER * workers, blocks)
    w_pass = (1 + in_flight + threads) * n_rows ** 2 + threads * n_rows * width
    return size + bool(workers) * 8 * (_ANALYSIS_COLUMNS * n_cols
                                       + max(6 * n_rows ** 2, w_pass))


def check_memory(job: str, size: int,
                 error: type[Exception] = ValidationError) -> None:
    """Refuse ``job`` with ``error`` when its ``size`` bytes (``footprint``)
    exceed the physical memory, which, like ``resolve_workers``, sees no
    cgroup limit."""
    if 0 < _PHYSICAL_MEMORY < size:
        raise error(f"{job} needs at least {size:,} bytes, more than "
                    f"the {_PHYSICAL_MEMORY:,} bytes of physical memory")


@functools.cache
def _blas_threads() -> tuple[Callable, Callable] | None:
    """The (get, set) thread-count pair of the BLAS numpy calls, or None
    where it exports none of ``_BLAS_THREAD_SYMBOLS``, looked up through
    numpy's linear-algebra extension: its handle also searches the libraries
    it links, wherever those are installed."""
    import ctypes
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for name in _BLAS_THREAD_SYMBOLS:
        get, set_ = (getattr(lib, name.format(op), None) for op in ("get", "set"))
        if get and set_:
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            return get, set_
    return None


_pin_lock = threading.Lock()
_pin = {"holders": 0, "saved": 1}


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run numpy's BLAS on one thread inside the context. Holders are
    counted under a lock: the first in saves the caller's thread count and
    sets 1, the last out restores it, so nested passes and passes run from
    several threads share one pin. The count is process-wide: a caller's
    BLAS call from another thread meanwhile runs on one thread too."""
    get, set_ = _blas_threads() or (lambda: 1, lambda n: None)
    with _pin_lock:
        if not _pin["holders"]:
            _pin["saved"] = get()
            set_(1)
        _pin["holders"] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin["holders"] -= 1
            if not _pin["holders"]:
                set_(_pin["saved"])


def _dense_block(m: CountMatrix, j0: int, j1: int
                 ) -> tuple[slice, np.ndarray, float]:
    """Columns j0:j1 of dense storage: their sums, each summed down its rows
    as ``dense.sum(axis=0)`` sums it, and minimum; and the block's sum of
    every row (``slice(None)``)."""
    block = m.dense[:, j0:j1]
    with np.errstate(over="ignore", invalid="ignore"):
        if j1 - j0 == 1 and m.n_cols > 1:
            # numpy would sum one strided column pairwise, not in row order
            # as it sums two or more.
            m._col_sums[j0] = np.cumsum(block[:, 0])[-1]
        else:
            np.sum(block, axis=0, out=m._col_sums[j0:j1])
        return slice(None), block.sum(axis=1), block.min()


def _csc_block(m: CountMatrix, j0: int, j1: int
               ) -> tuple[np.ndarray, np.ndarray, float]:
    """Columns j0:j1 of CSC storage, checked (non-decreasing pointers, rows
    strictly increasing in each column and in [0, n_rows)): their sums, one
    ``np.bincount``, and their entries' rows, values and minimum. No
    temporary exceeds the block."""
    rows, values, counts = m._entries(slice(j0, j1))
    if (counts < 0).any():
        raise ValidationError("sparse column pointers must be non-decreasing")
    cols = np.repeat(np.arange(j1 - j0), counts)
    if ((rows[1:] <= rows[:-1]) & (cols[1:] == cols[:-1])).any():
        raise ValidationError(_NOT_CANONICAL)
    if rows.size and (rows.min() < 0 or rows.max() >= m.n_rows):
        raise ValidationError(f"sparse row index out of range for {m.n_rows} rows")
    m._col_sums[j0:j1] = np.bincount(cols, weights=values, minlength=j1 - j0)
    return rows, values, values.min() if values.size else np.inf


class _Scratch(threading.local):
    """Per-thread named buffers of one block pass: ``take`` gives the calling
    thread a view of its buffer ``name``, grown when too small, which its
    next block reuses. The buffers go with their thread or the scratch."""

    def take(self, name: str, shape: int | tuple[int, ...],
             dtype: type = np.float64) -> np.ndarray:
        size = int(np.prod(shape))
        buf = vars(self).get(name)  # this thread's
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = vars(self)[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def ordered_block_map(fn: Callable, blocks: Iterable[tuple[int, int]],
                      workers: int | None = None) -> Iterator:
    """Apply ``fn(j0, j1)`` over blocks, yielding results in block order.

    ``workers`` defaults to ``resolve_workers()``. With w workers the
    calling thread and min(w, blocks) - 1 pool threads share them (numpy
    releases the GIL in the heavy kernels): each claims the next block in
    ascending order from one counter, but starts block k only while
    k < (blocks consumed) + L, with the lookahead L = 2w. A block is
    consumed once the caller has taken its result and asks for the next.
    So at most L blocks are in flight, and no thread waits for a round to
    finish: while the next result is not ready, the calling thread computes
    the next free block instead of waiting. The calling thread claims the
    first block and takes a share because memory a pool thread frees stays
    in that thread's malloc arena, where the caller cannot reuse it. An
    exception from ``fn`` is raised when its block's turn comes. Results
    always come back in block order and the caller reduces them
    sequentially, which makes every reduction bit-identical for any worker
    count. Closing the iterator early lets running blocks finish and starts
    no more. The pass holds ``one_blas_thread`` until it ends or is closed.
    """
    workers = resolve_workers(workers)
    blocks = list(blocks)
    n = len(blocks)
    if not n:
        return
    lookahead = _LOOKAHEAD_PER_WORKER * workers
    cond = threading.Condition()
    results: dict[int, tuple[bool, object]] = {}
    claimed = 1  # the caller's first block, 0
    consumed = 0
    closing = False

    def run(k: int) -> None:
        try:
            result = (True, fn(*blocks[k]))
        except BaseException as exc:  # raised in the caller, in block order
            result = (False, exc)
        with cond:
            results[k] = result
            cond.notify_all()

    def pool_worker() -> None:
        nonlocal claimed
        while True:
            with cond:
                while not closing and claimed < n \
                        and claimed >= consumed + lookahead:
                    cond.wait()
                if closing or claimed >= n:
                    return
                k = claimed
                claimed += 1
            run(k)

    threads = [threading.Thread(target=pool_worker, daemon=True)
               for _ in range(min(workers, n) - 1)]
    with one_blas_thread():
        for t in threads:
            t.start()
        try:
            run(0)
            for k in range(n):
                while True:
                    with cond:
                        if k in results:
                            ok, value = results.pop(k)
                            break
                        if claimed < n and claimed < consumed + lookahead:
                            own = claimed
                            claimed += 1
                        else:
                            cond.wait()
                            continue
                    run(own)
                if not ok:
                    raise value
                yield value
                del value  # the caller's to keep: not held while k + 1 runs
                with cond:
                    consumed = k + 1
                    cond.notify_all()
        finally:
            with cond:
                closing = True
                cond.notify_all()
            for t in threads:
                t.join()


# -- file I/O -----------------------------------------------------------------
# The per-line rules live in the *_rule functions, which run only after the
# vectorised read has failed, to name the first bad line (``_read_text``).

# Values rendered by one ``_render``: each working array of a chunk stays at
# most 768 KiB, in cache (65,536 values took half again as long).
_CHUNK_VALUES = 16_384
_VALUE_DTYPE = np.dtype([("value", np.float64)])
# The largest matrix dimension a triplet header may declare: numpy refuses
# 8-byte arrays of close to 2**60 items with a ValueError, not a
# MemoryError, and no machine holds 2**59 of them (4 EiB).
_MAX_DIMENSION = 1 << 59


def load_matrix(path: str, fmt: str = DENSE_CSV) -> CountMatrix:
    """Read a matrix file in the declared format, validating as it goes."""
    if fmt == DENSE_CSV:
        return CountMatrix.from_dense(
            _read_text(path, _read_table, _dense_csv_rule))
    if fmt == TRIPLET:
        return CountMatrix._from_csc(
            *_read_text(path, _read_triplet, _triplet_rule))
    raise ValidationError(f"unknown matrix format {fmt!r}")


def save_matrix(m: CountMatrix, path: str, fmt: str = DENSE_CSV) -> None:
    if fmt == DENSE_CSV:
        flat = m.to_dense().reshape(-1)  # before the file is opened: it may not fit
        with open(path, "wb") as fh:
            _write_values(fh, lambda k0, k1: (k0, (flat[k0:k1],)),
                          b"," * (m.n_cols - 1) + b"\n",
                          np.r_[0:flat.size:_CHUNK_VALUES, flat.size], _CHUNK_VALUES)
        return
    if fmt == TRIPLET:
        counts = np.diff(m.csc.indptr) if m.is_sparse else np.concatenate(
            [np.count_nonzero(m.dense[:, j0:j1], axis=0)
             for j0, j1 in column_blocks(m.n_rows, m.n_cols)])
        # Chunks of columns: at most `per` entries, or one column, each.
        ends, per = np.cumsum(counts), _CHUNK_VALUES // 3
        cuts = np.r_[0, np.searchsorted(ends, np.arange(per, ends[-1], per),
                                        side="right"), m.n_cols]
        cuts = cuts[np.diff(cuts, prepend=-1) > 0]  # np.unique imports numpy.ma

        def triplets(c0: int, c1: int) -> tuple[int, tuple[np.ndarray, ...]]:
            rows, values, n = m._entries(slice(c0, c1))
            return 0, (rows, c0 + np.repeat(np.arange(c1 - c0), n), values)
        with open(path, "wb") as fh:
            fh.write(b"%%%d %d %d\n" % (m.n_rows, m.n_cols, ends[-1]))
            _write_values(fh, triplets, b"  \n", cuts,
                          3 * (per + int(counts.max())))
        return
    raise ValidationError(f"unknown matrix format {fmt!r}")


def _write_values(fh, read: Callable, line: bytes, bounds: np.ndarray,
                  size: int) -> None:
    """Write chunk (a, b) for each two successive ``bounds`` in turn.
    ``read(a, b)`` gives its first value's index k0 and its columns, of
    whole entries and at most ``size`` values in all: entry i of each column
    in turn, for every i, the value k0 + k followed by
    ``line[(k0 + k) % len(line)]``. The chunks are rendered on
    ``ordered_block_map``, one ``_render`` each in its thread's buffers of
    one ``_Scratch``, and written in order: the bytes do not depend on the
    worker count."""
    seps = np.frombuffer(line * (size // len(line) + 2), dtype=np.uint8)
    scratch = _Scratch()

    def render(a: int, b: int) -> bytes:
        k0, columns = read(a, b)
        values = scratch.take("values", (columns[0].size, len(columns)))
        np.stack(columns, axis=1, out=values)
        k0 %= len(line)
        return _render(values.reshape(-1), seps[k0:k0 + values.size], scratch)

    for text in ordered_block_map(render, zip(bounds[:-1], bounds[1:])):
        fh.write(text)


# -- value rendering ------------------------------------------------------------
# _render gives every float64 the bytes of "%.17g" % v by array operations.
# A value with 1e-6 <= |v| < 1e17, or zero, takes the fast path. Its decimal
# exponent X = floor(log10|v|) is in [-6, 16], so D = |v| * 10**(16 - X)
# uses a power of ten that float64 holds exactly, and Dekker's TwoProduct
# gives that product exactly as p + e. Rounded half to even, D is the 17
# significant digits as an integer in [10**16, 10**17). D is cut into a
# leading digit and four groups of four, whose ASCII and trailing zeros come
# from tables. Each value gets a field of _FIELD bytes that holds every byte
# its text could need, at fixed places (_LAYOUT); a mask per (X, count of
# significant digits, sign) keeps the bytes "%.17g" prints, and one boolean
# compress of a chunk's fields gives the chunk's bytes in order. Every other
# value (|v| < 1e-6, subnormals included, and |v| >= 1e17) is formatted on
# its own with % and written over its field.

_X_MIN, _X_MAX = -6, 16
# Field layout: the sign before "0.000" (for -4 <= X < 0), the sign before
# the digits (for every other X), the 17 digits, a decimal point and the 17
# digits again (the fraction of "ddd.ddd" is read from the second copy, so
# no X moves a digit), the exponents "e-05" and "e-06" (the last two bytes
# are "5" and "6"), the separator last. 48 bytes, so fields are 8-aligned.
_LAYOUT = b"-0.000-" + b"d" * 17 + b"." + b"d" * 17 + b"e-056" + b"\n"
_SIGN_ZEROS, _ZEROS, _SIGN, _DIGITS = 0, 1, 6, 7
_FRACTION = _LAYOUT.index(b".", _DIGITS) + 1
_EXPONENT = _LAYOUT.index(b"e")
_FIELD = len(_LAYOUT)


def _veltkamp(a: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
    """a = hi + lo, each half of a's 53-bit significand, so the products of
    halves in Dekker's TwoProduct are exact."""
    c = np.multiply(a, 134217729.0, out=lo)  # 2**27 + 1
    np.subtract(c, np.subtract(c, a, out=hi), out=hi)
    np.subtract(a, hi, out=lo)


class _Tables(NamedTuple):
    """The lookup tables of ``_render``, read-only."""

    pow10: np.ndarray        # 10**k for k = 0 to 22 (exact), hi and lo halves
    group_ascii: np.ndarray  # per group of four digits: its ASCII, as uint32
    group_zeros: np.ndarray  # and its trailing zeros (4 for the group 0)
    masks: np.ndarray        # see _masks


@functools.cache
def _tables() -> _Tables:
    """Built on the first ``_render``, so that importing the module, and
    every command that writes no matrix, skips the work and the memory."""
    pow10 = np.empty((3, 23))
    pow10[0] = 10.0 ** np.arange(23)  # exact: 10**22 = 2**22 * 5**22, 5**22 < 2**53
    _veltkamp(*pow10)
    groups = np.arange(10_000, dtype=np.int16)[:, None]
    places = 10 ** np.arange(3, -1, -1, dtype=np.int16)  # thousands to units
    ascii_digits = (groups // places % 10 + ord("0")).astype(np.uint8)
    zeros = (groups % (10 * places) == 0).sum(axis=1)
    tables = _Tables(pow10,
                     ascii_digits.view(np.uint32).ravel(),
                     zeros.astype(np.int8), _masks())
    for table in tables:
        table.flags.writeable = False
    return tables


def _masks() -> np.ndarray:
    """The bytes of a field kept for each (X, s, negative), at row
    ((X - _X_MIN) * 18 + s) * 2 + negative, s significant digits (1 to 17)."""
    masks = np.zeros((_X_MAX - _X_MIN + 1, 18, 2, _FIELD), dtype=bool)
    masks[..., -1] = True  # the separator
    for t, x in enumerate(range(_X_MIN, _X_MAX + 1)):
        for s in range(1, 18):
            keep = masks[t, s]
            fraction = range(_FRACTION + max(x, 0) + 1, _FRACTION + s)
            if x >= 0:  # ddd.ddd, or ddd when no fraction is left
                keep[1, _SIGN] = True
                keep[:, _DIGITS:_DIGITS + x + 1] = True
                if s > x + 1:
                    keep[:, _FRACTION - 1] = True
                    keep[:, fraction] = True
            elif x >= -4:  # 0.000ddd
                keep[1, _SIGN_ZEROS] = True
                keep[:, _ZEROS:_ZEROS + 1 - x] = True
                keep[:, _DIGITS:_DIGITS + s] = True
            else:  # d.ddde-0X
                keep[1, _SIGN] = True
                keep[:, _DIGITS] = True
                if s > 1:
                    keep[:, _FRACTION - 1] = True
                    keep[:, fraction] = True
                keep[:, _EXPONENT:_EXPONENT + 3] = True
                keep[:, _EXPONENT + 3 + (x == -6)] = True
    return masks.reshape(-1, _FIELD)


def _scaled(a: np.ndarray, x: np.ndarray, tables: _Tables, scratch: _Scratch,
            d: np.ndarray, step: np.ndarray) -> None:
    """D = a * 10**(16 - x) rounded half to even, exactly, for x in
    [_X_MIN, _X_MAX], into ``d``, and into ``step`` the step (-1, 0 or +1)
    that takes x toward the exponent that puts the exact product in
    [10**16, 10**17); the other working arrays come from ``scratch``."""
    a_hi, a_lo, p, b_hi, b_lo, e = scratch.take("scaled", (6, a.size))
    k = np.subtract(16, x, out=scratch.take("power", a.size, np.int64))
    _veltkamp(a, a_hi, a_lo)
    for table, out in zip(tables.pow10, (p, b_hi, b_lo)):
        np.take(table, k, out=out, mode="clip")  # "raise" would buffer
    p *= a
    # e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    np.subtract(np.multiply(a_hi, b_hi, out=e), p, out=e)
    e += np.multiply(a_hi, b_lo, out=a_hi)
    e += np.multiply(a_lo, b_hi, out=b_hi)
    e += np.multiply(a_lo, b_lo, out=b_lo)
    # In range, p >= 10**16 > 2**53 is an even integer, so adding e rounded
    # half to even rounds p + e half to even.
    np.copyto(d, p, casting="unsafe")
    np.copyto(step, np.rint(e, out=b_hi), casting="unsafe")
    d += step
    np.copyto(step, (p > 1e17) | ((p == 1e17) & (e >= 0)))  # up
    step[(p < 1e16) | ((p == 1e16) & (e < 0))] = -1  # down


def _decimal(a: np.ndarray, tables: _Tables, scratch: _Scratch
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, X, missed) for magnitudes a in [1e-6, 1e17): X = floor(log10 a)
    and D = a * 10**(16 - X) rounded half to even, a rounding up to 10**17
    carried into X + 1, in ``scratch``. ``missed`` is True where X is not
    found in [_X_MIN, _X_MAX] (the float nearest 1e-6 is below 10**-6)."""
    x, d, step = scratch.take("decimal", (3, a.size), np.int64)
    log = scratch.take("log", a.size)
    np.copyto(x, np.floor(np.log10(a, out=log), out=log), casting="unsafe")
    np.clip(x, _X_MIN, _X_MAX, out=x)
    _scaled(a, x, tables, scratch, d, step)
    redo = np.flatnonzero(step)
    for _ in range(2):  # log10 is off by at most one next to a power of ten
        if not redo.size:
            break
        x[redo] += step[redo]
        redo = redo[(x[redo] >= _X_MIN) & (x[redo] <= _X_MAX)]
        d_redo, step_redo = scratch.take("redo", (2, redo.size), np.int64)
        _scaled(a[redo], x[redo], tables, scratch, d_redo, step_redo)
        d[redo], step[redo] = d_redo, step_redo
        redo = redo[step[redo] != 0]
    carry = d == 10**17
    d[carry] = 10**16
    x[carry] += 1
    missed = (step != 0) | (x < _X_MIN) | (x > _X_MAX)
    return d, x, missed


def _divmod(a: np.ndarray, b: int, q: np.ndarray, r: np.ndarray) -> None:
    """q, r = a // b, a % b for int64 a >= 0, four times as fast as np.divmod."""
    np.floor_divide(a, b, out=q)
    np.subtract(a, np.multiply(q, b, out=r), out=r)


def _render(values: np.ndarray, seps: np.ndarray, scratch: _Scratch) -> bytes:
    """Each float64 of ``values`` exactly as ``"%.17g" % v`` renders it,
    followed by its separator byte from ``seps`` (uint8, one per value);
    the working arrays come from ``scratch``."""
    n = values.size
    a = np.abs(values, out=scratch.take("abs", n))
    fast = (a >= 1e-6) & (a < 1e17)
    zero = a == 0.0
    a[~fast] = 1.0
    tables = _tables()
    d, x, missed = _decimal(a, tables, scratch)
    d[zero] = 0  # 17 zero digits, one significant, X = 0: "0"
    slow = ~(fast | zero) | missed
    x[zero | slow] = 0  # a slow value's mask: any, its field is overwritten
    groups = scratch.take("groups", (5, n), np.int64)
    lead, g1, g2, g3, g4 = groups
    # g4 and g3 hold D below 10**16 and its high eight digits until cut
    _divmod(d, 10**16, lead, g4)
    _divmod(g4, 10**8, g3, d)  # d: the low eight digits
    _divmod(g3, 10**4, g1, g2)
    _divmod(d, 10**4, g3, g4)
    # A zero group of D counts 4 plus the trailing zeros before it.
    zeros = tables.group_zeros[g1]
    for g in (g2, g3, g4):
        zeros = tables.group_zeros[g] + (g == 0) * zeros
    digits = np.take(tables.group_ascii, groups.T,
                     out=scratch.take("digits", (n, 5), np.uint32),
                     mode="clip").view(np.uint8)[:, 3:]
    fields = scratch.take("fields", (n, _FIELD), np.uint8)
    fields.view(np.uint64)[:] = np.frombuffer(_LAYOUT, dtype=np.uint64)
    fields[:, _DIGITS:_DIGITS + 17] = digits
    fields[:, _FRACTION:_FRACTION + 17] = digits
    fields[:, -1] = seps
    rows = np.multiply(np.subtract(x, _X_MIN, out=x), 18, out=x)
    rows += 17 - zeros
    rows *= 2
    rows += np.signbit(values)  # ((X - _X_MIN) * 18 + 17 - zeros) * 2 + sign
    keep = np.take(tables.masks, rows, axis=0,
                   out=scratch.take("keep", (n, _FIELD), bool), mode="clip")
    for i in np.flatnonzero(slow):
        text = b"%.17g" % values[i]
        fields[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        keep[i, :-1] = False
        keep[i, :len(text)] = True
    return fields.reshape(-1)[keep.reshape(-1)].tobytes()


def _read_text(path: str, read: Callable, rule: Callable):
    """``read(fh)`` of the UTF-8 text of ``path``; a byte that is not UTF-8
    reads as a lone surrogate, which no parse takes.

    On any ValueError ``exc``, the one loop that scans a file line by line
    reads the same text again and raises ParseError at the first bad line:
    one holding such a byte, or the first ``rule(exc, state, lineno, line)``
    raises at. The rule takes each line with the state it returned for the
    one before (None at first), then "" at the end of the file, and raises
    at the latest at the end of the lines its format reads, there with
    ``exc``: the read failed on something the rule takes, such as "1_0".
    """
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            return read(fh)
    except ValueError as exc:
        rule = functools.partial(rule, exc)
    lineno, state = 0, None
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as bad:  # a lone surrogate 0xdc00 + byte
                byte = ord(line[bad.start]) - 0xdc00
                raise ParseError(f"not UTF-8 (byte {byte:#04x} at character "
                                 f"{bad.start + 1})", line=lineno) from None
            state = rule(state, lineno, line)
    rule(state, lineno + 1, "")


def _first_not_blank(lines: Iterator[str]) -> Iterator[str]:
    """``lines``; ValueError when the first is blank or there is none (on
    input with no data np.loadtxt warns instead of raising)."""
    first = next(lines, "")
    if not first.strip():
        raise ValueError("no data")
    return chain([first], lines)


def _read_table(fh, delimiter: str | None = ",", dtype=np.float64) -> np.ndarray:
    """The non-blank lines of ``fh`` as one table of at least two
    dimensions."""
    lines = _first_not_blank(filterfalse(str.isspace, fh))
    return np.loadtxt(lines, dtype, comments=None, delimiter=delimiter, ndmin=2)


def _read_triplet(fh) -> tuple[int, int, CSC]:
    """The shape and CSC arrays (``_sorted_triplets_csc``) of the header and
    ``nnz`` body lines of ``fh``; lines after them are not read."""
    n_rows, n_cols, nnz = _triplet_header(fh.readline())
    # The loaders' MemoryError: the header is well formed, the matrix it
    # declares and its parsed body do not fit. A count above n_rows * n_cols
    # fails the parse, as does an index too wide for ``index``.
    stored = min(nnz, n_rows * n_cols)
    index = _index_dtype(n_rows, n_cols, stored)
    body_dtype = np.dtype([("row", index), ("col", index), ("value", np.float64)])
    check_memory(f"a {n_rows} x {n_cols} triplet matrix",
                 footprint(n_rows, n_cols, stored) + stored * body_dtype.itemsize,
                 MemoryError)
    # islice counts at most sys.maxsize lines, more than a file has
    body = np.loadtxt(_first_not_blank(islice(fh, min(nnz, sys.maxsize))),
                      dtype=body_dtype, comments=None, ndmin=1)
    if body.size < nnz:  # a blank line or the end of the file
        raise ValueError(f"expected {nnz} triplets, read {body.size}")
    return n_rows, n_cols, _sorted_triplets_csc(
        n_rows, n_cols, body["row"], body["col"], body["value"])


def _triplet_header(header: str) -> tuple[int, int, int]:
    """``%<n_rows> <n_cols> <nnz>``, checked before any body line is read."""
    header = header.strip()
    if not header.startswith("%"):
        raise ParseError("expected header '%<n_rows> <n_cols> <nnz>'", line=1)
    try:
        n_rows, n_cols, nnz = (int(tok) for tok in header[1:].split())
    except ValueError:
        raise ParseError("malformed header", line=1) from None
    if n_rows <= 0 or n_cols <= 0:
        raise ParseError("matrix dimensions must be positive", line=1)
    if max(n_rows, n_cols) > _MAX_DIMENSION:
        raise ParseError(f"matrix dimensions {n_rows} x {n_cols} exceed 2^59",
                         line=1)
    if nnz < 0:
        raise ParseError(f"negative triplet count {nnz}", line=1)
    if nnz == 0:
        raise ParseError("empty matrix: no triplets")
    return n_rows, n_cols, nnz


def load_signal(path: str) -> SignalSeries:
    return SignalSeries(_load_values(path, "signal"))


def load_marginals(path: str) -> np.ndarray:
    """The column sums of a marginals file, one whole number per line, as
    int64 (``EmpiricalMarginals`` checks their sign)."""
    sums = _load_values(path, "marginals")
    bad = ~(np.isfinite(sums) & (sums == np.floor(sums))
            & (np.abs(sums) < 2.0 ** 63))
    if bad.any():
        raise ValidationError(f"marginal {float(sums[bad][0])!r} is not a "
                              "whole number in the int64 range")
    return sums.astype(np.int64)


def _load_values(path: str, kind: str) -> np.ndarray:
    """The one real per non-blank line of a ``kind`` (signal or marginals)
    file; its one-field dtype fails the parse of a line of several."""
    table = _read_text(path, lambda fh: _read_table(fh, None, _VALUE_DTYPE),
                       functools.partial(_values_rule, kind))
    return table["value"].reshape(-1)


def _dense_csv_rule(exc: ValueError, width: int | None, lineno: int,
                    line: str) -> int | None:
    """Dense-csv: every non-blank line holds reals separated by commas, as
    many as the first (``width``); some line does."""
    if not line:
        raise ParseError("empty matrix file" if width is None
                         else f"bad numeric field ({exc})")
    line = line.strip()
    if not line:
        return width
    fields = line.split(",")
    try:
        np.array(fields, dtype=np.float64)
    except ValueError as bad:
        raise ParseError(f"bad numeric field ({bad})", line=lineno) from None
    if width is not None and len(fields) != width:
        raise ParseError(f"expected {width} fields, found {len(fields)}",
                         line=lineno)
    return len(fields)


def _triplet_rule(exc: ValueError, state: tuple | None, lineno: int,
                  line: str) -> tuple:
    """Triplet: the header (``_triplet_header``), then ``nnz`` lines
    ``<row> <col> <value>``, in range, sorted by column then row, with no
    duplicates; lines after them are not read. ``state`` is the header and
    the last (col, row)."""
    if lineno == 1:
        return _triplet_header(line), (-1, -1)
    (n_rows, n_cols, nnz), prev = state
    if not line:
        raise ParseError(f"expected {nnz} triplets, file ended", line=lineno)
    parts = line.split()
    if len(parts) != 3:
        raise ParseError("expected '<row> <col> <value>'", line=lineno)
    try:
        row, col = int(parts[0]), int(parts[1])
        float(parts[2])
    except ValueError as bad:
        raise ParseError(f"bad field ({bad})", line=lineno) from None
    if not (0 <= row < n_rows and 0 <= col < n_cols):
        raise ParseError(f"triplet index out of range (row={row}, col={col}) "
                         f"for a {n_rows} x {n_cols} matrix", line=lineno)
    if (col, row) == prev:
        raise ParseError(f"duplicate triplet for (row={row}, col={col})",
                         line=lineno)
    if (col, row) < prev:
        raise ParseError("triplets must be sorted by column then row",
                         line=lineno)
    if lineno > nnz:  # the last of the nnz body lines
        raise ParseError(f"bad field ({exc})")
    return state[0], (col, row)


def _values_rule(kind: str, exc: ValueError, seen: bool | None, lineno: int,
                 line: str) -> bool:
    """Signal or marginals: every non-blank line is one real; some line is
    (``seen``)."""
    if not line:
        raise ParseError(f"bad {kind} value ({exc})" if seen
                         else f"empty {kind} file")
    line = line.strip()
    if line:
        try:
            float(line)
        except ValueError:
            raise ParseError(f"bad {kind} value {line!r}", line=lineno) from None
    return seen or bool(line)


def save_signal(sig: SignalSeries, path: str) -> None:
    with open(path, "wb") as fh:
        _write_values(fh, lambda k0, k1: (k0, (sig.values[k0:k1],)), b"\n",
                      np.r_[0:sig.length:_CHUNK_VALUES, sig.length], _CHUNK_VALUES)
