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
bit-exact for float64. Writers render a chunk of lines with one ``%`` each,
and loaders parse a whole file with one ``np.loadtxt`` call; only when that
parse fails is the file scanned line by line, so that the ``ParseError``
names the first bad line. A triplet header is checked before the body is
read, and nothing is allocated from its ``nnz``. A body that passes its
checks (in range, sorted by column then row, no duplicates) already is CSC
storage: its rows and values become the row indices and data, and only the
column pointers are computed.

scipy is imported only where a sparse matrix is built, so commands that
handle dense matrices only never load it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

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
# The variables that set OpenBLAS's thread count, in the order it reads them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS")
# The default worker count never exceeds this, whatever the CPU count: each
# worker holds one block of scratch and, in a pool thread, its own malloc
# arena, so peak memory grows with the worker count. An explicit count may
# go higher.
_MAX_DEFAULT_WORKERS = 2


class CountMatrix:
    """Validated nonnegative matrix with dense or column-grouped sparse storage.

    Construction enforces the invariants all downstream analysis relies on:
    finite nonnegative values, row and grand totals that are finite (do not
    overflow float64), a positive grand total, and (for sparse storage) a
    scipy CSC matrix with non-decreasing column pointers, in canonical
    format (row indices sorted within each column, no duplicate (row, col)
    pairs) and with every row index in [0, n_rows). Zero columns and zero
    rows are retained; the frequency model records their indices so
    profile-based computations can exclude them.
    """

    def __init__(self, dense: np.ndarray | None = None,
                 sparse: sp.csc_matrix | None = None):
        if (dense is None) == (sparse is None):
            raise ValidationError("exactly one of dense/sparse storage required")
        self._dense = dense
        self._sparse = sparse
        if dense is not None:
            self.n_rows, self.n_cols = dense.shape
        else:
            if getattr(sparse, "format", None) != "csc":
                raise ValidationError(_NOT_CANONICAL)
            self.n_rows, self.n_cols = sparse.shape
        self._row_sums: np.ndarray | None = None
        self._col_sums: np.ndarray | None = None
        self._validate()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dense(cls, values) -> "CountMatrix":
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError(f"dense matrix must be 2-D, got {arr.ndim}-D")
        return cls(dense=arr)

    @classmethod
    def from_triplets(cls, n_rows: int, n_cols: int, rows, cols, values) -> "CountMatrix":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (rows.shape == cols.shape == values.shape):
            raise ValidationError("triplet arrays must have identical length")
        if n_rows <= 0 or n_cols <= 0:
            raise ValidationError("matrix dimensions must be positive")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValidationError("triplet row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValidationError("triplet column index out of range")
        order = np.lexsort((rows, cols))
        rows, cols, values = rows[order], cols[order], values[order]
        if rows.size > 1:
            dup = (np.diff(cols) == 0) & (np.diff(rows) == 0)
            if dup.any():
                j = int(np.flatnonzero(dup)[0])
                raise ValidationError(
                    f"duplicate triplet for (row={rows[j]}, col={cols[j]})")
        return cls._from_sorted_triplets(n_rows, n_cols, rows, cols, values)

    @classmethod
    def _from_sorted_triplets(cls, n_rows: int, n_cols: int, rows: np.ndarray,
                              cols: np.ndarray, values: np.ndarray) -> "CountMatrix":
        """CSC storage of in-range triplets sorted by column then row, with
        no duplicates: the arrays are the CSC row indices and data as they
        are, and column j's entries start at the first index with col >= j."""
        import scipy.sparse as sp  # deferred: dense-only commands never load scipy
        indptr = np.searchsorted(cols, np.arange(n_cols + 1))
        return cls(sparse=sp.csc_matrix((values, rows, indptr),
                                        shape=(n_rows, n_cols)))

    def _validate(self) -> None:
        if self.n_rows <= 0 or self.n_cols <= 0:
            raise ValidationError("matrix dimensions must be positive")
        if self._sparse is not None:
            _check_csc(self._sparse)
        vals = self._dense if self._dense is not None else self._sparse.data
        # A NaN or infinite entry makes its row sum non-finite, so the values
        # are scanned for one only when a row sum is. Overflow is reported
        # below, not as a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            sums_finite = bool(np.isfinite(self.row_sums()).all())
            total = self.grand_total
        if not sums_finite and not np.isfinite(vals).all():
            raise ValidationError("matrix contains NaN or infinite values")
        if vals.size and vals.min() < 0:
            if self._dense is not None:
                i, j = np.unravel_index(int(np.argmin(self._dense)), self._dense.shape)
            else:
                nz = int(np.argmin(self._sparse.data))
                i = int(self._sparse.indices[nz])
                j = int(np.searchsorted(self._sparse.indptr, nz, side="right")) - 1
            raise ValidationError(f"negative value at (row={i}, col={j})")
        if not np.isfinite(total):
            raise ValidationError("matrix totals overflow float64")
        if total <= 0:
            raise ValidationError("matrix grand total must be positive")

    # -- basic accessors ----------------------------------------------------

    @property
    def is_sparse(self) -> bool:
        return self._sparse is not None

    @property
    def nnz(self) -> int:
        if self.is_sparse:
            return int(self._sparse.nnz)
        return int(np.count_nonzero(self._dense))

    @property
    def dense(self) -> np.ndarray:
        if self._dense is None:
            raise ValidationError("matrix uses sparse storage")
        return self._dense

    @property
    def sparse(self) -> sp.csc_matrix:
        if self._sparse is None:
            raise ValidationError("matrix uses dense storage")
        return self._sparse

    def row_sums(self) -> np.ndarray:
        if self._row_sums is None:
            if self.is_sparse:
                self._row_sums = np.asarray(self._sparse.sum(axis=1)).ravel()
            else:
                self._row_sums = self._dense.sum(axis=1)
        return self._row_sums

    @property
    def grand_total(self) -> float:
        return float(self.row_sums().sum())

    def to_dense(self) -> np.ndarray:
        if self.is_sparse:
            return self._sparse.toarray()
        return self._dense


_NOT_CANONICAL = "sparse storage must be a CSC matrix with sorted, unique row indices"


def _check_csc(csc: sp.csc_matrix) -> None:
    """Column pointers, then row order and range, of CSC storage.

    The pointers go first: scipy's canonical-format scan trusts them. The
    arrays are only read, never pruned or recast.
    """
    if (np.diff(csc.indptr) < 0).any():
        raise ValidationError("sparse column pointers must be non-decreasing")
    if not csc.has_canonical_format:
        raise ValidationError(_NOT_CANONICAL)
    rows = csc.indices
    if rows.size and (rows.min() < 0 or rows.max() >= csc.shape[0]):
        raise ValidationError(
            f"sparse row index out of range for {csc.shape[0]} rows")


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
    """Per-column totals; their sum equals the grand total.

    Both storage forms add each column's entries one at a time in row order:
    numpy sums a C-ordered array down its rows that way, and ``np.bincount``
    adds the CSC entries in stored order. So sparse and dense storage of a
    matrix with two or more columns give the same sums bit for bit. (Dense
    storage of a single column is contiguous, and numpy sums it pairwise.)
    """
    if m._col_sums is None:
        if m.is_sparse:
            csc = m.sparse
            m._col_sums = np.bincount(_csc_columns(csc), weights=csc.data,
                                      minlength=m.n_cols)
        else:
            m._col_sums = m.dense.sum(axis=0)
    return m._col_sums


def _csc_columns(csc: sp.csc_matrix) -> np.ndarray:
    """Column index of each stored entry of CSC storage."""
    return np.repeat(np.arange(csc.shape[1]), np.diff(csc.indptr))


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
    at least 1, or for None the default.

    The default is ``usable_cpus // blas_threads``, at least 1 and at most
    ``_MAX_DEFAULT_WORKERS``. ``usable_cpus`` is the CPU affinity mask's
    size, or ``os.cpu_count()`` where the OS has no affinity call; neither
    sees a cgroup CPU quota. ``blas_threads`` is the first positive integer
    among ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and
    ``OMP_NUM_THREADS``, else every usable CPU (BLAS's own default). So BLAS
    at its default keeps one worker, and BLAS pinned to one thread gives one
    worker per CPU up to the cap, without running more BLAS threads than
    there are CPUs.
    """
    if workers is None:
        affinity = getattr(os, "sched_getaffinity", None)  # absent off Linux
        cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
        blas_threads = cpus
        for name in _BLAS_THREAD_VARS:
            try:
                n = int(os.environ.get(name, ""))
            except ValueError:
                continue
            if n > 0:
                blas_threads = n
                break
        return max(1, min(_MAX_DEFAULT_WORKERS, cpus // blas_threads))
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    return workers


def ordered_block_map(fn: Callable, blocks: Iterable[tuple[int, int]],
                      workers: int | None = None) -> Iterator:
    """Apply ``fn(j0, j1)`` over blocks, yielding results in block order.

    ``workers`` defaults to ``resolve_workers()``. With w > 1 workers the
    blocks go in rounds of w: the first block of a round runs on the
    calling thread, the others on a pool of w - 1 threads (numpy releases
    the GIL in the heavy kernels), and the round's results are yielded once
    all are done. At most w blocks are in flight at a time. The calling
    thread takes a share because memory a pool thread frees stays in that
    thread's malloc arena, where the caller cannot reuse it. Results always
    come back in block order and the caller reduces them sequentially, which
    makes every reduction bit-identical for any worker count.
    """
    workers = resolve_workers(workers)
    blocks = list(blocks)
    if workers == 1 or len(blocks) <= 1:
        for j0, j1 in blocks:
            yield fn(j0, j1)
        return
    with ThreadPoolExecutor(max_workers=min(workers, len(blocks)) - 1) as pool:
        for r0 in range(0, len(blocks), workers):
            first, *rest = blocks[r0:r0 + workers]
            futures = [pool.submit(fn, *b) for b in rest]
            results = [fn(*first)] + [f.result() for f in futures]
            yield from results


# -- file I/O -----------------------------------------------------------------
# The per-line rules live in the *_error functions, which run only after the
# vectorised parse has failed, to name the first bad line.

_REAL = "%.17g"  # 17 significant digits: float64 round-trips bit-exactly
_CHUNK_VALUES = 65_536  # values formatted by one ``%``
_TRIPLET_DTYPE = np.dtype([("row", np.int64), ("col", np.int64),
                           ("value", np.float64)])


def load_matrix(path: str, fmt: str = DENSE_CSV) -> CountMatrix:
    """Read a matrix file in the declared format, validating as it goes."""
    if fmt == DENSE_CSV:
        return _load_dense_csv(path)
    if fmt == TRIPLET:
        return _load_triplet(path)
    raise ValidationError(f"unknown matrix format {fmt!r}")


def save_matrix(m: CountMatrix, path: str, fmt: str = DENSE_CSV) -> None:
    if fmt == DENSE_CSV:
        dense = m.to_dense()
        row = ",".join([_REAL] * m.n_cols) + "\n"
        step = max(1, _CHUNK_VALUES // m.n_cols)
        with open(path, "w", encoding="utf-8") as fh:
            for i0 in range(0, m.n_rows, step):
                block = dense[i0:i0 + step]
                fh.write(row * len(block) % tuple(block.ravel().tolist()))
        return
    if fmt == TRIPLET:
        if m.is_sparse:  # canonical CSC: already sorted by (col, row)
            csc = m.sparse
            rows, vals, cols = csc.indices, csc.data, _csc_columns(csc)
        else:
            cols, rows = np.nonzero(m.dense.T)  # column-major: sorted by (col, row)
            vals = m.dense[rows, cols]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"%{m.n_rows} {m.n_cols} {rows.size}\n")
            _write_lines(fh, f"%d %d {_REAL}\n", (rows, cols, vals))
        return
    raise ValidationError(f"unknown matrix format {fmt!r}")


def _write_lines(fh, line: str, columns: tuple[np.ndarray, ...]) -> None:
    """Write ``line % (c[i] for c in columns)`` for every index i.

    Each chunk of lines is rendered by a single ``%`` over its values,
    interleaved from ``.tolist()``, so no value is formatted on its own.
    """
    width = len(columns)
    n = len(columns[0])
    step = max(1, _CHUNK_VALUES // width)
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        args = [None] * ((i1 - i0) * width)
        for k, col in enumerate(columns):
            args[k::width] = col[i0:i1].tolist()
        fh.write(line * (i1 - i0) % tuple(args))


def _data_lines(fh) -> Iterator[str] | None:
    """The non-blank lines of ``fh``, or None when there are none (on input
    with no data np.loadtxt warns instead of raising)."""
    lines = (line for line in fh if not line.isspace())
    first = next(lines, None)
    return None if first is None else chain([first], lines)


def _load_dense_csv(path: str) -> CountMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        lines = _data_lines(fh)
        if lines is None:
            raise ParseError("empty matrix file")
        try:
            dense = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise _dense_csv_error(path, exc) from None
    return CountMatrix.from_dense(dense)


def _dense_csv_error(path: str, exc: ValueError) -> ParseError:
    """The first line that breaks the dense-csv rules."""
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            try:
                np.array(fields, dtype=np.float64)
            except ValueError as bad:
                return ParseError(f"bad numeric field ({bad})", line=lineno)
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                return ParseError(
                    f"expected {width} fields, found {len(fields)}", line=lineno)
    return ParseError(f"bad numeric field ({exc})")


def _load_triplet(path: str) -> CountMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        n_rows, n_cols, nnz = _triplet_header(fh.readline())
        lines = islice(fh, nnz)
        first = next(lines, "")
        if not first.strip():  # np.loadtxt would warn that there is no data
            raise _triplet_error(path, (n_rows, n_cols, nnz))
        try:
            body = np.loadtxt(chain([first], lines), dtype=_TRIPLET_DTYPE,
                              comments=None, ndmin=1)
        except ValueError as exc:
            raise _triplet_error(path, (n_rows, n_cols, nnz), exc) from None
    rows, cols = body["row"], body["col"]
    dc = np.diff(cols)
    if body.size < nnz or ((dc < 0) | ((dc == 0) & (np.diff(rows) <= 0))).any() \
            or rows.min() < 0 or rows.max() >= n_rows \
            or cols.min() < 0 or cols.max() >= n_cols:
        # A blank line, the end of the file, a (col, row) pair that does not
        # ascend strictly, or an index out of range.
        raise _triplet_error(path, (n_rows, n_cols, nnz))
    return CountMatrix._from_sorted_triplets(
        n_rows, n_cols, rows, cols, np.ascontiguousarray(body["value"]))


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
    if nnz < 0:
        raise ParseError(f"negative triplet count {nnz}", line=1)
    if nnz == 0:
        raise ParseError("empty matrix: no triplets")
    return n_rows, n_cols, nnz


def _triplet_error(path: str, header: tuple[int, int, int],
                   exc: ValueError | None = None) -> ParseError:
    """The first of the ``nnz`` body lines that breaks the triplet rules."""
    n_rows, n_cols, nnz = header
    prev = None
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        lineno = 1
        for lineno, line in enumerate(islice(fh, nnz), start=2):
            parts = line.split()
            if len(parts) != 3:
                return ParseError("expected '<row> <col> <value>'", line=lineno)
            try:
                row, col = int(parts[0]), int(parts[1])
                float(parts[2])
            except ValueError as bad:
                return ParseError(f"bad field ({bad})", line=lineno)
            if not (0 <= row < n_rows and 0 <= col < n_cols):
                return ParseError(f"triplet index out of range (row={row}, "
                                  f"col={col}) for a {n_rows} x {n_cols} "
                                  "matrix", line=lineno)
            if prev is not None:
                if (col, row) == prev:
                    return ParseError(f"duplicate triplet for (row={row}, "
                                      f"col={col})", line=lineno)
                if (col, row) < prev:
                    return ParseError("triplets must be sorted by column then row",
                                      line=lineno)
            prev = (col, row)
    if lineno - 1 < nnz:
        return ParseError(f"expected {nnz} triplets, file ended", line=lineno + 1)
    return ParseError(f"bad field ({exc})")


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
    file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = _data_lines(fh)
        if lines is None:
            raise ParseError(f"empty {kind} file")
        try:
            values = np.loadtxt(lines, comments=None, ndmin=2)
        except ValueError as exc:
            raise _values_error(path, kind, exc) from None
    if values.shape[1] != 1:  # several values on one line
        raise _values_error(path, kind)
    return values[:, 0]


def _values_error(path: str, kind: str,
                  exc: ValueError | None = None) -> ParseError:
    """The first line that is not a single real."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                float(line)
            except ValueError:
                return ParseError(f"bad {kind} value {line!r}", line=lineno)
    return ParseError(f"bad {kind} value ({exc})")


def save_signal(sig: SignalSeries, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_lines(fh, f"{_REAL}\n", (sig.values,))
