import re
import threading
import time
import warnings

import numpy as np
import pytest

from wideca import (CountMatrix, ParseError, ValidationError, analyze,
                    build_frequency_model, column_sums, concentration_report,
                    decompose, gen_powerlaw_boolean, gen_uniform)
from wideca.store import DENSE_CSV, TRIPLET, load_matrix, save_matrix


def test_load_dense_csv(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n0,1\n2,0\n")
    m = load_matrix(str(p), DENSE_CSV)
    assert (m.n_rows, m.n_cols) == (3, 2)
    assert m.grand_total == 6.0
    assert not m.is_sparse


def test_load_triplet(tmp_path):
    p = tmp_path / "m.tpl"
    p.write_text("%3 2 4\n0 0 1\n2 0 2\n1 1 1.5\n2 1 3\n")
    m = load_matrix(str(p), TRIPLET)
    assert (m.n_rows, m.n_cols) == (3, 2)
    assert m.is_sparse
    np.testing.assert_allclose(m.to_dense(),
                               [[1, 0], [0, 1.5], [2, 3]])


def test_negative_value_names_cell(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n0,-1\n")
    with pytest.raises(ValidationError, match=r"row=1, col=1"):
        load_matrix(str(p), DENSE_CSV)


def test_parse_error_carries_line_number(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n1,x\n")
    with pytest.raises(ParseError, match="line 2") as info:
        load_matrix(str(p), DENSE_CSV)
    assert str(info.value) == ("line 2: bad numeric field "
                               "(could not convert string to float: 'x')")
    assert info.value.line == 2


def test_ragged_row_rejected(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n1\n")
    with pytest.raises(ParseError, match="line 2") as info:
        load_matrix(str(p), DENSE_CSV)
    assert str(info.value) == "line 2: expected 2 fields, found 1"
    assert info.value.line == 2


def test_empty_matrix_rejected(tmp_path):
    p = tmp_path / "empty.csv"
    for text in ("", "\n\n  \n"):
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy "no data" warning
            with pytest.raises(ParseError, match="^empty matrix file$") as info:
                load_matrix(str(p), DENSE_CSV)
        assert info.value.line is None
    with pytest.raises(ValidationError):
        CountMatrix.from_dense(np.zeros((2, 2)))


def test_nan_rejected():
    with pytest.raises(ValidationError, match="NaN"):
        CountMatrix.from_dense([[1.0, np.nan]])


def _build(kind, dense):
    dense = np.asarray(dense, dtype=np.float64)
    if kind == "dense":
        return CountMatrix.from_dense(dense)
    rows, cols = np.nonzero(dense)
    return CountMatrix.from_triplets(*dense.shape, rows, cols, dense[rows, cols])


@pytest.mark.parametrize("kind", ["dense", "sparse"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinite_value_rejected(kind, bad):
    with pytest.raises(ValidationError, match="NaN or infinite"):
        _build(kind, [[1.0, 2.0], [bad, 1.0]])


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_negative_value_names_cell_with_overflowing_row(kind):
    with pytest.raises(ValidationError, match=r"negative value at \(row=0, col=2\)"):
        _build(kind, [[1e308, 1e308, -1.0], [1.0, 1.0, 1.0]])


@pytest.mark.parametrize("kind", ["dense", "sparse"])
@pytest.mark.parametrize("cells", [
    np.full((3, 4), 1e308),              # every row sum overflows
    [[1.5e308, 0.0], [0.0, 1.5e308]],    # rows finite, grand total overflows
])
def test_overflowing_totals_rejected(kind, cells):
    with pytest.raises(ValidationError, match="matrix totals overflow float64"):
        _build(kind, cells)


UNSORTED = "triplets must be sorted by column then row"


def test_triplet_unsorted_rejected(tmp_path):
    p = tmp_path / "m.tpl"
    p.write_text("%2 2 2\n0 1 1\n0 0 1\n")
    with pytest.raises(ParseError, match="sorted") as info:
        load_matrix(str(p), TRIPLET)
    assert str(info.value) == f"line 3: {UNSORTED}"
    assert info.value.line == 3


def test_triplet_duplicate_rejected(tmp_path):
    p = tmp_path / "m.tpl"
    p.write_text("%2 2 2\n0 0 1\n0 0 2\n")
    with pytest.raises(ParseError, match="duplicate") as info:
        load_matrix(str(p), TRIPLET)
    assert str(info.value) == "line 3: duplicate triplet for (row=0, col=0)"
    assert info.value.line == 3


# Malformed triplet files beyond the cases above: (body after the header
# "%3 2 <nnz>", nnz, message pattern, line). Every error names the first bad
# line.
TRIPLET_CASES = {
    "short-file": ("0 0 1\n1 0 1\n", 3, "expected 3 triplets, file ended", 4),
    "no-body": ("", 2, "expected 2 triplets, file ended", 2),
    "blank-line": ("0 0 1\n\n1 0 1\n", 3, "expected '<row> <col> <value>'", 3),
    "blank-first-line": ("\n0 0 1\n", 1, "expected '<row> <col> <value>'", 2),
    "whitespace-line": ("0 0 1\n  \t\n1 0 1\n", 3,
                        "expected '<row> <col> <value>'", 3),
    "blank-then-ended": ("0 0 1\n\n", 5, "expected '<row> <col> <value>'", 3),
    "two-fields": ("0 0 1\n1 0\n", 2, "expected '<row> <col> <value>'", 3),
    "four-fields": ("0 0 1\n1 0 1 5\n", 2, "expected '<row> <col> <value>'", 3),
    "fractional-index": ("0 0 1\n1.5 0 1\n", 2, r"bad field \(invalid literal", 3),
    "bad-value": ("0 0 1\n1 0 x\n", 2, r"bad field \(could not convert", 3),
    "unsorted-rows": ("2 0 1\n1 0 1\n", 2, UNSORTED, 3),
    "unsorted-before-bad-value": ("0 1 1\n0 0 1\n1 0 x\n", 3, UNSORTED, 3),
    "bad-value-before-end": ("0 0 1\n1 x 1\n", 5, "bad field", 3),
    "index-beyond-int32": ("0 0 1\n3000000000 0 1\n", 2,
                           r"triplet index out of range \(row=3000000000, "
                           r"col=0\) for a 3 x 2 matrix$", 3),
}


@pytest.mark.parametrize("case", sorted(TRIPLET_CASES))
def test_triplet_malformed_names_first_bad_line(tmp_path, case):
    body, nnz, message, line = TRIPLET_CASES[case]
    p = tmp_path / "m.tpl"
    p.write_text(f"%3 2 {nnz}\n" + body)
    with pytest.raises(ParseError, match=f"^line {line}: {message}") as info:
        load_matrix(str(p), TRIPLET)
    assert info.value.line == line


@pytest.mark.parametrize("text, message", [
    ("3 2 1\n0 0 1\n", "expected header"),
    ("%3 2\n0 0 1\n", "malformed header"),
    ("%3 2 1.0\n0 0 1\n", "malformed header"),
    ("%a 2 1\n0 0 1\n", "malformed header"),
])
def test_triplet_bad_header_line_one(tmp_path, text, message):
    p = tmp_path / "m.tpl"
    p.write_text(text)
    with pytest.raises(ParseError, match=f"^line 1: {message}") as info:
        load_matrix(str(p), TRIPLET)
    assert info.value.line == 1


def test_triplet_zero_nnz_rejected(tmp_path):
    p = tmp_path / "m.tpl"
    p.write_text("%3 2 0\n0 0 1\n")
    with pytest.raises(ParseError, match="^empty matrix: no triplets$") as info:
        load_matrix(str(p), TRIPLET)
    assert info.value.line is None


def test_triplet_lines_after_nnz_ignored(tmp_path):
    p = tmp_path / "m.tpl"
    p.write_text("%3 2 2\n0 0 1\n2 1 4\n1 0 x\n\n0 0 1 2 3\n")
    m = load_matrix(str(p), TRIPLET)
    assert m.is_sparse and m.nnz == 2
    np.testing.assert_array_equal(m.to_dense(), [[1, 0], [0, 0], [0, 4]])


# Malformed dense-csv files beyond the cases above: (text, message pattern,
# line).
DENSE_CSV_CASES = {
    "empty-field": ("1,,2\n", "bad numeric field", 1),
    "trailing-comma": ("1,2\n3,4,\n", "bad numeric field", 2),
    "ragged-long": ("1,2\n3,4\n5,6,7\n", "expected 2 fields, found 3", 3),
    "bad-after-blanks": ("\n\n1,2\n  \n3,y\n", "bad numeric field", 5),
    "space-separated": ("1 2\n", "bad numeric field", 1),
}


@pytest.mark.parametrize("case", sorted(DENSE_CSV_CASES))
def test_dense_csv_malformed_names_first_bad_line(tmp_path, case):
    text, message, line = DENSE_CSV_CASES[case]
    p = tmp_path / "m.csv"
    p.write_text(text)
    with pytest.raises(ParseError, match=f"^line {line}: {message}") as info:
        load_matrix(str(p), DENSE_CSV)
    assert info.value.line == line


@pytest.mark.parametrize("text, expected", [
    ("\n1,2\n\n  \n3,4\n\n", [[1, 2], [3, 4]]),   # blank lines skipped
    ("1,2,3\n", [[1, 2, 3]]),                        # 1 x n
    ("1\n2\n3\n", [[1], [2], [3]]),                   # n x 1
    ("1,2\r\n3,4", [[1, 2], [3, 4]]),                # CRLF, no final newline
    (" 1 , 2 \n0,1\n", [[1, 2], [0, 1]]),            # spaces around fields
])
def test_dense_csv_shapes_and_blank_lines(tmp_path, text, expected):
    p = tmp_path / "m.csv"
    p.write_bytes(text.encode())
    m = load_matrix(str(p), DENSE_CSV)
    assert m.dense.shape == np.shape(expected)
    np.testing.assert_array_equal(m.dense, expected)


@pytest.mark.parametrize("fmt, text, message", [
    (DENSE_CSV, "1,2\n1_0,3\n", "bad numeric field"),
    (TRIPLET, "%3 2 2\n0 0 1\n1 0 1_0\n", "bad field"),
    ("signal", "1\n1_0\n", "bad signal value"),
], ids=["dense-csv", "triplet", "signal"])
def test_digit_separators_rejected_without_line(tmp_path, fmt, text, message):
    # Python's float() takes "1_0"; the vectorised parser does not, so the
    # error cannot name a line the per-line rules would reject.
    from wideca import load_signal
    p = tmp_path / "m.dat"
    p.write_text(text)
    with pytest.raises(ParseError, match=f"^{message} .*'1_0'") as info:
        load_signal(str(p)) if fmt == "signal" else load_matrix(str(p), fmt)
    assert info.value.line is None


def test_signal_blank_lines_skipped_and_bad_value_line(tmp_path):
    from wideca import load_signal
    p = tmp_path / "s.txt"
    p.write_text("\n1.5\n  \n2\n\n")
    np.testing.assert_array_equal(load_signal(str(p)).values, [1.5, 2.0])
    p.write_text("1\n\n2\n2 3\n4\n")
    with pytest.raises(ParseError, match="^line 4: bad signal value '2 3'$") as info:
        load_signal(str(p))
    assert info.value.line == 4
    p.write_text("1\nx\n")
    with pytest.raises(ParseError, match="^line 2: bad signal value 'x'$"):
        load_signal(str(p))
    p.write_text("\n \n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="^empty signal file$"):
            load_signal(str(p))


def test_marginals_whole_numbers_as_int64(tmp_path):
    from wideca.store import load_marginals
    p = tmp_path / "sums.txt"
    p.write_text("3\n\n1.0\n1e2\n-1\n")
    sums = load_marginals(str(p))
    assert sums.dtype == np.int64
    np.testing.assert_array_equal(sums, [3, 1, 100, -1])
    for text, bad in (("2\n1.5\n", "1.5"), ("nan\n", "nan"),
                      ("-inf\n", "-inf"), ("9.3e18\n", "9.3e+18")):
        p.write_text(text)
        with pytest.raises(ValidationError, match=re.escape(
                f"marginal {bad} is not a whole number in the int64 range")):
            load_marginals(str(p))


@pytest.mark.parametrize("header, line, message", [
    ("%3 2 -1", 1, "negative triplet count -1"),
    ("%0 2 1", 1, "matrix dimensions must be positive"),
    ("%3 -2 1", 1, "matrix dimensions must be positive"),
    ("%3 2 100000000000", 4, "expected 100000000000 triplets, file ended"),
], ids=["negative-nnz", "zero-rows", "negative-cols", "huge-nnz"])
def test_triplet_header_checked_before_reading(tmp_path, header, line, message):
    p = tmp_path / "m.tpl"
    p.write_text(header + "\n0 0 1\n1 0 1\n")
    with pytest.raises(ParseError, match=f"^line {line}: {message}$") as info:
        load_matrix(str(p), TRIPLET)
    assert info.value.line == line


@pytest.mark.parametrize("body, line", [
    ("0 0 1\n5 1 1\n", 3), ("0 0 1\n1 2 1\n", 3), ("-1 0 1\n0 1 1\n", 2),
], ids=["row", "col", "negative-row"])
def test_triplet_index_out_of_range_names_line(tmp_path, body, line):
    p = tmp_path / "m.tpl"
    p.write_text("%3 2 2\n" + body)
    with pytest.raises(ParseError, match=f"^line {line}: triplet index out of "
                                         r"range \(row=-?\d, col=\d\) for a "
                                         "3 x 2 matrix$") as info:
        load_matrix(str(p), TRIPLET)
    assert info.value.line == line


def test_triplet_out_of_range_rejected():
    with pytest.raises(ValidationError, match="out of range"):
        CountMatrix.from_triplets(2, 2, [0, 2], [0, 1], [1.0, 1.0])


@pytest.mark.parametrize("rows, cols, message", [
    ([1, 0, 1], [1, 0, 1], "duplicate triplet for (row=1, col=1)"),
    ([1, 5, 1], [1, 0, 1], "triplet row index out of range"),
    ([1, 0, 1], [1, 5, 1], "triplet column index out of range"),
], ids=["duplicate", "duplicate-and-row", "duplicate-and-col"])
def test_from_triplets_messages(rows, cols, message):
    # The range is checked before the order, whatever the entries' order.
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        CountMatrix.from_triplets(2, 2, rows, cols, [1.0, 2.0, 3.0])


def test_triplet_routes_build_the_same_storage(tmp_path, rng):
    """from_triplets of a power-law file's entries, shuffled, and the
    loader of that file build the generator's CSC arrays and dtypes."""
    m = gen_powerlaw_boolean(425, 2_000, seed=1)
    p = tmp_path / "p.tpl"
    save_matrix(m, str(p), TRIPLET)
    rows, cols, values = np.loadtxt(p, skiprows=1, unpack=True)
    order = rng.permutation(rows.size)
    built = CountMatrix.from_triplets(m.n_rows, m.n_cols, rows[order].astype(int),
                                      cols[order].astype(int), values[order])
    for other in (load_matrix(str(p), TRIPLET), built):
        for mine, theirs in zip(m.csc, other.csc):
            assert mine.dtype == theirs.dtype
            np.testing.assert_array_equal(mine, theirs)


def test_triplet_load_peak_per_entry(tmp_path):
    """The loader holds the parsed body (16 bytes an entry at int32
    indices) and the storage it builds (12), and little else."""
    import tracemalloc
    p = tmp_path / "p.tpl"
    save_matrix(gen_powerlaw_boolean(425, 18_000, seed=1), str(p), TRIPLET)
    tracemalloc.start()
    try:
        m = load_matrix(str(p), TRIPLET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.nnz >= 500_000
    assert peak < 32 * m.nnz, peak / m.nnz


NOT_CANONICAL = "^sparse storage must be a CSC matrix with sorted, unique row indices$"


@pytest.mark.parametrize("indices", [[0, 0], [1, 0]], ids=["duplicate", "unsorted"])
def test_non_canonical_csc_rejected(indices):
    # 2 x 3, both stored entries in column 0
    import scipy.sparse as sp
    csc = sp.csc_matrix((np.array([1.0, 2.0]), np.array(indices),
                         np.array([0, 2, 2, 2])), shape=(2, 3))
    with pytest.raises(ValidationError, match=NOT_CANONICAL):
        CountMatrix(sparse=csc)


def _csc(indices, indptr, n_rows=3):
    import scipy.sparse as sp
    return sp.csc_matrix((np.ones(len(indices)), np.array(indices),
                          np.array(indptr)), shape=(n_rows, len(indptr) - 1))


@pytest.mark.parametrize("indices, indptr", [
    ([0, 1, 5], [0, 1, 3]),    # row 5 of 3: row sums would drop it
    ([0, 1, 3], [0, 1, 3]),
    ([-1, 0, 1], [0, 1, 3]),
])
def test_csc_row_index_out_of_range_rejected(indices, indptr):
    with pytest.raises(ValidationError,
                       match="^sparse row index out of range for 3 rows$"):
        CountMatrix(sparse=_csc(indices, indptr))


def test_csc_decreasing_column_pointers_rejected():
    with pytest.raises(ValidationError,
                       match="^sparse column pointers must be non-decreasing$"):
        CountMatrix(sparse=_csc([0, 1, 2], [0, 2, 1, 3]))


def _nu_and_abs_mean(m):
    fm = build_frequency_model(m)
    rep = concentration_report(fm, decompose(fm))
    return rep.nu, rep.abs_mean


@pytest.mark.parametrize("storage", ["dense", "sparse"])
def test_float32_values_are_stored_as_float64(storage):
    # float32 row sums would make the trivial axis inexact, and its deflation
    # would leave a spurious axis: nu = 2, abs_mean = 0.5000000254 on ones.
    import scipy.sparse as sp
    ones = np.ones((3, 4), dtype=np.float32)
    if storage == "dense":
        m = CountMatrix(dense=ones)
        assert m.dense.dtype == np.float64 and m.dense.flags.c_contiguous
    else:
        m = CountMatrix(sparse=sp.csc_matrix(ones))
        assert m.csc.data.dtype == np.float64
        assert np.shares_memory(m.sparse.data, m.csc.data)
    assert m.row_sums().dtype == np.float64
    assert _nu_and_abs_mean(m) == (1, 0.25)


def test_float64_values_are_kept_without_copy(rng):
    import scipy.sparse as sp
    raw = rng.random((3, 4))
    assert CountMatrix(dense=raw).dense is raw
    assert CountMatrix.from_dense(raw).dense is raw
    csc = sp.csc_matrix(raw)
    m = CountMatrix(sparse=csc)
    assert m.csc.data is csc.data and m.sparse is csc


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
def test_dense_storage_must_be_2d(shape):
    message = f"^dense matrix must be 2-D, got {len(shape)}-D$"
    for make in (lambda v: CountMatrix(dense=v), CountMatrix.from_dense):
        with pytest.raises(ValidationError, match=message):
            make(np.ones(shape))


def test_csc_checks_leave_arrays_alone():
    csc = _csc([0, 2, 1], [0, 2, 3])
    data, indices = csc.data, csc.indices
    m = CountMatrix(sparse=csc)
    assert m.sparse.data is data and m.sparse.indices is indices
    np.testing.assert_array_equal(column_sums(m), [2.0, 1.0])


def test_sparse_view_shares_arrays_and_row_sum_bits(rng):
    from wideca import gen_powerlaw_boolean
    matrices = [gen_powerlaw_boolean(425, 3_000, seed=5)]
    for _ in range(5):
        K = np.where(rng.random((300, 5_000)) < 0.05,
                     rng.random((300, 5_000)) * 10.0 ** rng.uniform(-3, 3), 0.0)
        matrices.append(CountMatrix.from_triplets(300, 5_000, *np.nonzero(K),
                                                  K[np.nonzero(K)]))
    for m in matrices:
        view = m.sparse
        assert view is m.sparse
        for ours, theirs in zip(m.csc, (view.indptr, view.indices, view.data)):
            assert np.shares_memory(ours, theirs)
        assert m.row_sums().tobytes() == \
            np.asarray(view.sum(axis=1)).ravel().tobytes()
        assert m.nnz == view.nnz
        assert np.array_equal(m.to_dense(), view.toarray())


def test_negative_sparse_value_named_past_empty_columns():
    import scipy.sparse as sp
    dense = np.array([[1.0, 0, 0, 2, 0], [1, 0, -1, 0, 1]])
    with pytest.raises(ValidationError, match=r"^negative value at \(row=1, col=2\)$"):
        CountMatrix(sparse=sp.csc_matrix(dense))


def test_csr_storage_rejected():
    import scipy.sparse as sp
    with pytest.raises(ValidationError, match=NOT_CANONICAL):
        CountMatrix(sparse=sp.csr_matrix(np.eye(2)))


def test_canonical_csc_sources_accepted(tmp_path):
    from wideca import gen_powerlaw_boolean
    unsorted = CountMatrix.from_triplets(3, 2, [2, 0, 1], [1, 1, 0],
                                         [1.0, 2.0, 3.0])
    for m in (unsorted, gen_powerlaw_boolean(40, 300, seed=3)):
        again = CountMatrix(sparse=m.sparse)
        p = tmp_path / "m.tpl"
        save_matrix(again, str(p), TRIPLET)
        assert (load_matrix(str(p), TRIPLET).to_dense() == m.to_dense()).all()


@pytest.mark.parametrize("fmt", [DENSE_CSV, TRIPLET])
def test_roundtrip_bit_exact(tmp_path, fmt, rng):
    dense = rng.random((5, 7))
    dense[dense < 0.2] = 0.0
    dense[0, 0] = 1.0  # keep grand total positive and row 0 nonzero
    m = CountMatrix.from_dense(dense)
    p = tmp_path / "m.dat"
    save_matrix(m, str(p), fmt)
    back = load_matrix(str(p), fmt)
    assert (back.to_dense() == dense).all()


def test_roundtrip_sparse_to_dense_csv(tmp_path):
    m = CountMatrix.from_triplets(3, 4, [0, 1, 2], [0, 2, 3], [1.0, 2.5, 3.0])
    p = tmp_path / "m.csv"
    save_matrix(m, str(p), DENSE_CSV)
    back = load_matrix(str(p), DENSE_CSV)
    assert (back.to_dense() == m.to_dense()).all()


def test_column_sums_dense_hand():
    m = CountMatrix.from_dense([[1, 2], [0, 1], [2, 0]])
    np.testing.assert_array_equal(column_sums(m), [3.0, 3.0])


def test_column_sums_zero_column():
    m = CountMatrix.from_dense([[1, 0, 2], [1, 0, 1]])
    sums = column_sums(m)
    assert sums[1] == 0.0
    np.testing.assert_array_equal(np.flatnonzero(sums == 0), [1])
    np.testing.assert_array_equal(build_frequency_model(m).excluded_cols, [1])


def test_column_sums_sparse_dense_agree(rng):
    dense = np.where(rng.random((6, 40)) < 0.4, rng.random((6, 40)), 0.0)
    dense[0, 0] = 1.0
    md = CountMatrix.from_dense(dense)
    coo = np.nonzero(dense)
    ms = CountMatrix.from_triplets(6, 40, coo[0], coo[1], dense[coo])
    assert (column_sums(md) == column_sums(ms)).all()
    assert column_sums(md).sum() == pytest.approx(md.grand_total, rel=1e-15)


def test_column_sums_boolean_total_equals_nnz(rng):
    # independent accumulation over triplets as the oracle
    rows = rng.integers(0, 30, 500)
    cols = rng.integers(0, 200, 500)
    uniq = {(int(r), int(c)) for r, c in zip(rows, cols)}
    r = np.array([t[0] for t in sorted(uniq)])
    c = np.array([t[1] for t in sorted(uniq)])
    m = CountMatrix.from_triplets(30, 200, r, c, np.ones(r.size))
    by_hand = np.zeros(200)
    for rr, cc in uniq:
        by_hand[cc] += 1.0
    np.testing.assert_array_equal(column_sums(m), by_hand)
    assert column_sums(m).sum() == len(uniq)


def test_column_sums_sparse_empty_column():
    m = CountMatrix.from_triplets(3, 7, [0, 1], [0, 6], [1.0, 2.0])
    np.testing.assert_array_equal(column_sums(m), [1, 0, 0, 0, 0, 0, 2])


@pytest.mark.parametrize("shape, density", [
    ((8, 2), 1.0), ((8, 2), 0.6), ((300, 40), 0.3), ((3000, 7), 1.0),
    ((1000, 400), 0.05),
])
def test_column_sums_sparse_dense_bit_identical(rng, shape, density):
    # From 8 rows up a pairwise sum of a column differs from the row-order
    # sum in the last bits for most float columns.
    dense = np.where(rng.random(shape) < density, rng.random(shape), 0.0)
    dense[0] = 1.0
    coo = np.nonzero(dense)
    ms = CountMatrix.from_triplets(*shape, coo[0], coo[1], dense[coo])
    md = CountMatrix.from_dense(dense)
    assert column_sums(ms).tobytes() == column_sums(md).tobytes()


# -- the column reader ------------------------------------------------------------

@pytest.mark.parametrize("storage", ["dense", "built", "given"])
def test_reader_gives_the_columns_entries(rng, storage):
    """``CountMatrix._entries`` gives the nonzero entries of
    ``to_dense()[:, cols]`` column by column, rows ascending, and each
    column's count, for a range and for arrays of columns (fill-ordered,
    reversed, with empty columns); a range of sparse storage reads views
    of the stored arrays, whose ``_fill_order`` is the stable sort of its
    counts."""
    import scipy.sparse as sp
    dense = _wide_range(rng, (12, 45), density=0.3)
    dense[:, [3, 20, 44]] = 0.0
    m = {"dense": lambda: CountMatrix.from_dense(dense),
         "built": lambda: _build("sparse", dense),
         "given": lambda: CountMatrix(sparse=sp.csc_matrix(dense))}[storage]()
    counts = np.count_nonzero(dense, axis=0)
    by_fill = np.argsort(counts, kind="stable")
    for cols in (slice(0, 45), slice(10, 21), by_fill, by_fill[::-1],
                 np.array([20, 3, 7, 44]), np.array([], dtype=np.int64)):
        rows, values, n = m._entries(cols)
        block = m.to_dense()[:, cols]
        where, expected = np.nonzero(block.T)
        assert n.tolist() == np.count_nonzero(block, axis=0).tolist()
        assert rows.tolist() == expected.tolist()
        assert values.tobytes() == block[expected, where].tobytes()
    if storage != "dense":
        rows, values, _ = m._entries(slice(10, 21))
        assert np.shares_memory(rows, m.csc.indices)
        assert np.shares_memory(values, m.csc.data)
        fill_counts, order = m._fill_order()
        assert fill_counts.tolist() == counts.tolist()
        assert order.tolist() == by_fill.tolist()


# -- the marginal pass over dense storage ----------------------------------------

@pytest.fixture
def small_grid(monkeypatch):
    """10 columns per block at 12 rows. From 8 rows up numpy sums one
    strided column pairwise, not in row order."""
    monkeypatch.setattr("wideca.store._BLOCK_ELEMS", 120)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_marginal_pass_non_finite_in_last_block(small_grid, rng, bad):
    dense = rng.random((12, 45))
    dense[3, 44] = bad
    with pytest.raises(ValidationError,
                       match="^matrix contains NaN or infinite values$"):
        CountMatrix.from_dense(dense)


def test_marginal_pass_negative_names_first_minimum(small_grid, rng):
    # The minimum -2 sits in blocks 1 and 3; its first occurrence in row
    # order is in the later block.
    dense = rng.random((12, 45))
    dense[4, 12] = dense[1, 33] = -2.0
    dense[0, 40] = -1.0
    with pytest.raises(ValidationError,
                       match=r"^negative value at \(row=1, col=33\)$"):
        CountMatrix.from_dense(dense)


@pytest.mark.parametrize("cells", [
    [(0, 3), (0, 25)],   # one row sum overflows across two blocks
    [(0, 3), (11, 42)],  # rows finite, grand total overflows
])
def test_marginal_pass_totals_overflow_across_blocks(small_grid, rng, cells):
    dense = rng.random((12, 45))
    for i, j in cells:
        dense[i, j] = 1.5e308
    with pytest.raises(ValidationError, match="^matrix totals overflow float64$"):
        CountMatrix.from_dense(dense)


@pytest.mark.parametrize("shape", [(12, 45), (12, 41), (100, 7), (9, 1)],
                         ids=["width-1-chunks", "width-1-block",
                              "one-column-blocks", "one-column"])
def test_marginal_pass_column_sums_bits(small_grid, rng, shape):
    dense = rng.random(shape)
    m = CountMatrix.from_dense(dense)
    assert column_sums(m) is column_sums(m)
    assert column_sums(m).tobytes() == dense.sum(axis=0).tobytes()


def test_marginal_pass_one_block_row_sums_bits(rng):
    dense = rng.random((30, 995))
    m = CountMatrix.from_dense(dense)
    assert m.row_sums().tobytes() == dense.sum(axis=1).tobytes()
    assert column_sums(m).tobytes() == dense.sum(axis=0).tobytes()


def test_marginal_pass_independent_of_workers(small_grid, rng):
    dense = rng.random((12, 45)) * 10.0 ** rng.integers(-8, 8, (12, 45))
    m = CountMatrix.from_dense(dense)
    parts = []
    for workers in (1, 2, 3):
        m._validate(workers)
        parts.append((m.row_sums(), column_sums(m)))
    for row_sums, col_sums in parts[1:]:
        assert row_sums.tobytes() == parts[0][0].tobytes()
        assert col_sums.tobytes() == parts[0][1].tobytes()
    dense[4, 31] = -1.0  # the block minima merge to the first minimum
    for workers in (1, 2, 3):
        with pytest.raises(ValidationError,
                           match=r"^negative value at \(row=4, col=31\)$"):
            m._validate(workers)


# -- the marginal pass over sparse storage ------------------------------------------

def _wide_range(rng, shape, density=0.4):
    """Non-integer values over 16 decades, so the order of a sum shows in
    its bits; about ``density`` of the cells are stored, (0, 0) always."""
    dense = np.where(rng.random(shape) < density,
                     rng.random(shape) * 10.0 ** rng.uniform(-8, 8, shape), 0.0)
    dense[0, 0] = 1.0
    return dense


@pytest.fixture
def fast_switching():
    """Threads switch every 10 microseconds, so block passes interleave."""
    import sys
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("shape", [(12, 45), (30, 400)],
                         ids=["5-blocks", "100-blocks"])
@pytest.mark.parametrize("storage", ["built", "given"])
def test_marginal_pass_sparse_bits(small_grid, fast_switching, rng, shape,
                                   storage):
    """Row sums have the bits of one whole-matrix np.bincount and of scipy's
    sum(axis=1), column sums those of one np.bincount over every entry's
    column, at any worker count."""
    import scipy.sparse as sp
    dense = _wide_range(rng, shape)
    m = (_build("sparse", dense) if storage == "built"
         else CountMatrix(sparse=sp.csc_matrix(dense)))
    indptr, indices, data = m.csc
    rows = np.bincount(indices, weights=data, minlength=shape[0]).tobytes()
    assert rows == np.asarray(m.sparse.sum(axis=1)).ravel().tobytes()
    cols = np.bincount(np.repeat(np.arange(shape[1]), np.diff(indptr)),
                       weights=data, minlength=shape[1]).tobytes()
    for workers in (1, 2, 3):
        m._validate(workers)
        assert m.row_sums().tobytes() == rows
        assert column_sums(m).tobytes() == cols


def _make_defect(kind, indptr, indices, data, j):
    """Put one defect in column j of full CSC arrays (12 rows); its
    message."""
    p = indptr[j]
    if kind == "decreasing-pointer":
        indptr[j + 1] = p - 1
        return "^sparse column pointers must be non-decreasing$"
    if kind in ("unsorted", "duplicate"):
        indices[p:p + 2] = [1, 0] if kind == "unsorted" else [0, 0]
        return NOT_CANONICAL
    if kind == "row-out-of-range":
        indices[indptr[j + 1] - 1] = 12
        return "^sparse row index out of range for 12 rows$"
    data[p + 5] = {"nan": np.nan, "inf": np.inf, "negative": -0.5}[kind]
    if kind == "negative":
        return rf"^negative value at \(row=5, col={j}\)$"
    return "^matrix contains NaN or infinite values$"


@pytest.mark.parametrize("kind", [
    "decreasing-pointer", "unsorted", "duplicate", "row-out-of-range", "nan",
    "inf", "negative"])
@pytest.mark.parametrize("j", [2, 22, 43], ids=["first", "middle", "last"])
@pytest.mark.parametrize("storage", ["built", "given"])
def test_csc_defect_named_in_any_block(small_grid, kind, j, storage):
    """Each defect keeps its message in the first, a middle and the last of
    the five blocks of a 12 x 45 matrix."""
    import scipy.sparse as sp
    from wideca.store import CSC
    indptr = np.arange(0, 12 * 46, 12, dtype=np.int32)
    indices = np.tile(np.arange(12, dtype=np.int32), 45)
    data = np.linspace(0.5, 1.5, indices.size)
    message = _make_defect(kind, indptr, indices, data, j)
    with pytest.raises(ValidationError, match=message):
        if storage == "built":
            CountMatrix._from_csc(12, 45, CSC(indptr, indices, data))
        else:
            CountMatrix(sparse=sp.csc_matrix((data, indices, indptr),
                                             shape=(12, 45)))


def test_sparse_passes_hold_no_array_of_every_entry(monkeypatch, tmp_path, rng):
    """Column sums, validation, the triplet writer (of either storage) and
    to_dense, beyond its output, allocate at most a block's entries and the
    writer's chunk buffers, never an array with one item per stored entry."""
    import tracemalloc
    from wideca.store import _tables
    monkeypatch.setattr("wideca.store._BLOCK_ELEMS", 4_000)  # 20 columns
    monkeypatch.setattr("wideca.store._CHUNK_VALUES", 512)
    monkeypatch.setattr("wideca.store.resolve_workers", lambda w=None: w or 1)
    dense = np.where(rng.random((200, 2_500)) < 0.5, rng.random((200, 2_500)), 0.0)
    m = _build("sparse", dense)
    bound = 8 * m.nnz // 4  # a quarter of one int64 per entry: 0.5 MB
    _tables()  # the renderer's lookup tables, built once per process

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: column_sums(m)) < bound
    assert peak(m._validate) < bound
    for storage in (m, CountMatrix.from_dense(dense)):
        assert peak(lambda: save_matrix(storage, str(tmp_path / "m.tpl"),
                                        TRIPLET)) < bound
    assert peak(m.to_dense) - dense.nbytes < bound


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_triplet_writer_multi_block_bytes(small_grid, fast_switching, monkeypatch,
                                          tmp_path, rng, workers):
    """Triplet files of dense and sparse storage of one matrix of five
    blocks, in chunks of 7 values that each thread renders in its own
    reused buffers, are the per-value rendering."""
    dense = _wide_range(rng, (12, 45))
    monkeypatch.setattr("wideca.store._CHUNK_VALUES", 7)
    monkeypatch.setattr("wideca.store.resolve_workers",
                        lambda w=None, n=workers: n)
    for storage in ("dense", "sparse"):
        p = tmp_path / f"{storage}.tpl"
        save_matrix(_build(storage, dense), str(p), TRIPLET)
        assert p.read_bytes() == _reference_triplet(dense).encode(), storage
    assert _build("sparse", dense).to_dense().tobytes() == dense.tobytes()


def test_signal_roundtrip(tmp_path, rng):
    from wideca import SignalSeries, load_signal, save_signal
    sig = SignalSeries(rng.random(257) * 100)
    p = tmp_path / "s.txt"
    save_signal(sig, str(p))
    back = load_signal(str(p))
    assert (back.values == sig.values).all()


def test_signal_rejects_nan():
    from wideca import SignalSeries
    with pytest.raises(ValidationError):
        SignalSeries(np.array([1.0, np.nan]))


# -- writer golden tests ----------------------------------------------------
# The reference writers render every value on its own with "%.17g", the way
# files have always been written; the batched writers must match them byte
# for byte.

def _reference_dense_csv(dense):
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in dense)


def _reference_triplet(dense):
    cells = sorted((c, r) for r, c in zip(*np.nonzero(dense)))
    lines = ["%%%d %d %d\n" % (*dense.shape, len(cells))]
    lines += ["%d %d %.17g\n" % (r, c, dense[r, c]) for c, r in cells]
    return "".join(lines)


def _golden_matrices():
    special = np.array([
        [0.0, 3.0, 0.1, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
        [1.0, 0.0, 2.5, 1e-300, 123456789.0, 0.0],
    ])
    # Random finite nonnegative bit patterns, kept below 1e300 so no total
    # overflows; about a third of the cells are zero.
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**63, size=4 * 150, dtype=np.uint64).view(np.float64)
    bits = bits[np.isfinite(bits) & (bits < 1e300)][:450]
    bits[rng.random(bits.size) < 0.3] = 0.0
    bits[0] = 1.0
    # Uniform draws and whole numbers, all on the renderer's fast path.
    uniform = rng.random((4, 120))
    uniform[rng.random(uniform.shape) < 0.1] = 0.0
    integer = np.floor(10.0 ** rng.uniform(0, 16, (4, 120)))
    integer[rng.random(integer.shape) < 0.1] = 0.0
    return {"special": special, "random-bits": bits.reshape(3, 150),
            "uniform": uniform, "integer": integer}


@pytest.mark.parametrize("storage", ["dense", "sparse"])
@pytest.mark.parametrize("fmt", [DENSE_CSV, TRIPLET])
@pytest.mark.parametrize("name", ["special", "random-bits", "uniform",
                                  "integer"])
def test_writer_matches_per_value_rendering(tmp_path, name, fmt, storage):
    dense = _golden_matrices()[name]
    m = _build(storage, dense)
    p = tmp_path / "m.dat"
    save_matrix(m, str(p), fmt)
    reference = (_reference_dense_csv if fmt == DENSE_CSV else _reference_triplet)
    assert p.read_bytes() == reference(dense).encode()
    back = load_matrix(str(p), fmt)
    assert back.to_dense().tobytes() == dense.tobytes()


def test_signal_writer_matches_per_value_rendering(tmp_path):
    from wideca import SignalSeries, load_signal, save_signal
    values = np.concatenate([_golden_matrices()["random-bits"].ravel(),
                             [0.0, 3.0, 0.1, 5e-324, 1.7976931348623157e308]])
    p = tmp_path / "s.txt"
    save_signal(SignalSeries(values), str(p))
    assert p.read_bytes() == "".join("%.17g\n" % v for v in values).encode()
    assert load_signal(str(p)).values.tobytes() == values.tobytes()


@pytest.mark.parametrize("fmt", [DENSE_CSV, TRIPLET])
def test_writer_bytes_do_not_depend_on_workers(tmp_path, monkeypatch, fmt):
    """Chunks rendered by 1, 2 and 3 workers are written in chunk order: the
    file is the per-value rendering, chunk grid included (7 values a chunk,
    so lines of 9 values split across chunks)."""
    dense = _golden_matrices()["random-bits"][:, :9]
    monkeypatch.setattr("wideca.store._CHUNK_VALUES", 7)
    reference = (_reference_dense_csv if fmt == DENSE_CSV
                 else _reference_triplet)(dense).encode()
    for workers in (1, 2, 3):
        monkeypatch.setattr("wideca.store.resolve_workers",
                            lambda w=None, n=workers: n)
        p = tmp_path / f"m{workers}.dat"
        save_matrix(CountMatrix.from_dense(dense), str(p), fmt)
        assert p.read_bytes() == reference, workers


def _render_reference(values, seps):
    return b"".join(b"%.17g" % v + bytes([s])
                    for v, s in zip(values.tolist(), seps.tolist()))


def _render_edge_values():
    powers = 10.0 ** np.arange(-7, 18)
    # m * 2**-18 for odd m in [2**17, 2**18) has exactly 18 significant
    # digits, the last a 5: a tie at the 17th.
    odd = 2 * np.arange(2**16, 2**17, 997) + 1
    return np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [1e-6, np.nextafter(1e-6, 0.0), np.nextafter(1e-6, 1.0),
         1e17, np.nextafter(1e17, 0.0), 9.999999999999999e16,
         2.0**53 - 1, 2.0**53, 2.0**53 + 1, 2.0**53 + 2],
        odd * 2.0**-18, odd * 2.0**-30, odd * 2.0**-18 + 2.0**30,
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         -1.7976931348623157e308, -0.5, -1e-5, -12.25, -1234567.0],
    ])


@pytest.mark.parametrize("values", [
    _render_edge_values(),
    -_render_edge_values(),
    np.arange(30_000.0),                    # whole numbers, indices and counts
    np.concatenate([np.arange(100.0), [0.5]]),  # one fraction among them
], ids=["edges", "negated-edges", "whole", "mixed"])
def test_render_matches_percent_g_edges(values):
    from wideca.store import _render, _Scratch
    seps = np.resize(np.frombuffer(b" ,\n", dtype=np.uint8), values.size)
    assert _render(values, seps, _Scratch()) == \
        _render_reference(values, seps)


# -- block passes --------------------------------------------------------------

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Each case's CPU count and BLAS thread variables; the variables choose
# nothing.
_CPUS_AND_BLAS_VARS = {
    "unset": (2, {}),
    "openblas-1": (2, {"OPENBLAS_NUM_THREADS": "1"}),
    "omp-only-1": (2, {"OMP_NUM_THREADS": "1"}),
    "openblas-2": (2, {"OPENBLAS_NUM_THREADS": "2"}),
    "openblas-2-of-4": (4, {"OPENBLAS_NUM_THREADS": "2"}),
    "openblas-first": (4, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}),
    "non-numeric": (4, {"OPENBLAS_NUM_THREADS": "many"}),
    "first-positive": (4, {"OPENBLAS_NUM_THREADS": "many",
                           "GOTO_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}),
    "more-than-cpus": (2, {"OPENBLAS_NUM_THREADS": "8"}),
    "one-cpu": (1, {"OPENBLAS_NUM_THREADS": "1"}),
    "one-cpu-unset": (1, {}),
    "capped": (64, {"OPENBLAS_NUM_THREADS": "1"}),
    "many-cpus-unset": (64, {}),
    "omp-all": (64, {"OMP_NUM_THREADS": "64"}),
}


def _cases(*ids):
    return pytest.mark.parametrize("cpus, env", [_CPUS_AND_BLAS_VARS[i]
                                                 for i in ids], ids=ids)


def _host(monkeypatch, cpus, env):
    """A process with ``cpus`` usable CPUs and the given BLAS variables."""
    monkeypatch.setattr("wideca.store.os.sched_getaffinity",
                        lambda pid: set(range(cpus)))
    for name in _BLAS_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)


@_cases("unset", "openblas-1", "omp-only-1", "openblas-2-of-4",
        "openblas-first", "non-numeric", "first-positive", "more-than-cpus",
        "one-cpu", "one-cpu-unset", "capped", "many-cpus-unset")
def test_resolve_workers_default_rule(monkeypatch, cpus, env):
    """The default is the usable CPUs, at most 2, whatever the BLAS thread
    variables say: every pass runs BLAS on one thread."""
    from wideca.store import resolve_workers
    _host(monkeypatch, cpus, env)
    assert resolve_workers() == resolve_workers(None) == min(cpus, 2)


@pytest.mark.parametrize("cpus", [1, 2, 64])
def test_resolve_workers_without_blas_pin(monkeypatch, cpus):
    """Where numpy's BLAS has no thread setter the pin knows, BLAS keeps
    its threads and the default is one worker."""
    from wideca.store import one_blas_thread, resolve_workers
    _host(monkeypatch, cpus, {})
    monkeypatch.setattr("wideca.store._blas_threads", lambda: None)
    assert resolve_workers() == 1
    with one_blas_thread():  # a no-op
        pass


@_cases("unset", "openblas-2", "openblas-2-of-4", "omp-all", "one-cpu")
def test_default_workers_generation_ignores_blas(monkeypatch, cpus, env):
    """Generation passes no worker count: its pass, and the validation pass
    of the matrix it builds, run on the one default, whatever the BLAS
    thread variables say."""
    from wideca import gen_uniform, store
    _host(monkeypatch, cpus, env)
    seen = []
    real = store.resolve_workers

    def spy(workers=None):
        seen.append((workers, real(workers)))
        return seen[-1][1]

    monkeypatch.setattr(store, "resolve_workers", spy)
    gen_uniform(86, 30_001, 1)
    assert seen == [(None, min(cpus, 2))] * 2


@pytest.mark.parametrize("cpu_count, expected", [(2, 2), (None, 1)])
def test_resolve_workers_without_affinity(monkeypatch, cpu_count, expected):
    """Where the OS has no CPU affinity call (macOS, Windows) the default
    counts the CPUs os.cpu_count reports, or 1 when it reports none."""
    from wideca.store import resolve_workers
    monkeypatch.delattr("wideca.store.os.sched_getaffinity", raising=False)
    monkeypatch.setattr("wideca.store.os.cpu_count", lambda: cpu_count)
    assert resolve_workers() == expected


def test_resolve_workers_explicit():
    from wideca.store import resolve_workers
    assert [resolve_workers(w) for w in (1, 2, 7)] == [1, 2, 7]
    for workers in (0, -3):
        with pytest.raises(ValidationError,
                           match=f"^workers must be at least 1, got {workers}$"):
            resolve_workers(workers)


def _lookahead(workers):
    from wideca.store import _LOOKAHEAD_PER_WORKER
    return _LOOKAHEAD_PER_WORKER * workers


@pytest.mark.parametrize("workers, n_blocks", [
    (3, 2), (3, 3), (3, 4), (2, 5), (1, 3), (2, 12), (3, 20)])
def test_ordered_block_map_order_and_caller_share(workers, n_blocks):
    """Results come in block order; every block runs exactly once, the
    calling thread computes at least one, no block k starts before block
    k - L has been consumed, and no thread outlives the pass."""
    from wideca.store import ordered_block_map
    blocks = [(10 * b, 10 * b + 10) for b in range(n_blocks)]
    consumed = [0]
    log = []

    def fn(j0, j1):
        log.append((j0 // 10, consumed[0], threading.get_ident()))
        return (j0, j1)

    threads_before = threading.active_count()
    got = []
    for result in ordered_block_map(fn, blocks, workers):
        got.append(result)
        time.sleep(0.001)  # a slow consumer lets the pool run ahead
        consumed[0] += 1
    assert got == blocks
    assert threading.active_count() == threads_before
    assert sorted(b for b, _, _ in log) == list(range(n_blocks))
    assert threading.get_ident() in {ident for _, _, ident in log}
    for b, consumed_at_start, _ in log:
        assert b < consumed_at_start + _lookahead(workers)


def test_ordered_block_map_no_round_barrier():
    """While a pool thread is held inside block 1, the calling thread goes
    on to compute every block the lookahead allows, then releases it."""
    from wideca.store import ordered_block_map
    workers, n_blocks = 2, 8
    last_allowed = 1 + _lookahead(workers) - 1  # block 0 consumed, 1 held
    caller = threading.get_ident()
    pool_started, release = threading.Event(), threading.Event()
    released_in_time = []
    log = []

    def fn(j0, j1):
        log.append((j0, threading.get_ident(), release.is_set()))
        if j0 == 0:
            assert pool_started.wait(10)
        elif j0 == 1:
            pool_started.set()
            released_in_time.append(release.wait(10))
        elif j0 == last_allowed:
            release.set()
        return j0

    assert list(ordered_block_map(fn, [(b, b + 1) for b in range(n_blocks)],
                                  workers)) == list(range(n_blocks))
    assert released_in_time == [True]
    ran = {b: (ident, held_open) for b, ident, held_open in log}
    assert ran[1][0] != caller
    for b in range(2, last_allowed + 1):
        assert ran[b] == (caller, False)


def test_ordered_block_map_early_close():
    """Breaking after the first result ends the pool threads, and no block
    beyond the lookahead of zero consumed blocks ever starts."""
    from wideca.store import ordered_block_map
    workers = 3
    started = []

    def fn(j0, j1):
        started.append(j0)
        time.sleep(0.005)
        return j0

    threads_before = threading.active_count()
    for result in ordered_block_map(fn, [(b, b + 1) for b in range(40)],
                                    workers):
        assert result == 0
        time.sleep(0.05)  # room for the pool to run past the lookahead
        break
    assert threading.active_count() == threads_before
    assert 0 in started
    assert max(started) < _lookahead(workers)
    assert len(set(started)) == len(started)


@pytest.mark.parametrize("bad_block", [0, 1, 3], ids=[
    "caller-first-round", "pool", "caller-second-round"])
def test_ordered_block_map_exception_propagates(bad_block):
    from wideca.store import ordered_block_map
    blocks = [(b, b + 1) for b in range(5)]

    def fn(j0, j1):
        if j0 in (bad_block, 4):  # the first failing block's error is raised
            raise ValueError(f"block {j0}")
        return j0

    threads_before = threading.active_count()
    with pytest.raises(ValueError, match=f"^block {bad_block}$"):
        list(ordered_block_map(fn, blocks, 3))
    assert threading.active_count() == threads_before


# -- the BLAS pin --------------------------------------------------------------

@pytest.fixture
def blas_at_two():
    """numpy's BLAS at two threads, as a caller may set it; yields the
    thread-count getter and restores the count found."""
    from wideca.store import _blas_threads
    api = _blas_threads()
    if api is None:
        pytest.skip("numpy's BLAS has no thread setter the pin knows")
    get, set_ = api
    before = get()
    set_(2)
    yield get
    set_(before)


def test_pass_runs_blas_on_one_thread(blas_at_two):
    """Every block, in the caller and in the pool, and a nested pass see
    one BLAS thread; the caller's count comes back after each pass."""
    from wideca.store import ordered_block_map
    blocks = [(b, b + 1) for b in range(6)]

    def nested(j0, j1):
        inner = list(ordered_block_map(lambda a, b: blas_at_two(), blocks, 2))
        return [blas_at_two()] + inner

    assert list(ordered_block_map(nested, blocks, 3)) == [[1] * 7] * 6
    assert blas_at_two() == 2


def test_pin_shared_by_concurrent_passes(blas_at_two):
    """Passes run from several threads at once, with more threads than
    CPUs and frequent thread switches, share one pin: every block sees one
    BLAS thread, and the last pass out restores the caller's count."""
    import sys
    from wideca.store import ordered_block_map
    blocks = [(b, b + 1) for b in range(4)]
    seen = []

    def passes():  # one worker each: the threads below are the concurrency
        for _ in range(1000):
            seen.extend(list(ordered_block_map(lambda j0, j1: blas_at_two(),
                                               blocks, 1)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=passes) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [1] * 16000
    assert blas_at_two() == 2


def _failing_pass():
    from wideca.store import ordered_block_map

    def fn(j0, j1):
        raise ValueError(f"block {j0}")

    with pytest.raises(ValueError, match="^block 0$"):
        list(ordered_block_map(fn, [(b, b + 1) for b in range(4)], 2))


def _closed_pass():
    from wideca.store import ordered_block_map
    parts = ordered_block_map(lambda j0, j1: j0, [(b, b + 1) for b in range(4)],
                              2)
    assert next(parts) == 0
    parts.close()


@pytest.mark.parametrize("work", [
    lambda: analyze(gen_uniform(20, 500, 1)),
    lambda: analyze(gen_powerlaw_boolean(40, 3_000, 1)),
    lambda: gen_uniform(86, 30_001, 1),
    _failing_pass, _closed_pass],
    ids=["analyze-dense", "analyze-sparse", "gen_uniform", "failing-pass",
         "closed-pass"])
def test_caller_blas_threads_restored(blas_at_two, work):
    work()
    assert blas_at_two() == 2


def test_footprint_counts_and_unknown_memory(monkeypatch):
    """Sparse storage counts 8 value bytes and one index per entry plus the
    column pointers, with int32 indices while the shape and nnz fit them;
    where the OS gives no physical memory, nothing is refused."""
    from wideca import store
    assert store.footprint(425, 105_200, 3_051_177) == \
        3_051_177 * 12 + 105_201 * 4
    assert store.footprint(2, 3_000_000_000, 0) == 3_000_000_001 * 8
    assert store.footprint(2, 3, 4, workers=1) == \
        4 * 12 + 4 * 4 + 8 * (5 * 3 + 6 * 2 * 2)
    monkeypatch.setattr(store, "_PHYSICAL_MEMORY", 0)
    store.check_memory("any job", 10 ** 30)
    monkeypatch.setattr(store, "_PHYSICAL_MEMORY", 100)
    store.check_memory("a job", 100)
    with pytest.raises(ValidationError, match=(
            "^a job needs at least 101 bytes, more than the 100 bytes of "
            "physical memory$")):
        store.check_memory("a job", 101)


def test_triplet_bytes_past_nnz_not_read(tmp_path):
    # Lines after the nnz-th body line are never read, so a byte there that
    # is not UTF-8 is ignored, as a malformed line there is.
    p = tmp_path / "m.tpl"
    p.write_bytes(b"%3 2 2\n0 0 1\n2 1 4\n\xff\xfe 1\n")
    m = load_matrix(str(p), TRIPLET)
    np.testing.assert_array_equal(m.to_dense(), [[1, 0], [0, 0], [0, 4]])


@pytest.mark.parametrize("dim, refused", [
    (1 << 59, False), ((1 << 59) + 1, True), (10 ** 20, True)])
def test_triplet_header_dimension_limit(dim, refused):
    from wideca.store import _triplet_header
    for header in (f"%{dim} 2 1", f"%2 {dim} 1"):
        if refused:
            with pytest.raises(ParseError, match=r"^line 1: matrix dimensions "
                                                 r"\d+ x \d+ exceed 2\^59$"):
                _triplet_header(header)
        else:
            assert max(_triplet_header(header)[:2]) == dim


@pytest.mark.parametrize("kind", ["signal", "marginals"])
def test_values_file_of_several_columns_names_line(tmp_path, kind):
    # Every line holds two values, so the vectorised parse sees a table of
    # two columns; the one-field dtype refuses it.
    from wideca.store import load_marginals
    from wideca import load_signal
    p = tmp_path / "v.txt"
    p.write_text("1 2\n3 4\n")
    load = load_signal if kind == "signal" else load_marginals
    with pytest.raises(ParseError, match=f"^line 1: bad {kind} value '1 2'$"):
        load(str(p))
