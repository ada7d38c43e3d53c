import re
import threading
import warnings

import numpy as np
import pytest

from wideca import (CountMatrix, ParseError, ValidationError,
                    build_frequency_model, column_sums)
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


def test_csc_checks_leave_arrays_alone():
    csc = _csc([0, 2, 1], [0, 2, 3])
    data, indices = csc.data, csc.indices
    m = CountMatrix(sparse=csc)
    assert m.sparse.data is data and m.sparse.indices is indices
    np.testing.assert_array_equal(column_sums(m), [2.0, 1.0])


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
    return {"special": special, "random-bits": bits.reshape(3, 150)}


@pytest.mark.parametrize("storage", ["dense", "sparse"])
@pytest.mark.parametrize("fmt", [DENSE_CSV, TRIPLET])
@pytest.mark.parametrize("name", ["special", "random-bits"])
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


# -- block passes --------------------------------------------------------------

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("cpus, env, expected", [
    (2, {}, 1),
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
    (2, {"OMP_NUM_THREADS": "1"}, 2),
    (4, {"OPENBLAS_NUM_THREADS": "2"}, 2),
    (4, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
    (4, {"OPENBLAS_NUM_THREADS": "many"}, 1),
    (4, {"OPENBLAS_NUM_THREADS": "many", "GOTO_NUM_THREADS": "0",
         "OMP_NUM_THREADS": "1"}, 2),
    (2, {"OPENBLAS_NUM_THREADS": "8"}, 1),
    (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
    (1, {}, 1),
    (64, {"OPENBLAS_NUM_THREADS": "1"}, 2),
    (64, {}, 1),
], ids=["unset", "openblas-1", "omp-only-1", "openblas-2-of-4",
        "openblas-first", "non-numeric", "first-positive", "more-than-cpus",
        "one-cpu", "one-cpu-unset", "capped", "many-cpus-unset"])
def test_resolve_workers_default_rule(monkeypatch, cpus, env, expected):
    from wideca.store import resolve_workers
    monkeypatch.setattr("wideca.store.os.sched_getaffinity",
                        lambda pid: set(range(cpus)))
    for name in _BLAS_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert resolve_workers() == resolve_workers(None) == expected


@pytest.mark.parametrize("cpu_count, expected", [(2, 2), (None, 1)])
def test_resolve_workers_without_affinity(monkeypatch, cpu_count, expected):
    """Where the OS has no CPU affinity call (macOS, Windows) the default
    counts the CPUs os.cpu_count reports, or 1 when it reports none."""
    from wideca.store import resolve_workers
    monkeypatch.delattr("wideca.store.os.sched_getaffinity", raising=False)
    monkeypatch.setattr("wideca.store.os.cpu_count", lambda: cpu_count)
    for name in _BLAS_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert resolve_workers() == expected


def test_resolve_workers_explicit():
    from wideca.store import resolve_workers
    assert [resolve_workers(w) for w in (1, 2, 7)] == [1, 2, 7]
    for workers in (0, -3):
        with pytest.raises(ValidationError,
                           match=f"^workers must be at least 1, got {workers}$"):
            resolve_workers(workers)


def _recording_block(log):
    def fn(j0, j1):
        log.append((j0, threading.get_ident()))
        return (j0, j1)
    return fn


@pytest.mark.parametrize("workers, n_blocks", [
    (3, 2), (3, 3), (3, 4), (2, 5), (1, 3)])
def test_ordered_block_map_order_and_caller_share(workers, n_blocks):
    """Results come in block order; the calling thread computes the first
    block of every round of ``workers`` blocks, and no thread outlives the
    pass."""
    from wideca.store import ordered_block_map
    blocks = [(10 * b, 10 * b + 10) for b in range(n_blocks)]
    log = []
    threads_before = threading.active_count()
    assert list(ordered_block_map(_recording_block(log), blocks,
                                  workers)) == blocks
    assert threading.active_count() == threads_before
    ran_on = dict(log)
    assert sorted(ran_on) == [j0 for j0, _ in blocks]
    caller = threading.get_ident()
    for b, (j0, _) in enumerate(blocks):
        assert (ran_on[j0] == caller) == (b % workers == 0 or workers == 1)


@pytest.mark.parametrize("bad_block", [0, 1, 3], ids=[
    "caller-first-round", "pool", "caller-second-round"])
def test_ordered_block_map_exception_propagates(bad_block):
    from wideca.store import ordered_block_map
    blocks = [(b, b + 1) for b in range(5)]

    def fn(j0, j1):
        if j0 == bad_block:
            raise ValueError(f"block {j0}")
        return j0

    threads_before = threading.active_count()
    with pytest.raises(ValueError, match=f"^block {bad_block}$"):
        list(ordered_block_map(fn, blocks, 3))
    assert threading.active_count() == threads_before
