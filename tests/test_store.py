import numpy as np
import pytest

from wideca import CountMatrix, ParseError, ValidationError, column_sums
from wideca.store import (DENSE_CSV, TRIPLET, load_matrix, save_matrix,
                          stream_columns, zero_columns)


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
    with pytest.raises(ParseError, match="line 2"):
        load_matrix(str(p), DENSE_CSV)


def test_ragged_row_rejected(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n1\n")
    with pytest.raises(ParseError, match="line 2"):
        load_matrix(str(p), DENSE_CSV)


def test_empty_matrix_rejected(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ParseError):
        load_matrix(str(p), DENSE_CSV)
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


def test_triplet_unsorted_rejected(tmp_path):
    p = tmp_path / "m.tpl"
    p.write_text("%2 2 2\n0 1 1\n0 0 1\n")
    with pytest.raises(ParseError, match="sorted"):
        load_matrix(str(p), TRIPLET)


def test_triplet_duplicate_rejected(tmp_path):
    p = tmp_path / "m.tpl"
    p.write_text("%2 2 2\n0 0 1\n0 0 2\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_matrix(str(p), TRIPLET)


def test_triplet_out_of_range_rejected():
    with pytest.raises(ValidationError, match="out of range"):
        CountMatrix.from_triplets(2, 2, [0, 2], [0, 1], [1.0, 1.0])


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
    np.testing.assert_array_equal(zero_columns(m), [1])


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


def test_stream_columns_visits_every_column():
    m = CountMatrix.from_dense([[1, 2], [0, 1], [2, 0]])
    seen = []
    stream_columns(m, lambda j, rows, vals: seen.append((j, len(rows))))
    assert seen == [(0, 2), (1, 2)]


def test_stream_columns_empty_column_still_visited():
    m = CountMatrix.from_triplets(3, 7, [0, 1], [0, 6], [1.0, 2.0])
    visited = []
    stream_columns(m, lambda j, rows, vals: visited.append((j, rows.size)))
    assert [j for j, _ in visited] == list(range(7))
    assert visited[5] == (5, 0)


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


@pytest.mark.parametrize("kind", ["uniform", "sparse"])
def test_stream_columns_reconstructs_matrix(rng, kind):
    from conftest import random_count_matrix
    m = random_count_matrix(rng, 8, 23, kind)
    rebuilt = np.zeros((8, 23))

    def visitor(j, rows, vals):
        rebuilt[rows, j] = vals

    stream_columns(m, visitor)
    assert (rebuilt == m.to_dense()).all()
