import json
import sys

import numpy as np
import pytest
from conftest import (K0, K0_CHI2_PER_COLUMN, K0_TOTAL_CENTERED_INERTIA,
                      chi2_distances, column_projections, random_count_matrix,
                      svd_oracle, two_pass_relative)

import wideca
from wideca import (CountMatrix, ValidationError, build_frequency_model,
                    concentration_report, decompose)
from wideca.contributions import REPORT_FIELDS


def _matrix(m):
    return m if isinstance(m, CountMatrix) else CountMatrix.from_dense(m)


def analyze(m):
    fm = build_frequency_model(_matrix(m))
    fd = decompose(fm)
    return fm, fd


def report(m, include_trivial=True):
    return wideca.analyze(_matrix(m), include_trivial)


def direct_absolute(K):
    """abs_j = sum_i k_ij^2 / (k_i k_j), trivial axis included, computed
    without any factorization."""
    K = np.asarray(K, dtype=np.float64)
    return (K ** 2 / K.sum(axis=1)[:, None]).sum(axis=0) / K.sum(axis=0)


# -- chi-squared distances ------------------------------------------------------

def test_chi2_uniform_matrix_is_zero():
    fm, _, rep = report(np.ones((4, 5)))
    np.testing.assert_allclose(chi2_distances(fm, rep), 0.0, atol=1e-14)


def test_chi2_k0_matches_projection_sum():
    fm, _, rep = report(K0)
    _, _, G_o = svd_oracle(K0)
    d = chi2_distances(fm, rep)
    np.testing.assert_allclose(d, K0_CHI2_PER_COLUMN, atol=1e-12)
    np.testing.assert_allclose(d, (G_o[:2] ** 2).sum(axis=0), atol=1e-10)


def test_chi2_single_one_column():
    # boolean column with a single 1 in row i: distance is 1/f_i - 1
    K = np.array([[1.0, 1, 1, 1],
                  [1.0, 1, 0, 1],
                  [1.0, 1, 0, 1]])
    fm, _, rep = report(K)
    fi = fm.row_masses[0]
    assert chi2_distances(fm, rep)[2] == pytest.approx(1 / fi - 1, rel=1e-12)


def test_chi2_zero_mass_column_excluded():
    # a zero-mass column has no profile: excluded, contributing nothing
    fm, _, rep = report(np.array([[1.0, 0, 3], [2, 0, 1]]))
    np.testing.assert_array_equal(rep.excluded_cols, [1])
    assert rep.per_column_absolute[1] == rep.per_column_relative[1] == 0.0
    np.testing.assert_allclose(chi2_distances(fm, rep)[[0, 2]],
                               direct_absolute([[1.0, 3], [2, 1]])
                               / fm.col_masses[[0, 2]] - 1.0, rtol=1e-12)


def test_chi2_equals_nontrivial_projection_sum(rng):
    m = random_count_matrix(rng, 10, 24, "sparse")
    fm, fd, rep = report(m)
    G = column_projections(fm, fd)
    np.testing.assert_allclose(chi2_distances(fm, rep), (G ** 2).sum(axis=0),
                               atol=1e-9)


# -- per-column contributions ---------------------------------------------------

def test_absolute_contribution_identical_rows():
    # identical rows: only the trivial axis, total equals f_j
    K = np.vstack([np.array([1.0, 2, 3, 4])] * 3)
    fm, fd, rep = report(K)
    assert fd.n_nontrivial == 0 and rep.nu == 1
    np.testing.assert_allclose(rep.per_column_absolute, fm.col_masses,
                               rtol=1e-12)
    assert rep.axis_column_inertia.size == 0


def test_relative_contribution_trivial_axis_is_mass(rng):
    m = random_count_matrix(rng, 6, 14, "counts")
    fm = build_frequency_model(m)
    fd = decompose(fm)
    with_t = concentration_report(fm, fd, include_trivial=True)
    without = concentration_report(fm, fd, include_trivial=False)
    np.testing.assert_allclose(
        with_t.per_column_relative - without.per_column_relative,
        fm.col_masses, rtol=1e-12, atol=1e-15)


def test_absolute_contributions_sum_to_inertia(rng):
    m = random_count_matrix(rng, 9, 31, "uniform")
    fm, fd, rep = report(m)
    np.testing.assert_allclose(rep.per_column_absolute,
                               direct_absolute(m.to_dense()), rtol=1e-10)
    assert rep.per_column_absolute.sum() == pytest.approx(
        1.0 + fd.eigenvalues.sum(), abs=1e-8)


def test_per_axis_relative_sums_to_one(rng):
    # f_j G_a(j)^2 / I_a over columns sums to 1 per axis, and summed over
    # axes gives the report's per-column relative contributions
    m = random_count_matrix(rng, 8, 22, "boolean")
    fm, fd, rep = report(m)
    S2 = column_projections(fm, fd) ** 2 * fm.col_masses
    np.testing.assert_allclose(S2.sum(axis=1), rep.axis_column_inertia,
                               rtol=1e-12)
    per_axis = S2 / rep.axis_column_inertia[:, None]
    np.testing.assert_allclose(per_axis.sum(axis=1), 1.0, atol=1e-10)
    np.testing.assert_allclose(fm.col_masses + per_axis.sum(axis=0),
                               rep.per_column_relative, rtol=1e-12)


# -- concentration report ---------------------------------------------------------

def test_inertia_totals_agree_both_ways(rng):
    for kind in ("uniform", "counts", "boolean", "sparse"):
        for include_trivial in (True, False):
            m = random_count_matrix(rng, 12, 40, kind)
            fm, fd = analyze(m)
            rep = concentration_report(fm, fd, include_trivial=include_trivial)
            lam_sum = float(include_trivial) + fd.eigenvalues.sum()
            assert rep.per_column_absolute.sum() == pytest.approx(lam_sum,
                                                                  abs=1e-8)
            assert rep.per_row_absolute.sum() == pytest.approx(lam_sum,
                                                               abs=1e-8)
            assert rep.per_column_absolute.min() >= 0.0
            assert rep.per_column_relative.min() >= 0.0


def test_axis_inertia_matches_eigenvalues(rng):
    m = random_count_matrix(rng, 10, 26, "uniform")
    fm, fd = analyze(m)
    rep = concentration_report(fm, fd)
    np.testing.assert_allclose(rep.axis_column_inertia,
                               fd.eigenvalues, atol=1e-8)
    # rho^2(j) = 1 + sum_a G_a^2(j): full-rank case
    rho2 = rep.per_column_absolute / fm.col_masses
    np.testing.assert_allclose(
        rho2, 1.0 + (column_projections(fm, fd) ** 2).sum(axis=0), atol=1e-8)


def test_mean_relative_is_exact_identity(rng):
    for kind in ("uniform", "counts", "boolean", "sparse"):
        m = random_count_matrix(rng, 11, 35, kind)
        fm, fd = analyze(m)
        rep = concentration_report(fm, fd)
        assert rep.rel_mean == pytest.approx((fd.n_nontrivial + 1) / 35,
                                             abs=1e-10)


def test_mean_relative_identity_with_zero_columns():
    K = np.array([[1.0, 0, 2, 5, 0],
                  [4.0, 0, 1, 1, 0],
                  [2.0, 0, 2, 3, 0]])
    fm, fd = analyze(K)
    rep = concentration_report(fm, fd)
    assert rep.n_cols_effective == 3
    assert rep.rel_mean == pytest.approx((fd.n_nontrivial + 1) / 3, abs=1e-10)
    np.testing.assert_array_equal(rep.excluded_cols, [1, 4])
    assert rep.per_column_absolute[1] == 0.0


def test_trivial_included_shifts_absolute_by_mass(rng):
    m = random_count_matrix(rng, 7, 18, "uniform")
    fm = build_frequency_model(m)
    fd = decompose(fm)
    with_t = concentration_report(fm, fd, include_trivial=True)
    without = concentration_report(fm, fd, include_trivial=False)
    np.testing.assert_allclose(
        with_t.per_column_absolute - without.per_column_absolute,
        fm.col_masses, atol=1e-12)
    assert with_t.nu == without.nu + 1


# -- the trivial axis ------------------------------------------------------------
# ``decompose`` returns the non-trivial axes only; the report counts the
# trivial one (eigenvalue 1, every row and column projection 1) unless
# ``include_trivial`` is off.

def test_uniform_matrix_only_trivial_axis():
    fm, fd, rep = report(np.ones((2, 2)))
    assert fd.n_nontrivial == 0 and rep.nu == 1
    assert rep.total_inertia == 1.0
    # f_i F_0(i)^2 / f_i: the trivial row projections
    np.testing.assert_allclose(rep.per_row_absolute / fm.row_masses, 1.0)


def _trivial_terms(fm, fd):
    """What counting the trivial axis adds to the report: (f_i F_0(i)^2,
    f_j G_0(j)^2, its eigenvalue), each row's, column's and the total
    inertia's difference between the reports with and without it."""
    with_t = concentration_report(fm, fd, include_trivial=True)
    without = concentration_report(fm, fd, include_trivial=False)
    return (with_t.per_row_absolute - without.per_row_absolute,
            with_t.per_column_absolute - without.per_column_absolute,
            with_t.total_inertia - without.total_inertia)


def test_trivial_axis_projections_are_one(rng):
    for kind in ("uniform", "boolean"):
        fm = build_frequency_model(random_count_matrix(rng, 10, 30, kind))
        fd = decompose(fm)
        rows, _, eigenvalue = _trivial_terms(fm, fd)
        np.testing.assert_allclose(rows / fm.row_masses, 1.0, atol=1e-10)
        assert abs(eigenvalue - 1.0) < 1e-10


def test_exclude_trivial_flag(rng):
    fm = build_frequency_model(random_count_matrix(rng, 6, 12, "uniform"))
    fd = decompose(fm)
    with_t = concentration_report(fm, fd, include_trivial=True)
    without = concentration_report(fm, fd, include_trivial=False)
    assert with_t.nu == without.nu + 1 == fd.n_nontrivial + 1
    # the non-trivial axes are the same either way
    np.testing.assert_allclose(with_t.axis_column_inertia,
                               without.axis_column_inertia, atol=0)
    for name in ("max_proj_cols", "max_proj_rows", "inertia_gap"):
        assert getattr(with_t, name) == getattr(without, name), name
    # the eigenvalue 1 is summed first, ahead of the non-trivial spectrum
    assert with_t.total_inertia == float(np.r_[1.0, fd.eigenvalues].sum())
    assert without.total_inertia == float(fd.eigenvalues.sum())


def test_trivial_column_projection_is_one(rng):
    # transition formula on the trivial axis: G_0(j) = sum_i (f_ij/f_j) F_0(i)
    m = random_count_matrix(rng, 7, 19, "counts")
    fm = build_frequency_model(m)
    rows, cols, _ = _trivial_terms(fm, decompose(fm))
    K = m.to_dense()
    G0 = (K / K.sum(axis=0)).T @ np.sqrt(rows / fm.row_masses)
    np.testing.assert_allclose(G0, 1.0, atol=1e-10)
    np.testing.assert_allclose(cols / fm.col_masses, 1.0, atol=1e-10)


def test_max_projection_excludes_trivial(rng):
    # near-uniform data: every non-trivial projection is far below 1
    K = 1000.0 + rng.random((6, 40))
    fm, fd = analyze(K)
    rep = concentration_report(fm, fd)
    assert 0 < rep.max_proj_cols < 0.1
    assert 0 < rep.max_proj_rows < 0.1


def test_summary_statistics_definitions(rng):
    m = random_count_matrix(rng, 8, 21, "uniform")
    fm, fd = analyze(m)
    rep = concentration_report(fm, fd)
    a = rep.per_column_absolute
    assert rep.abs_mean == pytest.approx(a.mean(), rel=1e-15)
    assert rep.abs_sd == pytest.approx(a.std(ddof=1), rel=1e-12)
    assert rep.abs_median == pytest.approx(np.median(a), rel=1e-15)


def test_report_serialization_fields():
    fm, fd = analyze(K0)
    rep = concentration_report(fm, fd)
    doc = rep.to_dict()
    assert tuple(doc.keys()) == REPORT_FIELDS
    assert doc["dim"] == 4
    assert doc["nu"] == 3
    assert doc["n_cols_effective"] == 4
    assert doc["total_inertia"] == pytest.approx(
        1.0 + K0_TOTAL_CENTERED_INERTIA, abs=1e-12)
    json.dumps(doc)  # serializable
    header, row = rep.to_csv_row()
    assert header == ",".join(REPORT_FIELDS)
    assert len(row.split(",")) == len(REPORT_FIELDS)


def test_uniform_cloud_reference_statistics():
    # 86-row uniform clouds, 10 seeds: seed-mean absolute contribution
    # statistics stay within 10% of the reference values, and the relative
    # median at d=1000 within 5%
    from wideca import gen_uniform
    refs = {100: (0.01322144, 0.0005623589), 1000: (0.001331763, 5.440168e-05)}
    rel_medians = []
    for d, (ref_mean, ref_sd) in refs.items():
        means, sds = [], []
        for seed in range(1, 11):
            fm, fd = analyze(gen_uniform(86, d, seed))
            rep = concentration_report(fm, fd)
            means.append(rep.abs_mean)
            sds.append(rep.abs_sd)
            if d == 1000:
                rel_medians.append(rep.rel_median)
        assert abs(np.mean(means) / ref_mean - 1) < 0.10
        assert abs(np.mean(sds) / ref_sd - 1) < 0.10
    assert abs(np.mean(rel_medians) / 0.08547353 - 1) < 0.05


def test_embedding_report_matches_direct_computation():
    # brute-force oracle: abs_j = f_j * (1 + sum_i (k_ij/k_j - f_i)^2 / f_i),
    # computed without any factorization
    from wideca import embed_signal, gen_randomwalk_signal
    sig = gen_randomwalk_signal(95_011, 6800.0, seed=1, p_repeat=0.9)
    m = embed_signal(sig, 86, 1000, 100)
    fm, fd = analyze(m)
    rep = concentration_report(fm, fd)

    K = m.to_dense()
    k = K.sum()
    fi = K.sum(axis=1) / k
    kj = K.sum(axis=0)
    direct = np.empty(100)
    for j in range(100):
        p = K[:, j] / kj[j]
        direct[j] = (kj[j] / k) * (1.0 + (((p - fi) ** 2) / fi).sum())
    # the non-trivial spectrum of this matrix sits at the eigensolver noise
    # floor, which bounds per-column agreement at the 1e-6 relative level
    np.testing.assert_allclose(rep.per_column_absolute, direct, rtol=1e-5)
    assert rep.abs_mean == pytest.approx(0.01, abs=1e-4)
    assert rep.abs_sd <= 1e-6
    assert rep.max_proj_cols <= 0.01


def test_report_workers_bit_identical(rng):
    K = rng.random((9, 4000))
    fm = build_frequency_model(CountMatrix.from_dense(K))
    fd = decompose(fm)
    ref = concentration_report(fm, fd, workers=1)
    for workers in (2, 3):
        rep = concentration_report(fm, fd, workers=workers)
        assert (rep.per_column_absolute == ref.per_column_absolute).all()
        assert (rep.per_column_relative == ref.per_column_relative).all()
        assert rep.to_csv_row() == ref.to_csv_row()


REPORT_ARRAYS = ("per_column_absolute", "per_column_relative",
                 "per_row_absolute", "per_row_relative",
                 "axis_column_inertia", "excluded_cols")


@pytest.mark.parametrize("kind", ["dense", "sparse-powerlaw", "sparse-mixed"])
def test_multi_block_workers_bit_identical(rng, kind):
    import scipy.sparse as sp
    from wideca import gen_powerlaw_boolean
    from wideca.engine import _dense_gram
    from wideca.store import column_blocks
    if kind == "dense":
        K = rng.random((30, 250_000))
        K[:, [5, 180_000]] = 0.0  # zero-mass columns in two blocks
        m = CountMatrix.from_dense(K)
    elif kind == "sparse-powerlaw":
        m = gen_powerlaw_boolean(425, 25_000, seed=7)
    else:
        # five blocks of 5,000 columns, alternately 10 % and 0.5 % dense
        K = sp.hstack([sp.random(200, 5000, density=d, format="csc",
                                 random_state=rng,
                                 data_rvs=lambda k: rng.integers(1, 4, k))
                       for d in (0.1, 0.005, 0.1, 0.005, 0.1)], format="csc")
        K.sort_indices()
        m = CountMatrix(sparse=K)
    blocks = list(column_blocks(m.n_rows, m.n_cols))
    assert len(blocks) >= 3
    if kind == "sparse-mixed":
        assert [_dense_gram(np.diff(m.sparse.indptr[j0:j1 + 1]), m.n_rows)
                for j0, j1 in blocks] == [True, False, True, False, True]
    fm = build_frequency_model(m)
    ref_fd = decompose(fm, workers=1)
    ref = concentration_report(fm, ref_fd, workers=1)
    # Frequent thread switches make workers interleave inside their blocks.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (2, 3):
            fd = decompose(fm, workers=workers)
            assert fd.eigenvalues.tobytes() == ref_fd.eigenvalues.tobytes()
            assert fd.row_projections.tobytes() == ref_fd.row_projections.tobytes()
            rep = concentration_report(fm, fd, workers=workers)
            for name in REPORT_ARRAYS:
                assert getattr(rep, name).tobytes() == \
                    getattr(ref, name).tobytes(), name
            assert rep.to_csv_row() == ref.to_csv_row()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("sparse", [False, True])
def test_default_workers_multi_block_match_one_worker(rng, monkeypatch,
                                                      sparse):
    """On two usable CPUs the default runs two workers; on a grid of
    several blocks its factors and report equal one worker's, bit for
    bit."""
    from wideca.store import column_blocks, resolve_workers
    monkeypatch.setattr("wideca.store._BLOCK_ELEMS", SMALL_BLOCK_ELEMS)
    monkeypatch.setattr("wideca.store.os.sched_getaffinity",
                        lambda pid: {0, 1})
    assert resolve_workers() == 2
    K = np.where(rng.random((30, 9_000)) < 0.3, rng.random((30, 9_000)), 0.0)
    K[:, [0, 4_500]] = 0.0
    m = CountMatrix.from_triplets(30, 9_000, *np.nonzero(K),
                                  K[np.nonzero(K)]) if sparse \
        else CountMatrix.from_dense(K)
    assert len(list(column_blocks(m.n_rows, m.n_cols))) > 2
    fm = build_frequency_model(m)
    ref_fd = decompose(fm, workers=1)
    ref = concentration_report(fm, ref_fd, workers=1)
    fd = decompose(fm)
    rep = concentration_report(fm, fd)
    assert fd.eigenvalues.tobytes() == ref_fd.eigenvalues.tobytes()
    assert fd.row_projections.tobytes() == ref_fd.row_projections.tobytes()
    for name in REPORT_ARRAYS:
        assert getattr(rep, name).tobytes() == getattr(ref, name).tobytes(), \
            name
    assert rep.to_csv_row() == ref.to_csv_row()


def test_workers_below_one_rejected(rng):
    fm, fd = analyze(rng.random((5, 40)))
    for workers in (0, -3):
        with pytest.raises(ValidationError, match="workers must be at least 1"):
            decompose(fm, workers=workers)
        with pytest.raises(ValidationError, match="workers must be at least 1"):
            concentration_report(fm, fd, workers=workers)


# -- range and invariance -----------------------------------------------------
# Small block grids make a 30 x 9,000 matrix span several column blocks, so
# every reduction below merges more than one block.

SMALL_BLOCK_ELEMS = 60_000  # 2,000 columns per block at 30 rows


def test_sparse_view_built_before_the_pool(rng, monkeypatch):
    """Sparse storage whose scipy view is not built yet: the projection
    passes, whose light blocks take scipy's product once any saving pays
    for the import, build it in the calling thread, and 1, 2 and 3 workers
    give the same bits."""
    monkeypatch.setattr("wideca.store._BLOCK_ELEMS", SMALL_BLOCK_ELEMS)
    monkeypatch.setattr("wideca.engine._SCIPY_IMPORT_MADDS", 1)
    K = np.where(rng.random((30, 9_000)) < 0.02, rng.random((30, 9_000)), 0.0)
    outputs = []
    for workers in (1, 2, 3):
        m = CountMatrix.from_triplets(30, 9_000, *np.nonzero(K),
                                      K[np.nonzero(K)])
        assert m._sparse is None
        fm = build_frequency_model(m)
        fd = decompose(fm, workers=workers)
        rep = concentration_report(fm, fd, workers=workers)
        assert m._sparse is not None
        outputs.append([fd.eigenvalues.tobytes(), fd.row_projections.tobytes()]
                       + [getattr(rep, name).tobytes() for name in REPORT_ARRAYS])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def _assert_reports_close(rep, ref, rtol):
    for name in REPORT_FIELDS:
        assert getattr(rep, name) == pytest.approx(getattr(ref, name),
                                                   rel=rtol, abs=0), name
    for name in REPORT_ARRAYS:
        np.testing.assert_allclose(getattr(rep, name), getattr(ref, name),
                                   rtol=rtol, atol=0, err_msg=name)


@pytest.mark.parametrize("scale", [1e-300, 1e300, 2.0 ** -1000])
def test_report_scale_invariant_at_extreme_range(rng, monkeypatch, scale):
    from wideca.store import column_blocks
    monkeypatch.setattr("wideca.store._BLOCK_ELEMS", SMALL_BLOCK_ELEMS)
    K = rng.random((30, 9_000))
    assert len(list(column_blocks(*K.shape))) > 1
    _, _, ref = report(CountMatrix.from_dense(K))
    _, _, rep = report(CountMatrix.from_dense(K * scale))
    _assert_reports_close(rep, ref, rtol=1e-12)


def test_tiny_mass_column_keeps_contribution_and_max(rng, monkeypatch):
    # One column holds a single 1e-200 entry: its relative mass is about
    # 1e-205, and its projections are among the largest of the cloud.
    monkeypatch.setattr("wideca.store._BLOCK_ELEMS", SMALL_BLOCK_ELEMS)
    K = rng.random((30, 9_000))
    j = 4_321
    K[:, j] = 0.0
    K[7, j] = 1e-200
    fm, fd, rep = report(CountMatrix.from_dense(K))
    G = column_projections(fm, fd)
    fj = fm.col_masses[j]
    assert 0 < fj < 1e-200
    expected = fj * (1.0 + float((G[:, j] ** 2).sum()))
    assert rep.per_column_absolute[j] == pytest.approx(expected, rel=1e-12)
    top = float(np.abs(G).max())
    assert float(np.abs(G[:, j]).max()) == top > 1.0
    assert abs(rep.max_proj_cols - top) <= 4 * np.spacing(top)


@pytest.mark.parametrize("sparse", [False, True])
def test_zero_mass_columns_raise_no_warning(rng, monkeypatch, sparse):
    import warnings
    monkeypatch.setattr("wideca.store._BLOCK_ELEMS", SMALL_BLOCK_ELEMS)
    K = np.where(rng.random((30, 9_000)) < 0.3, rng.random((30, 9_000)), 0.0)
    K[:, [0, 2_500, 8_999]] = 0.0
    K[3] = 0.0  # and a zero-mass row
    m = CountMatrix.from_triplets(30, 9_000, *np.nonzero(K),
                                  K[np.nonzero(K)]) if sparse \
        else CountMatrix.from_dense(K)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fm, fd, rep = report(m)
    np.testing.assert_array_equal(rep.excluded_cols, [0, 2_500, 8_999])
    assert (rep.per_column_absolute[rep.excluded_cols] == 0.0).all()
    assert (rep.per_column_relative[rep.excluded_cols] == 0.0).all()
    assert np.isfinite(rep.per_column_absolute).all()
    assert np.isfinite(rep.per_column_relative).all()


def test_sparse_and_dense_storage_agree(rng, monkeypatch):
    monkeypatch.setattr("wideca.store._BLOCK_ELEMS", SMALL_BLOCK_ELEMS)
    K = np.where(rng.random((30, 9_000)) < 0.2, rng.random((30, 9_000)), 0.0)
    K[:, [17, 6_000]] = 0.0
    coo = np.nonzero(K)
    _, _, dense = report(CountMatrix.from_dense(K))
    _, _, sparse = report(
        CountMatrix.from_triplets(30, 9_000, *coo, K[coo]))
    _assert_reports_close(sparse, dense, rtol=1e-11)


# -- the kernels of the sparse passes -------------------------------------------
# Sparse storage lays the block grid over its columns in fill order, and each
# block takes one kernel per pass: BLAS or pair counts in the W pass, BLAS or
# scipy's sparse product in the projection pass.

def _mixed_fill(rng, n_rows, n_cols, fill):
    """Dense values whose columns draw their entry counts from ``fill``, a
    list of (share of columns, count range); counts of 0 and n_rows make
    empty and full columns."""
    K = np.zeros((n_rows, n_cols))
    shares = np.array([share for share, _ in fill])
    kind = rng.choice(len(fill), size=n_cols, p=shares / shares.sum())
    for j, k in enumerate(kind):
        lo, hi = fill[k][1]
        rows = rng.choice(n_rows, size=rng.integers(lo, hi + 1), replace=False)
        K[rows, j] = rng.integers(1, 5, rows.size)
    K[K.sum(axis=1) == 0, 0] = 1.0  # no zero-mass row
    return K


MIXED_FILLS = {
    # empty, full, one or two entries, about 10 % and about 50 % of the rows
    "mixed": (60, 6_000, [(1, (0, 0)), (1, (60, 60)), (6, (1, 2)),
                          (2, (4, 8)), (2, (25, 35))]),
    # 0.1 % fill, mostly empty columns: every block is light in both passes
    "fill-0.1%": (200, 12_000, [(8, (0, 0)), (1, (1, 3))]),
}


def _sparse_and_dense(rng, kind):
    n_rows, n_cols, fill = MIXED_FILLS[kind]
    K = _mixed_fill(rng, n_rows, n_cols, fill)
    coo = np.nonzero(K)
    return (CountMatrix.from_triplets(n_rows, n_cols, *coo, K[coo]),
            CountMatrix.from_dense(K))


@pytest.mark.parametrize("kind", list(MIXED_FILLS))
def test_sparse_kernels_agree_with_dense_storage(rng, monkeypatch, kind):
    """On a shrunk grid, with scipy's product taken once any saving pays
    for its import, each sparse pass takes both of its kernels on mixed
    fill (only the light ones at 0.1 %); eigenvalues match dense storage to
    1e-12, report fields to 1e-11, and 1, 2 and 3 workers give the same
    bits."""
    import wideca.engine as engine
    from wideca.store import column_blocks
    monkeypatch.setattr("wideca.store._BLOCK_ELEMS", SMALL_BLOCK_ELEMS)
    monkeypatch.setattr(engine, "_SCIPY_IMPORT_MADDS", 1)
    ms, md = _sparse_and_dense(rng, kind)
    assert len(list(column_blocks(ms.n_rows, ms.n_cols))) >= 3
    taken = {"gram": set(), "projection": set()}

    def spy(name, rule):
        def spied(counts, n_rows):
            dense = rule(counts, n_rows)
            taken[name].add(dense)
            return dense
        return spied
    monkeypatch.setattr(engine, "_dense_gram", spy("gram", engine._dense_gram))
    monkeypatch.setattr(engine, "_dense_projection",
                        spy("projection", engine._dense_projection))
    _, fd_d, ref = wideca.analyze(md)
    assert taken == {"gram": set(), "projection": set()}  # dense storage
    outputs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            _, fd, rep = wideca.analyze(ms, workers=workers)
            outputs.append([fd.eigenvalues.tobytes(), fd.row_projections.tobytes(),
                            rep.to_csv_row()]
                           + [getattr(rep, name).tobytes() for name in REPORT_ARRAYS])
    finally:
        sys.setswitchinterval(interval)
    both = {True, False} if kind == "mixed" else {False}
    assert taken == {"gram": both, "projection": both}
    assert ms._sparse is not None  # the light blocks took scipy's product
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    np.testing.assert_allclose(fd.eigenvalues, fd_d.eigenvalues, rtol=1e-12,
                               atol=0)
    for name in REPORT_FIELDS:
        assert getattr(rep, name) == pytest.approx(getattr(ref, name),
                                                   rel=1e-11, abs=0), name


def test_repeated_eigenvalue_storage_agreement(rng):
    """Ten rows whose entries sit only in their own single-entry columns
    make eigenvalue 1 repeat ten times beyond the trivial axis. ``eigh``
    may return any basis of that eigenspace, so per-axis outputs such as
    ``max_proj_cols`` may differ between storage forms; the eigenvalues and
    each column's total over the axes, ``per_column_absolute``, do not."""
    K = np.zeros((30, 1_550))
    K[:20, :1_500] = np.where(rng.random((20, 1_500)) < 0.1,
                              rng.integers(1, 4, (20, 1_500)), 0)
    K[np.repeat(np.arange(20, 30), 5), np.arange(1_500, 1_550)] = \
        rng.integers(1, 4, 50)
    coo = np.nonzero(K)
    _, fd_s, sparse = wideca.analyze(
        CountMatrix.from_triplets(*K.shape, *coo, K[coo]))
    _, fd_d, dense = wideca.analyze(CountMatrix.from_dense(K))
    assert np.count_nonzero(np.abs(fd_d.eigenvalues - 1.0) < 1e-9) == 10
    np.testing.assert_allclose(fd_s.eigenvalues, fd_d.eigenvalues,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(sparse.per_column_absolute,
                               dense.per_column_absolute, rtol=1e-10, atol=0)


@pytest.mark.parametrize("slab_elems", [1 << 18, 64], ids=["default", "tiny"])
def test_pair_gram_is_the_dense_gram(rng, monkeypatch, slab_elems):
    """The pair-count Gram of fill-ordered columns is the lower triangle of
    the dense Gram of the same columns, with zeros above: equal for counts,
    whose sums are exact, and within the two summations' error bound,
    2 (columns) eps relative, once scaled. A tiny pair buffer flushes often
    and grows for a full column, in that call only: a scratch that earlier
    calls grew gives the bits of a fresh one."""
    from wideca.engine import _pair_gram
    from wideca.store import _Scratch
    monkeypatch.setattr("wideca.engine._SLAB_ELEMS", slab_elems)
    ms, md = _sparse_and_dense(rng, "mixed")
    _, by_fill = ms._fill_order()
    scale = rng.random(ms.n_rows) + 0.5
    shared = _Scratch()
    for cols in (by_fill[:40], by_fill[:1_500], by_fill[-400:], by_fill[::7]):
        rows, values, counts = ms._entries(cols)
        for s, rtol in ((np.ones(ms.n_rows), 0.0),
                        (scale, 2 * cols.size * np.finfo(float).eps)):
            gram = _pair_gram(rows, values * s[rows], counts, ms.n_rows,
                              _Scratch())
            assert _pair_gram(rows, values * s[rows], counts, ms.n_rows,
                              shared).tobytes() == gram.tobytes()
            B = md.dense[:, cols] * s[:, None]
            assert (np.triu(gram, 1) == 0).all()
            np.testing.assert_allclose(gram, np.tril(B @ B.T), rtol=rtol,
                                       atol=0)


def test_slabs_are_the_dense_columns(rng, monkeypatch):
    """A sparse block comes from ``_slabs`` as slabs of at most
    ``_SLAB_ELEMS`` cells, in order, each with the bits of the dense
    columns it covers; a dense block is one slab, a view of its storage."""
    from wideca.engine import _slabs
    from wideca.store import _Scratch
    monkeypatch.setattr("wideca.engine._SLAB_ELEMS", 600)  # 10 columns
    ms, md = _sparse_and_dense(rng, "mixed")
    K = md.dense
    _, by_fill = ms._fill_order()
    scratch = _Scratch()
    for cols in (by_fill[:95], by_fill[-7:], by_fill[::-3][:33]):
        seen = 0
        for s0, c, slab in _slabs(ms, cols, scratch):
            assert s0 == seen and 1 <= c.size <= 10
            assert c.tolist() == cols[s0:s0 + c.size].tolist()
            assert slab.tobytes() == K[:, c].tobytes()
            seen += c.size
        assert seen == cols.size
    (s0, c, slab), = _slabs(md, slice(5, 1_500), scratch)
    assert s0 == 0 and c == slice(5, 1_500)
    assert np.shares_memory(slab, K) and (slab == K[:, 5:1_500]).all()


def test_sparse_passes_read_storage_only_through_the_reader(rng, monkeypatch):
    """With scipy's product off, ``decompose`` and ``concentration_report``
    of sparse storage read it through ``CountMatrix._entries`` and
    ``_fill_order`` alone: once the matrix is validated, its CSC arrays'
    accessor may raise and no output bit changes."""
    import wideca.engine as engine
    monkeypatch.setattr("wideca.store._BLOCK_ELEMS", SMALL_BLOCK_ELEMS)
    monkeypatch.setattr(engine, "_scipy_pays", lambda *args: False)
    ms, _ = _sparse_and_dense(rng, "mixed")
    fm = build_frequency_model(ms)
    fd = decompose(fm, workers=2)
    ref = concentration_report(fm, fd, workers=2)

    def blocked(self):
        raise AssertionError("a pass read the CSC arrays")
    monkeypatch.setattr(CountMatrix, "csc", property(blocked))
    got = decompose(fm, workers=2)
    rep = concentration_report(fm, got, workers=2)
    for name in ("eigenvalues", "row_projections", "basis"):
        assert getattr(got, name).tobytes() == getattr(fd, name).tobytes()
    assert rep.to_dict() == ref.to_dict()
    for name in REPORT_ARRAYS:
        assert getattr(rep, name).tobytes() == getattr(ref, name).tobytes()


@pytest.mark.parametrize("rerun", [False, True], ids=["eigenvalues", "rerun"])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_model_computes_scales_and_fill_order_once(rng, monkeypatch, sparse,
                                                   rerun):
    """One analysis sorts sparse columns by fill once and takes the sums
    for its scales once, in ``build_frequency_model``: ``decompose`` and
    every report pass, the I_a rerun included, read the model's."""
    import wideca.engine as engine
    monkeypatch.setattr("wideca.store._BLOCK_ELEMS", SMALL_BLOCK_ELEMS)
    if rerun:  # no gap passes the check
        monkeypatch.setattr("wideca.contributions._EIG_INERTIA_TOL", -1.0)
    ms, md = _sparse_and_dense(rng, "mixed")
    calls = {"_fill_order": 0, "row_sums": 0, "column_sums": 0}

    def spy(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted
    for name in ("_fill_order", "row_sums"):
        monkeypatch.setattr(CountMatrix, name,
                            spy(name, getattr(CountMatrix, name)))
    monkeypatch.setattr(engine, "column_sums",
                        spy("column_sums", engine.column_sums))
    rep = wideca.analyze(ms if sparse else md, workers=2).report
    assert rep.relative_denominator == \
        ("axis_inertia" if rerun else "eigenvalues")
    assert calls == {"_fill_order": int(sparse), "row_sums": 1,
                     "column_sums": 1}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("include_trivial", [True, False])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_analyze_is_the_three_stages_bit_for_bit(rng, monkeypatch, sparse,
                                                 include_trivial, workers):
    monkeypatch.setattr("wideca.store._BLOCK_ELEMS", SMALL_BLOCK_ELEMS)
    K = np.where(rng.random((30, 9_000)) < 0.2, rng.random((30, 9_000)), 0.0)
    coo = np.nonzero(K)
    m = CountMatrix.from_triplets(30, 9_000, *coo, K[coo]) if sparse \
        else CountMatrix.from_dense(K)
    fm = build_frequency_model(m)
    fd = decompose(fm, workers=workers)
    ref = concentration_report(fm, fd, workers, include_trivial=include_trivial)
    got = wideca.analyze(m, include_trivial, workers)
    assert got.model.matrix is m
    assert got.report.nu == fd.n_nontrivial + include_trivial
    for name in ("eigenvalues", "row_projections", "basis"):
        assert getattr(got.decomposition, name).tobytes() == \
            getattr(fd, name).tobytes(), name
    assert got.report.to_dict() == ref.to_dict()
    assert got.report.inertia_gap == ref.inertia_gap
    for name in REPORT_ARRAYS:
        assert getattr(got.report, name).tobytes() == \
            getattr(ref, name).tobytes(), name


# -- relative denominators ------------------------------------------------------
# The report divides by the eigenvalues when max_a |lambda_a / I_a - 1| is
# at most 1e-12, and by the empirical axis inertias I_a otherwise.

def _embedding(n_cols):
    from wideca import embed_signal, gen_randomwalk_signal
    sig = gen_randomwalk_signal(95_011, 6800.0, seed=1, p_repeat=0.9)
    return embed_signal(sig, 86, 1000, n_cols)


def test_relative_fast_path_within_gap_of_two_pass():
    from wideca import gen_uniform
    fm, fd, rep = report(gen_uniform(86, 10_000, seed=1))
    assert rep.relative_denominator == "eigenvalues"
    assert 0.0 <= rep.inertia_gap <= 1e-12
    rel, inertia = two_pass_relative(fm, fd)
    assert rep.axis_column_inertia.tobytes() == inertia.tobytes()
    live = rel[fm.col_masses > 0]
    for name, want in (("rel_mean", live.mean()),
                       ("rel_sd", live.std(ddof=1)),
                       ("rel_median", np.median(live))):
        assert getattr(rep, name) == pytest.approx(want, rel=1e-12, abs=0)
    np.testing.assert_allclose(rep.per_column_relative, rel, rtol=1e-10,
                               atol=0)
    # every term is scaled by I_a / lambda_a, so the whole sum is within
    # the gap, up to the rounding of the two sums
    err = np.abs(rep.per_column_relative - rel)
    assert (err <= rep.inertia_gap * rel + 4 * np.spacing(rel)).all()


def test_relative_fallback_bit_identical_to_two_pass():
    fm, fd, rep = report(_embedding(100))
    assert rep.relative_denominator == "axis_inertia"
    assert rep.inertia_gap > 1e-12
    rel, inertia = two_pass_relative(fm, fd)
    assert rep.axis_column_inertia.tobytes() == inertia.tobytes()
    assert rep.per_column_relative.tobytes() == rel.tobytes()


def test_one_pass_changes_only_relative_contributions(monkeypatch):
    # With no gap limit the 86 x 100 embedding takes the single pass; the
    # default report reruns the pass, which rewrites only the relative
    # contributions
    import dataclasses
    fm, fd, rerun = report(_embedding(100))
    assert rerun.relative_denominator == "axis_inertia"
    monkeypatch.setattr("wideca.contributions._EIG_INERTIA_TOL", np.inf)
    one = concentration_report(fm, fd)
    assert one.relative_denominator == "eigenvalues"
    for name in ("per_column_absolute", "axis_column_inertia",
                 "per_row_absolute", "per_row_relative"):
        assert getattr(one, name).tobytes() == \
            getattr(rerun, name).tobytes(), name
    for field in dataclasses.fields(one):
        if not isinstance(getattr(one, field.name), np.ndarray) \
                and not field.name.startswith("rel_"):
            assert getattr(one, field.name) == getattr(rerun, field.name), \
                field.name
    assert one.per_column_relative.tobytes() != \
        rerun.per_column_relative.tobytes()


def test_relative_denominator_derived_from_gap():
    import dataclasses
    _, _, rep = report(K0)
    assert "relative_denominator" not in \
        {f.name for f in dataclasses.fields(rep)}
    for gap, want in ((0.0, "eigenvalues"), (1e-12, "eigenvalues"),
                      (np.nextafter(1e-12, 1.0), "axis_inertia"),
                      (np.inf, "axis_inertia"), (np.nan, "axis_inertia")):
        assert dataclasses.replace(rep, inertia_gap=gap) \
            .relative_denominator == want, gap


@pytest.mark.parametrize("kind", ["uniform", "embedding"])
def test_relative_denominator_workers_bit_identical(monkeypatch, kind):
    from wideca import gen_uniform
    from wideca.store import column_blocks
    monkeypatch.setattr("wideca.store._BLOCK_ELEMS", SMALL_BLOCK_ELEMS)
    m = gen_uniform(86, 10_000, seed=1) if kind == "uniform" \
        else _embedding(10_000)
    assert len(list(column_blocks(m.n_rows, m.n_cols))) > 1
    fm, fd = analyze(m)
    ref = concentration_report(fm, fd, workers=1)
    assert ref.relative_denominator == \
        ("eigenvalues" if kind == "uniform" else "axis_inertia")
    for workers in (2, 3):
        rep = concentration_report(fm, fd, workers=workers)
        assert rep.relative_denominator == ref.relative_denominator
        assert rep.inertia_gap == ref.inertia_gap
        for name in REPORT_ARRAYS:
            assert getattr(rep, name).tobytes() == \
                getattr(ref, name).tobytes(), name


def test_relative_denominator_without_nontrivial_axis():
    import warnings
    K = np.vstack([np.array([1.0, 0, 2, 3])] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fm, fd, rep = report(K)
    assert fd.n_nontrivial == 0
    assert rep.inertia_gap == 0.0
    assert rep.relative_denominator == "eigenvalues"
    np.testing.assert_array_equal(rep.per_column_relative, fm.col_masses)


@pytest.mark.parametrize("kind", ["uniform", "embedding"])
def test_relative_denominator_zero_mass_columns(kind):
    import warnings
    from wideca import gen_uniform
    m = gen_uniform(86, 100, seed=1) if kind == "uniform" else _embedding(100)
    K = m.to_dense()
    K[:, [0, 57]] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fm, fd, rep = report(K)
    assert rep.relative_denominator == \
        ("eigenvalues" if kind == "uniform" else "axis_inertia")
    assert (rep.per_column_relative[[0, 57]] == 0.0).all()
    assert rep.rel_mean == pytest.approx((fd.n_nontrivial + 1) / 98,
                                         abs=1e-10)


def test_zero_axis_inertia_falls_back_without_warning(rng):
    # an axis no column projects onto has I_a = 0: the gap is infinite and
    # the report divides by the axis inertias, giving that axis nothing
    import dataclasses
    import warnings
    fm, fd = analyze(rng.random((6, 30)))
    fd = dataclasses.replace(
        fd, basis=np.column_stack([fd.basis, np.zeros(6)]),
        eigenvalues=np.append(fd.eigenvalues, fd.eigenvalues[-1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = concentration_report(fm, fd)
    assert rep.axis_column_inertia[-1] == 0.0
    assert rep.inertia_gap == np.inf
    assert rep.relative_denominator == "axis_inertia"
    rel, _ = two_pass_relative(fm, fd)
    assert rep.per_column_relative.tobytes() == rel.tobytes()
