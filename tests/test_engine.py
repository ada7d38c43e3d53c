import numpy as np
import pytest
from conftest import (K0, K0_CHI2_PER_COLUMN, K0_EIGENVALUES, chi2_distances,
                      column_projections, random_count_matrix, svd_oracle)

from wideca import (CountMatrix, ValidationError, build_frequency_model,
                    concentration_report, decompose)


def analyze(K, include_trivial=True, workers=1):
    fm = build_frequency_model(CountMatrix.from_dense(K))
    fd = decompose(fm, include_trivial=include_trivial, workers=workers)
    return fm, fd


# -- frequency model ----------------------------------------------------------

def test_frequency_model_uniform_2x2():
    fm = build_frequency_model(CountMatrix.from_dense([[1, 1], [1, 1]]))
    np.testing.assert_allclose(fm.row_masses, [0.5, 0.5])
    np.testing.assert_allclose(fm.col_masses, [0.5, 0.5])
    assert fm.grand_total == 4.0


def test_frequency_model_diagonal():
    fm = build_frequency_model(CountMatrix.from_dense([[2, 0], [0, 2]]))
    np.testing.assert_allclose(fm.row_masses, [0.5, 0.5])
    np.testing.assert_allclose(fm.col_masses, [0.5, 0.5])


def test_frequency_model_k0_masses():
    # oracle: independent summation in plain Python
    k = sum(sum(row) for row in K0.tolist())
    rows = [sum(row) / k for row in K0.tolist()]
    cols = [sum(K0[:, j]) / k for j in range(4)]
    fm = build_frequency_model(CountMatrix.from_dense(K0))
    np.testing.assert_allclose(fm.row_masses, rows, rtol=0, atol=1e-15)
    np.testing.assert_allclose(fm.col_masses, cols, rtol=0, atol=1e-15)
    assert fm.grand_total == 12.0


def test_masses_sum_to_one(rng):
    for kind in ("uniform", "counts", "boolean", "sparse"):
        fm = build_frequency_model(random_count_matrix(rng, 11, 37, kind))
        assert abs(fm.row_masses.sum() - 1.0) < 1e-12
        assert abs(fm.col_masses.sum() - 1.0) < 1e-12
        f_dense = fm.matrix.to_dense() / fm.grand_total
        assert (f_dense <= np.minimum.outer(fm.row_masses, fm.col_masses)
                + 1e-12).all()


def test_zero_column_recorded():
    fm = build_frequency_model(CountMatrix.from_dense([[1, 0, 2], [1, 0, 1]]))
    np.testing.assert_array_equal(fm.excluded_cols, [1])
    assert fm.n_cols_effective == 2


def test_mass_scales_zero_at_zero_mass_and_exact_elsewhere(rng):
    # whole counts keep dense and sparse sums exact, so both storages give
    # the same masses and the same scales
    K = rng.integers(0, 4, (9, 40)).astype(np.float64)
    K[[2, 7], :] = 0.0
    K[:, [0, 13, 39]] = 0.0
    rows, cols = np.nonzero(K)
    dense = build_frequency_model(CountMatrix.from_dense(K))
    sparse = build_frequency_model(CountMatrix.from_triplets(
        9, 40, rows, cols, K[rows, cols]))
    assert sparse.matrix.is_sparse
    for fm in (dense, sparse):
        for scale, mass in ((fm.row_scale, fm.row_masses),
                            (fm.col_scale, fm.col_masses)):
            zero = mass == 0.0
            assert zero.sum() in (2, 3)
            assert (scale[zero] == 0.0).all()
            assert scale[~zero].tobytes() == \
                (1.0 / np.sqrt(mass[~zero])).tobytes()
    assert dense.row_scale.tobytes() == sparse.row_scale.tobytes()
    assert dense.col_scale.tobytes() == sparse.col_scale.tobytes()


# -- profiles ------------------------------------------------------------------
# A profile's chi-squared distance to the centroid is its absolute
# contribution over its mass, minus the trivial axis' 1.

def test_profiles_uniform():
    # every row and column profile is the centroid
    fm, fd = analyze(np.ones((2, 2)))
    rep = concentration_report(fm, fd)
    np.testing.assert_allclose(chi2_distances(fm, rep), 0.0, atol=1e-15)
    np.testing.assert_allclose(rep.per_row_absolute / fm.row_masses - 1.0, 0.0,
                               atol=1e-15)


def test_profile_k0_column0():
    # profile (2/3, 1/3, 0) against row masses (1/3, 1/3, 1/3), by hand
    fm, fd = analyze(K0)
    chi2 = chi2_distances(fm, concentration_report(fm, fd))
    by_hand = sum((p - 1 / 3) ** 2 / (1 / 3) for p in (2 / 3, 1 / 3, 0.0))
    assert by_hand == pytest.approx(K0_CHI2_PER_COLUMN, rel=1e-15)
    assert chi2[0] == pytest.approx(by_hand, abs=1e-12)


def test_profiles_sum_to_one(rng):
    # profiles f_ij / f_j and f_ij / f_i of sparse storage sum to 1 under
    # the model's masses
    fm = build_frequency_model(random_count_matrix(rng, 9, 21, "sparse"))
    F = fm.matrix.to_dense() / fm.grand_total
    np.testing.assert_allclose((F / fm.col_masses).sum(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose((F / fm.row_masses[:, None]).sum(axis=1), 1.0,
                               atol=1e-12)


# -- decomposition -------------------------------------------------------------

def test_uniform_matrix_only_trivial_axis():
    _, fd = analyze(np.ones((2, 2)))
    assert fd.nu == 1
    assert fd.eigenvalues[0] == 1.0
    np.testing.assert_allclose(fd.row_projections[:, 0], 1.0)


def test_perfect_association():
    # [[2,0],[0,2]]: one non-trivial axis with eigenvalue 1 (hand oracle)
    _, fd = analyze(np.array([[2.0, 0], [0, 2]]))
    assert fd.nu == 2
    np.testing.assert_allclose(fd.eigenvalues, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(fd.row_projections[:, 1]), [1.0, 1.0],
                               atol=1e-10)
    assert fd.row_projections[0, 1] > 0  # sign convention


def test_k0_eigenvalues_match_frozen_oracle():
    _, fd = analyze(K0)
    np.testing.assert_allclose(fd.eigenvalues, [1.0, *K0_EIGENVALUES],
                               atol=1e-12)


def test_k0_projections_satisfy_axis_inertia():
    # lambda_a = sum_j f_j G_a(j)^2 to 1e-10 on the frozen example
    fm, fd = analyze(K0)
    G = column_projections(fm, fd)
    lam_hat = (G * G) @ fm.col_masses
    np.testing.assert_allclose(lam_hat, fd.eigenvalues[1:], atol=1e-10)


def test_trivial_axis_projections_are_one(rng):
    for kind in ("uniform", "boolean"):
        fm = build_frequency_model(random_count_matrix(rng, 10, 30, kind))
        fd = decompose(fm)
        np.testing.assert_allclose(fd.row_projections[:, 0], 1.0, atol=1e-10)
        assert abs(fd.eigenvalues[0] - 1.0) < 1e-10


def test_exclude_trivial_flag(rng):
    fm = build_frequency_model(random_count_matrix(rng, 6, 12, "uniform"))
    with_t = decompose(fm, include_trivial=True)
    without = decompose(fm, include_trivial=False)
    assert with_t.nu == without.nu + 1
    np.testing.assert_allclose(with_t.eigenvalues[1:], without.eigenvalues,
                               atol=0)


def test_eigenvalues_descending_in_unit_interval(rng):
    for kind in ("uniform", "counts", "boolean", "sparse"):
        fm = build_frequency_model(random_count_matrix(rng, 12, 25, kind))
        lam = decompose(fm).eigenvalues
        assert (np.diff(lam) <= 1e-12).all()
        assert lam.min() >= 0.0 and lam.max() <= 1.0 + 1e-10


def test_weighted_orthogonality(rng):
    fm = build_frequency_model(random_count_matrix(rng, 10, 40, "uniform"))
    fd = decompose(fm)
    F = fd.row_projections
    gram = (F * fm.row_masses[:, None]).T @ F
    np.testing.assert_allclose(gram, np.diag(fd.eigenvalues), atol=1e-8)


def test_uniform_86x100_has_full_nu():
    rng = np.random.Generator(np.random.PCG64(5))
    _, fd = analyze(rng.random((86, 100)))
    assert fd.nu == 86


def test_rank_capped_by_columns():
    rng = np.random.Generator(np.random.PCG64(6))
    _, fd = analyze(rng.random((10, 4)))
    assert fd.nu <= 4


def test_oracle_equivalence_small(rng):
    for trial in range(5):
        K = rng.random((7 + trial, 13)) + 0.05
        lam_o, F_o, G_o = svd_oracle(K)
        fm, fd = analyze(K)
        n = fd.nu - 1
        np.testing.assert_allclose(fd.eigenvalues[1:], lam_o[:n], atol=1e-11)
        np.testing.assert_allclose(fd.row_projections[:, 1:], F_o[:, :n],
                                   atol=1e-9)
        G = column_projections(fm, fd)
        np.testing.assert_allclose(G, G_o[:n], atol=1e-9)


def test_transition_duality(rng):
    # F_a(i) = (1/sqrt(lam_a)) sum_j (f_ij/f_i) G_a(j) for non-trivial axes
    K = rng.random((9, 17)) + 0.01
    fm, fd = analyze(K)
    G = column_projections(fm, fd)
    prof = (K / K.sum(axis=1)[:, None])
    lam = fd.eigenvalues[1:]
    F_back = (prof @ G.T) / np.sqrt(lam)[None, :]
    np.testing.assert_allclose(F_back, fd.row_projections[:, 1:], atol=1e-8)


def test_column_projection_orthogonality(rng):
    K = rng.random((8, 30)) + 0.01
    fm, fd = analyze(K)
    G = column_projections(fm, fd)
    fj = fm.col_masses
    gram = (G * fj[None, :]) @ G.T
    np.testing.assert_allclose(gram, np.diag(fd.eigenvalues[1:]), atol=1e-8)


def test_trivial_column_projection_is_one(rng):
    # transition formula on the trivial axis: G_0(j) = sum_i (f_ij/f_j) F_0(i)
    m = random_count_matrix(rng, 7, 19, "counts")
    fm = build_frequency_model(m)
    fd = decompose(fm)
    K = m.to_dense()
    G0 = (K / K.sum(axis=0)).T @ fd.row_projections[:, 0]
    np.testing.assert_allclose(G0, 1.0, atol=1e-10)


def test_zero_mass_column_skipped():
    K = np.array([[1.0, 0, 2], [3, 0, 1]])
    fm, fd = analyze(K)
    assert (column_projections(fm, fd)[:, 1] == 0.0).all()
    rep = concentration_report(fm, fd)
    np.testing.assert_array_equal(rep.excluded_cols, [1])
    assert rep.n_cols_effective == 2


def test_sparse_dense_same_decomposition(rng):
    dense = np.where(rng.random((9, 33)) < 0.4, 1.0, 0.0)
    dense[:, dense.sum(axis=0) == 0] = 1.0
    dense[dense.sum(axis=1) == 0, :] = 1.0
    md = CountMatrix.from_dense(dense)
    coo = np.nonzero(dense)
    ms = CountMatrix.from_triplets(9, 33, coo[0], coo[1], dense[coo])
    fd_d = decompose(build_frequency_model(md))
    fd_s = decompose(build_frequency_model(ms))
    np.testing.assert_allclose(fd_s.eigenvalues, fd_d.eigenvalues, atol=1e-12)
    np.testing.assert_allclose(fd_s.row_projections, fd_d.row_projections,
                               atol=1e-9)


def test_worker_count_does_not_change_bits(rng):
    K = rng.random((13, 3000))
    fm = build_frequency_model(CountMatrix.from_dense(K))
    ref = decompose(fm, workers=1)
    for workers in (2, 4):
        fd = decompose(fm, workers=workers)
        assert (fd.eigenvalues == ref.eigenvalues).all()
        assert (fd.row_projections == ref.row_projections).all()
        G_w = column_projections(fm, fd, workers)
        assert (column_projections(fm, ref) == G_w).all()


def test_row_limit_rejected():
    from wideca.engine import MAX_DUAL_ROWS
    fm = build_frequency_model(CountMatrix.from_dense(np.ones((2, 2))))
    fm.matrix.n_rows = MAX_DUAL_ROWS + 1  # simulate, avoids a huge allocation
    with pytest.raises(ValidationError, match="dual-space"):
        decompose(fm)
