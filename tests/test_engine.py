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


SUBNORMAL_SUM = ", below the smallest normal float64 2.2250738585072014e-308$"


@pytest.mark.parametrize("K, message", [
    ([[1, 1e-320, 2], [1, 0, 1]], "column 1 sums to 1e-320"),
    ([[1e-320, 1e-320], [1e-320, 1e-320]], "row 0 sums to 2e-320"),
    ([[1, 1, 1], [0, 0, 5e-324]], "row 1 sums to 5e-324"),
])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_subnormal_marginal_rejected(K, message, sparse):
    # The reciprocal of a positive sum below 2.2e-308 overflows and would turn
    # the report to NaN; an exactly zero sum marks an excluded row or column.
    K = np.array(K, dtype=np.float64)
    nz = np.nonzero(K)
    m = CountMatrix.from_triplets(*K.shape, *nz, K[nz]) if sparse \
        else CountMatrix.from_dense(K)
    with pytest.raises(ValidationError, match="^" + message + SUBNORMAL_SUM):
        build_frequency_model(m)


def test_subnormal_entry_in_a_normal_sum_keeps_its_report(rng):
    import warnings
    K = rng.random((5, 40))
    K[2, 7] = 1e-320
    zeroed = K.copy()
    zeroed[2, 7] = 0.0
    reports = []
    for values in (K, zeroed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fm = build_frequency_model(CountMatrix.from_dense(values))
            reports.append(concentration_report(fm, decompose(fm)))
    rep, ref = reports
    assert rep.to_dict() == pytest.approx(ref.to_dict(), rel=1e-12, abs=0)
    np.testing.assert_allclose(rep.per_column_absolute,
                               ref.per_column_absolute, rtol=1e-12, atol=0)


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


@pytest.mark.parametrize("shape, density", [((9, 33), 0.4),
                                            ((300, 10_000), 0.005)],
                         ids=["densified", "sparse-product-multi-block"])
def test_sparse_dense_same_decomposition(rng, shape, density):
    from wideca.engine import _dense_gram
    from wideca.store import column_blocks
    densified = density > 0.1
    dense = np.where(rng.random(shape) < density, 1.0, 0.0)
    if densified:
        dense[:, dense.sum(axis=0) == 0] = 1.0
    # At 0.5 % a fifth of the columns are empty; they stay empty (excluded
    # in both storages), so the sparse W pass takes pair counts.
    dense[dense.sum(axis=1) == 0, :] = 1.0
    md = CountMatrix.from_dense(dense)
    coo = np.nonzero(dense)
    ms = CountMatrix.from_triplets(*shape, coo[0], coo[1], dense[coo])
    blocks = list(column_blocks(*shape))
    assert densified or len(blocks) >= 3
    assert [_dense_gram(np.diff(ms.sparse.indptr[j0:j1 + 1]), shape[0])
            for j0, j1 in blocks] == [densified] * len(blocks)
    fd_d = decompose(build_frequency_model(md))
    fd_s = decompose(build_frequency_model(ms))
    np.testing.assert_allclose(fd_s.eigenvalues, fd_d.eigenvalues, atol=1e-12)
    np.testing.assert_allclose(fd_s.row_projections, fd_d.row_projections,
                               atol=1e-9)


def test_dense_gram_dispatch(rng):
    """A power-law block at the default exponent forms its W Gram matrix
    with BLAS; a 0.5 %-dense block of the same shape takes pair counts."""
    from wideca import gen_powerlaw_boolean
    from wideca.engine import _dense_gram
    from wideca.store import column_blocks
    assert list(column_blocks(425, 2352)) == [(0, 2352)]
    m = gen_powerlaw_boolean(425, 2352, seed=1)
    assert _dense_gram(np.diff(m.sparse.indptr), 425)
    counts = (rng.random((425, 2352)) < 0.005).sum(axis=0)
    assert not _dense_gram(counts, 425)


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


def test_row_limit_rejected(monkeypatch):
    """The rows a machine can analyze are bounded by its memory: W and
    ``eigh`` take 5 n^2 float64 beside the storage and 5 per-column arrays.
    decompose refuses an analysis that does not fit before its W pass."""
    from wideca import engine, store
    fm = build_frequency_model(CountMatrix.from_dense(np.ones((40, 3))))
    need = 8 * (40 * 3 + 5 * 3 + 5 * 40 * 40)
    monkeypatch.setattr(store, "_PHYSICAL_MEMORY", need)
    assert decompose(fm).nu == 1
    monkeypatch.setattr(store, "_PHYSICAL_MEMORY", need - 1)

    def unreachable(*args, **kw):
        raise AssertionError("the W pass ran before the memory check")

    monkeypatch.setattr(engine, "ordered_block_map", unreachable)
    with pytest.raises(ValidationError, match=(
            f"^the analysis of a 40 x 3 matrix needs at least {need:,} "
            f"bytes, more than the {need - 1:,} bytes of physical memory$")):
        decompose(fm)


@pytest.mark.parametrize("workers", [1, 2])
def test_w_pass_peak_within_its_count(monkeypatch, workers):
    """The traced peak of ``decompose`` stays within what ``footprint``
    counts for its analysis, here with the calling thread held on its first
    block until the pool has finished every other block the lookahead
    lets it start: W, the Grams of 2w blocks in flight and a block of
    scratch per thread. The scratch goes before ``eigh``, and a consumed
    Gram before the next block runs."""
    import threading
    import tracemalloc
    from wideca import engine, store
    n_rows, n_cols = 1_000, 5_000  # five blocks of 8 MB
    fm = build_frequency_model(CountMatrix.from_dense(
        np.random.default_rng(1).random((n_rows, n_cols))))
    caller, pool_done = threading.get_ident(), threading.Semaphore(0)
    started = store._LOOKAHEAD_PER_WORKER * workers - 1  # beside block 0
    real = engine.ordered_block_map

    def held(fn, blocks, workers):
        def block(j0, j1):
            gram = fn(j0, j1)
            if threading.get_ident() != caller:
                pool_done.release()
            elif j0 == 0 and workers > 1:
                for _ in range(started):
                    assert pool_done.acquire(timeout=60)
            return gram
        return real(block, blocks, workers)

    monkeypatch.setattr(engine, "ordered_block_map", held)
    tracemalloc.start()
    try:
        decompose(fm, workers=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    count = store.footprint(n_rows, n_cols, workers=workers) \
        - store.footprint(n_rows, n_cols)
    assert peak <= count


def _canonical_signs_loop(U):
    """Reference: the column-by-column sign rule."""
    for a in range(U.shape[1]):
        col = U[:, a]
        big = np.flatnonzero(np.abs(col) > 1e-8 * np.abs(col).max())
        if big.size and col[big[0]] < 0:
            U[:, a] = -col


def test_canonical_signs_match_loop(rng):
    from wideca.engine import _canonical_signs
    U = rng.standard_normal((40, 9))
    U[:, 2] = 0.0                       # all zero: left as it is
    U[:, 3] = -0.0
    U[:3, 4] = [-1e-12, 5e-10, -2e-9]   # leading entries below the 1e-8 cut
    U[3, 4] = -0.5
    U[:5, 5] = [-1e-12, 5e-10, -2e-9, 0.0, 0.7]
    U[:, 6] = np.abs(U[:, 6])
    U[:, 7] = -np.abs(U[:, 7])
    want = U.copy()
    _canonical_signs_loop(want)
    _canonical_signs(U)
    assert U.tobytes() == want.tobytes()
    assert U[3, 4] == 0.5 and U[4, 5] == 0.7
    empty = np.empty((5, 0))
    _canonical_signs(empty)
