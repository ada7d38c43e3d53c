import json
import sys

import numpy as np
import pytest
from conftest import (K0, K0_CHI2_PER_COLUMN, K0_TOTAL_CENTERED_INERTIA,
                      chi2_distances, column_projections, random_count_matrix,
                      svd_oracle, two_pass_relative)

from wideca import (CountMatrix, ValidationError, build_frequency_model,
                    concentration_report, decompose)
from wideca.contributions import REPORT_FIELDS


def analyze(m, include_trivial=True):
    if not isinstance(m, CountMatrix):
        m = CountMatrix.from_dense(m)
    fm = build_frequency_model(m)
    fd = decompose(fm, include_trivial=include_trivial)
    return fm, fd


def report(m, include_trivial=True):
    fm, fd = analyze(m, include_trivial)
    return fm, fd, concentration_report(fm, fd)


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
    assert fd.nu == 1
    np.testing.assert_allclose(rep.per_column_absolute, fm.col_masses,
                               rtol=1e-12)
    assert rep.axis_column_inertia.size == 0


def test_relative_contribution_trivial_axis_is_mass(rng):
    m = random_count_matrix(rng, 6, 14, "counts")
    fm = build_frequency_model(m)
    with_t = concentration_report(fm, decompose(fm, include_trivial=True))
    without = concentration_report(fm, decompose(fm, include_trivial=False))
    np.testing.assert_allclose(
        with_t.per_column_relative - without.per_column_relative,
        fm.col_masses, rtol=1e-12, atol=1e-15)


def test_absolute_contributions_sum_to_inertia(rng):
    m = random_count_matrix(rng, 9, 31, "uniform")
    fm, fd, rep = report(m)
    np.testing.assert_allclose(rep.per_column_absolute,
                               direct_absolute(m.to_dense()), rtol=1e-10)
    assert rep.per_column_absolute.sum() == pytest.approx(fd.eigenvalues.sum(),
                                                          abs=1e-8)


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
            fm, fd = analyze(m, include_trivial)
            rep = concentration_report(fm, fd)
            lam_sum = fd.eigenvalues.sum()
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
                               fd.eigenvalues[1:], atol=1e-8)
    # rho^2(j) = 1 + sum_a G_a^2(j): full-rank case
    rho2 = rep.per_column_absolute / fm.col_masses
    np.testing.assert_allclose(
        rho2, 1.0 + (column_projections(fm, fd) ** 2).sum(axis=0), atol=1e-8)


def test_mean_relative_is_exact_identity(rng):
    for kind in ("uniform", "counts", "boolean", "sparse"):
        m = random_count_matrix(rng, 11, 35, kind)
        fm, fd = analyze(m)
        rep = concentration_report(fm, fd)
        assert rep.rel_mean == pytest.approx(fd.nu / 35, abs=1e-10)


def test_mean_relative_identity_with_zero_columns():
    K = np.array([[1.0, 0, 2, 5, 0],
                  [4.0, 0, 1, 1, 0],
                  [2.0, 0, 2, 3, 0]])
    fm, fd = analyze(K)
    rep = concentration_report(fm, fd)
    assert rep.n_cols_effective == 3
    assert rep.rel_mean == pytest.approx(fd.nu / 3, abs=1e-10)
    np.testing.assert_array_equal(rep.excluded_cols, [1, 4])
    assert rep.per_column_absolute[1] == 0.0


def test_trivial_included_shifts_absolute_by_mass(rng):
    m = random_count_matrix(rng, 7, 18, "uniform")
    fm = build_frequency_model(m)
    with_t = concentration_report(fm, decompose(fm, include_trivial=True))
    without = concentration_report(fm, decompose(fm, include_trivial=False))
    np.testing.assert_allclose(
        with_t.per_column_absolute - without.per_column_absolute,
        fm.col_masses, atol=1e-12)
    assert with_t.nu == without.nu + 1


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


@pytest.mark.parametrize("kind", ["dense", "sparse-powerlaw"])
def test_multi_block_workers_bit_identical(rng, kind):
    from wideca import gen_powerlaw_boolean
    from wideca.store import column_blocks
    if kind == "dense":
        K = rng.random((30, 250_000))
        K[:, [5, 180_000]] = 0.0  # zero-mass columns in two blocks
        m = CountMatrix.from_dense(K)
    else:
        m = gen_powerlaw_boolean(425, 25_000, seed=7)
    assert len(list(column_blocks(m.n_rows, m.n_cols))) >= 3
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
    """With BLAS pinned to one thread the default runs several workers; on a
    grid of several blocks its factors and report equal one worker's, bit
    for bit."""
    from wideca.store import column_blocks, resolve_workers
    monkeypatch.setattr("wideca.store._BLOCK_ELEMS", SMALL_BLOCK_ELEMS)
    monkeypatch.setattr("wideca.store.os.sched_getaffinity",
                        lambda pid: {0, 1})
    for name in ("GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
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
    assert rep.rel_mean == pytest.approx(fd.nu / 98, abs=1e-10)


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
