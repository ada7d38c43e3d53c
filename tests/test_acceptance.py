"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Stochastic criteria run on frozen seed sets; the tolerances quoted in each
test are pinned here, not tuned at runtime. Reference statistics for the
three evaluation settings appear as frozen constants next to the criterion
that checks them.
"""

import time

import numpy as np
from conftest import column_projections, random_count_matrix, svd_oracle

from wideca import (CountMatrix, build_frequency_model,
                    concentration_report, decompose, fit_exponent,
                    gen_powerlaw_boolean, gen_randomwalk_signal, gen_uniform,
                    embed_signal, column_sums)
from wideca.cli import main
from wideca.powerlaw import ccdf
from wideca.generators import ParametricMarginals, rng_from_seed
from wideca.tables import (EMBED_STRIDE, EMBED_WINDOWS, SIGNAL_LEN,
                           SIGNAL_START)

# Reference concentration statistics for 86-row uniform clouds
# (abs_mean, abs_sd, abs_median) by dimensionality:
UNIFORM_REF = {
    100: (0.01322144, 0.0005623589, 0.01325343),
    1000: (0.001331763, 5.440168e-05, 0.001333466),
    10_000: (0.0001332053, 5.279421e-06, 0.0001332981),
    100_000: (1.330499e-05, 5.269165e-07, 1.332146e-05),
    1_000_000: (1.330706e-06, 5.278487e-08, 1.332186e-06),
}

# Reference absolute-contribution mean for the 425-row power-law boolean
# setting at 1052 columns:
POWERLAW_REF_ABS_MEAN = 0.01161321


def _elapsed_guard(t0: float, budget: float, label: str) -> None:
    elapsed = time.perf_counter() - t0
    print(f"  [{label}: {elapsed:.1f}s of {budget:.0f}s budget]")
    assert elapsed < budget, f"{label} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_exact_identity_suite():
    """50 random matrices: inertia identities to 1e-8, mean relative
    contribution equal to nu/|J| to 1e-10, in under 10 seconds."""
    t0 = time.perf_counter()
    rng = rng_from_seed(101)
    kinds = ("uniform", "counts", "boolean", "sparse")
    for trial in range(50):
        n_rows = int(rng.integers(3, 41))
        n_cols = int(rng.integers(max(4, n_rows // 2), 201))
        m = random_count_matrix(rng, n_rows, n_cols, kinds[trial % 4])
        fm = build_frequency_model(m)
        fd = decompose(fm)
        for include_trivial in (True, False):
            rep = concentration_report(fm, fd, include_trivial=include_trivial)
            lam_sum = float(include_trivial) + fd.eigenvalues.sum()
            nu = fd.n_nontrivial + include_trivial
            assert abs(rep.per_column_absolute.sum() - lam_sum) < 1e-8
            assert abs(rep.per_row_absolute.sum() - lam_sum) < 1e-8
            assert abs(rep.rel_mean - nu / rep.n_cols_effective) < 1e-10
    _elapsed_guard(t0, 10.0, "criterion 1")
    print("PASS criterion 1: identity suite on 50 random matrices")


def test_criterion_2_oracle_equivalence():
    """Dual-route eigenvalues and projections match a dense SVD of the
    centered kernel to 1e-9 on 20 random matrices up to 20x30, under 5 s."""
    t0 = time.perf_counter()
    rng = rng_from_seed(202)
    for trial in range(20):
        n_rows = int(rng.integers(3, 21))
        n_cols = int(rng.integers(4, 31))
        K = rng.random((n_rows, n_cols)) + 0.05
        lam_o, F_o, G_o = svd_oracle(K)
        fm = build_frequency_model(CountMatrix.from_dense(K))
        fd = decompose(fm)
        n = fd.n_nontrivial
        assert np.abs(fd.eigenvalues - lam_o[:n]).max() < 1e-9
        assert np.abs(fd.row_projections - F_o[:, :n]).max() < 1e-9
        G = column_projections(fm, fd)  # the report's kernel, S / sqrt(f_j)
        assert np.abs(G - G_o[:n]).max() < 1e-9
    _elapsed_guard(t0, 5.0, "criterion 2")
    print("PASS criterion 2: oracle equivalence on 20 random matrices")


def test_criterion_3_uniform_cloud_reproduction():
    """86 x d uniform clouds, d in {100, 1000, 10000}, 10 seeds: exact
    rel_mean identity, abs_mean within 10% of the reference, sd and median
    within 25%, monotone concentration per seed; under 60 s."""
    t0 = time.perf_counter()
    seeds = range(1, 11)
    stats = {d: [] for d in (100, 1000, 10_000)}
    max_projs = []
    for d in stats:
        for seed in seeds:
            m = gen_uniform(86, d, seed)
            fm = build_frequency_model(m)
            fd = decompose(fm)
            rep = concentration_report(fm, fd)
            assert abs(rep.rel_mean - 86 / d) < 1e-10
            stats[d].append((rep.abs_mean, rep.abs_sd, rep.abs_median))
            if d == 10_000:
                max_projs.append(rep.max_proj_cols)
    # column-cloud max projection at d = 10^4 sits at the reference scale
    # (0.2799913), within 50% across seeds
    assert abs(float(np.mean(max_projs)) / 0.2799913 - 1) < 0.50
    for d, ref in ((100, UNIFORM_REF[100]), (1000, UNIFORM_REF[1000]),
                   (10_000, UNIFORM_REF[10_000])):
        arr = np.array(stats[d])
        mean_of = arr.mean(axis=0)
        assert abs(mean_of[0] / ref[0] - 1) < 0.10, f"abs_mean at {d}"
        assert abs(mean_of[1] / ref[1] - 1) < 0.25, f"abs_sd at {d}"
        assert abs(mean_of[2] / ref[2] - 1) < 0.25, f"abs_median at {d}"
    for i, seed in enumerate(seeds):
        means = [stats[d][i][0] for d in (100, 1000, 10_000)]
        sds = [stats[d][i][1] for d in (100, 1000, 10_000)]
        assert means[0] > means[1] > means[2], f"mean not decreasing, seed {seed}"
        assert sds[0] > sds[1] > sds[2], f"sd not decreasing, seed {seed}"
        # the mean scales as Theta(1/d): tenfold dims give ratios near 10
        assert 8.0 <= means[0] / means[1] <= 12.0
        assert 8.0 <= means[1] / means[2] <= 12.0
    _elapsed_guard(t0, 60.0, "criterion 3 (desk dims)")
    print("PASS criterion 3: uniform clouds at d in {100, 1000, 10000}")


def test_criterion_3_large_dimension_budget():
    """The 86 x 10^6 analysis completes within 120 s (and the 10^5 case
    stays in the reference bands)."""
    m = gen_uniform(86, 100_000, 1)
    fm = build_frequency_model(m)
    rep = concentration_report(fm, decompose(fm))
    ref = UNIFORM_REF[100_000]
    assert abs(rep.rel_mean - 86 / 100_000) < 1e-10
    assert abs(rep.abs_mean / ref[0] - 1) < 0.10
    assert abs(rep.abs_sd / ref[1] - 1) < 0.25
    assert abs(rep.abs_median / ref[2] - 1) < 0.25

    t0 = time.perf_counter()
    m = gen_uniform(86, 1_000_000, 1)
    gen_s = time.perf_counter() - t0
    assert gen_s < 120.0
    t0 = time.perf_counter()
    fm = build_frequency_model(m)
    rep = concentration_report(fm, decompose(fm))
    ref = UNIFORM_REF[1_000_000]
    assert abs(rep.rel_mean - 86 / 1_000_000) < 1e-10
    assert abs(rep.abs_mean / ref[0] - 1) < 0.10
    assert abs(rep.abs_sd / ref[1] - 1) < 0.25
    assert abs(rep.abs_median / ref[2] - 1) < 0.25
    _elapsed_guard(t0, 120.0, "criterion 3 (86 x 1e6 analysis)")
    print(f"PASS criterion 3 (large): 86x1e6 generated in {gen_s:.1f}s, "
          f"analyzed within budget")


def test_criterion_4_embedding_regime():
    """Quantized random-walk embeddings at d in {100, 1000, 10000}: absolute
    mean within 1% of 1/d, sd at most 1e-5 and decreasing, column projections
    at most 0.01; under 60 s."""
    t0 = time.perf_counter()
    sig = gen_randomwalk_signal(SIGNAL_LEN, SIGNAL_START, seed=1, p_repeat=0.9)
    sds = []
    for d in (100, 1000, 10_000):
        m = embed_signal(sig, EMBED_WINDOWS, EMBED_STRIDE, d)
        fm = build_frequency_model(m)
        rep = concentration_report(fm, decompose(fm))
        assert abs(rep.abs_mean - 1 / d) <= 0.01 / d, f"abs_mean at {d}"
        assert rep.abs_sd <= 1e-5, f"abs_sd at {d}"
        assert rep.max_proj_cols <= 0.01, f"max projection at {d}"
        sds.append(rep.abs_sd)
    assert sds[0] > sds[1] > sds[2], "sd not decreasing in d"
    _elapsed_guard(t0, 60.0, "criterion 4")
    print("PASS criterion 4: random-walk embedding concentration regime")


def test_criterion_5_powerlaw_regime():
    """Power-law boolean matrices, 425 rows, 10 seeds, columns in
    {1052, 10520, 105200}: fitted CCDF exponent within [1.3, 2.0], abs_mean
    scaling ratio within [8, 12] per tenfold columns, seed-mean abs_mean at
    1052 columns within 25% of the reference; under 120 s. Exact reference
    digits depend on empirical marginals that are not shipped, so the check
    is regime-level by design."""
    t0 = time.perf_counter()
    marg = ParametricMarginals()
    dims = (1052, 10_520, 105_200)
    abs_means = {d: [] for d in dims}
    for d in dims:
        for seed in range(1, 11):
            m = gen_powerlaw_boolean(425, d, seed, marginals=marg)
            sums = column_sums(m)
            fit = fit_exponent(sums, x_min=float(marg.body_start),
                               x_max=float(np.percentile(sums, 90.0)))
            assert 1.3 <= fit.alpha <= 2.0, f"alpha {fit.alpha} at {d}, {seed}"
            fm = build_frequency_model(m)
            rep = concentration_report(fm, decompose(fm))
            abs_means[d].append(rep.abs_mean)
    seed_means = {d: float(np.mean(abs_means[d])) for d in dims}
    assert abs(seed_means[1052] / POWERLAW_REF_ABS_MEAN - 1) < 0.25
    for d_small, d_big in ((1052, 10_520), (10_520, 105_200)):
        ratio = seed_means[d_small] / seed_means[d_big]
        assert 8.0 <= ratio <= 12.0, f"scaling ratio {ratio}"
    _elapsed_guard(t0, 120.0, "criterion 5")
    print("PASS criterion 5: power-law boolean concentration and exponents")


def test_criterion_6_estimator_recovery():
    """Discrete power-law samples (density exponents 1.5, 2.0, 2.5; 10^4
    samples): fitted CCDF exponent within 0.15 of (exponent - 1) in at least
    9 of 10 seeds; under 10 s. Fit window: x_min 3, upper cutoff at the
    fan-out onset (fewer than 5 exceedances)."""
    t0 = time.perf_counter()
    for density_exp in (1.5, 2.0, 2.5):
        law = ParametricMarginals(exponent=density_exp, body_start=1,
                                  head_mass=0.0)
        hits = 0
        for seed in range(10):
            vals = law.sample(rng_from_seed(seed), 10_000, 1_000_000)
            xs, fr = ccdf(vals)
            good = xs[fr * vals.size >= 5]
            fit = fit_exponent(vals, x_min=3.0, x_max=float(good.max()))
            hits += abs(fit.alpha - (density_exp - 1.0)) <= 0.15
        assert hits >= 9, f"{hits}/10 at density exponent {density_exp}"
    _elapsed_guard(t0, 10.0, "criterion 6")
    print("PASS criterion 6: CCDF exponent recovery 9/10 seeds or better")


def test_criterion_7_worker_determinism(tmp_path, monkeypatch):
    """Three commands x three worker counts and the default: byte-identical
    numeric payloads (the CSV reports) for the same seed. The default runs
    with BLAS pinned to one thread, so it takes one worker per usable CPU, up
    to two."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    dense = tmp_path / "u.csv"
    tri = tmp_path / "p.tpl"
    assert main(["gen", "uniform", "--rows", "40", "--cols", "3000",
                 "--seed", "11", "-o", str(dense)]) == 0
    assert main(["gen", "powerlaw", "--rows", "200", "--cols", "5000",
                 "--seed", "11", "-o", str(tri)]) == 0

    payloads = {"analyze-dense": [], "analyze-triplet": [], "reproduce": []}
    for workers in ("1", "2", "4", "default"):
        flag = [] if workers == "default" else ["--workers", workers]
        out = tmp_path / f"rd{workers}"
        assert main(["analyze", str(dense), *flag, "-o", str(out)]) == 0
        payloads["analyze-dense"].append((out.with_suffix(".csv")).read_bytes())
        out = tmp_path / f"rt{workers}"
        assert main(["analyze", str(tri), "--format", "triplet",
                     *flag, "-o", str(out)]) == 0
        payloads["analyze-triplet"].append((out.with_suffix(".csv")).read_bytes())
        out = tmp_path / f"rr{workers}.csv"
        assert main(["reproduce", "--table", "1", "--dims", "100,400",
                     "--seeds", "2", *flag, "-o", str(out)]) == 0
        payloads["reproduce"].append(out.read_bytes())
    for label, blobs in payloads.items():
        assert len(set(blobs)) == 1, f"{label} differs by workers"
    print("PASS criterion 7: byte-identical payloads across worker counts")
