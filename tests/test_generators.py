import numpy as np
import pytest

from wideca import (EmpiricalMarginals, ParametricMarginals, SignalSeries,
                    ValidationError, column_sums, embed_signal,
                    gen_powerlaw_boolean, gen_randomwalk_signal, gen_uniform)
from wideca.generators import rng_from_seed
from wideca.powerlaw import fit_exponent


# -- uniform -----------------------------------------------------------------

def test_uniform_shape_and_range():
    m = gen_uniform(86, 100, seed=1)
    assert (m.n_rows, m.n_cols) == (86, 100)
    vals = m.to_dense()
    assert vals.min() >= 0.0 and vals.max() < 1.0


def test_uniform_single_cell():
    m = gen_uniform(1, 1, seed=3)
    assert 0.0 <= m.to_dense()[0, 0] < 1.0


def test_uniform_deterministic():
    a = gen_uniform(5, 9, seed=42).to_dense()
    b = gen_uniform(5, 9, seed=42).to_dense()
    assert (a == b).all()
    c = gen_uniform(5, 9, seed=43).to_dense()
    assert (a != c).any()


def test_uniform_memory_budget():
    with pytest.raises(ValidationError, match="budget"):
        gen_uniform(86, 10_000_000_000, seed=1)


# -- random walk signal --------------------------------------------------------

def test_walk_steps_on_tick_lattice():
    sig = gen_randomwalk_signal(5, start=100.0, seed=7, p_repeat=0.0)
    diffs = np.diff(sig.values)
    assert set(np.round(diffs / 0.5).astype(int)) <= {-1, 1}
    assert sig.length == 5


def test_walk_repeats_dominate_at_high_p():
    sig = gen_randomwalk_signal(20_000, start=100.0, seed=5, p_repeat=0.9)
    diffs = np.diff(sig.values)
    repeat_frac = (diffs == 0.0).mean()
    # binomial oracle: mean 0.9, sd sqrt(0.9*0.1/19999) ~ 0.0021
    assert abs(repeat_frac - 0.9) < 5 * 0.0022
    # run lengths of identical values are geometric-ish: mean 1/(1-p) = 10
    change = np.flatnonzero(diffs != 0.0)
    runs = np.diff(change)
    assert 7.0 < runs.mean() < 13.0


def test_walk_range_matches_reflected_walk_statistics():
    # Brownian-range oracle: E[range] = sqrt(8 N (1-p) / pi) * tick; the
    # observed range across seeds should sit within a factor 3 of it.
    expected = np.sqrt(8 * 95_011 * 0.1 / np.pi) * 0.5
    ok = 0
    for seed in range(10):
        sig = gen_randomwalk_signal(95_011, start=6800.0, seed=seed,
                                    p_repeat=0.9)
        width = sig.values.max() - sig.values.min()
        ok += expected / 3 <= width <= expected * 3
    assert ok >= 9


def test_walk_values_half_integer():
    sig = gen_randomwalk_signal(1000, start=6800.0, seed=2, p_repeat=0.5)
    assert np.allclose(sig.values * 2, np.round(sig.values * 2))
    assert (sig.values > 0).all()


def test_walk_zero_crossing_aborts():
    with pytest.raises(ValidationError, match="crossed zero"):
        gen_randomwalk_signal(10_000, start=1.0, seed=1, p_repeat=0.0)


def test_walk_parameter_validation():
    with pytest.raises(ValidationError):
        gen_randomwalk_signal(10, start=-5.0, seed=1)
    with pytest.raises(ValidationError):
        gen_randomwalk_signal(10, start=10.0, seed=1, p_repeat=1.0)


@pytest.mark.parametrize("name", ["start", "tick"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_walk_rejects_non_finite_start_and_tick(name, value):
    kwargs = {"start": 5.0, "tick": 0.5, name: value}
    with pytest.raises(ValidationError,
                       match=f"^{name} must be finite and positive, got {value}$"):
        gen_randomwalk_signal(10, seed=1, **kwargs)


# -- embedding -------------------------------------------------------------------

def test_embed_hand_example():
    sig = SignalSeries(np.arange(1.0, 21.0))
    m = embed_signal(sig, n_windows=3, stride=5, length=4)
    np.testing.assert_array_equal(m.to_dense(),
                                  [[1, 2, 3, 4], [6, 7, 8, 9],
                                   [11, 12, 13, 14]])


def test_embed_standard_geometry():
    sig = gen_randomwalk_signal(95_011, start=6800.0, seed=1, p_repeat=0.9)
    m = embed_signal(sig, n_windows=86, stride=1000, length=100)
    assert (m.n_rows, m.n_cols) == (86, 100)


def test_embed_too_short_rejected():
    sig = SignalSeries(np.ones(50_000))
    with pytest.raises(ValidationError, match="too short"):
        embed_signal(sig, n_windows=86, stride=1000, length=10_000)


def test_embed_negative_signal_rejected():
    sig = SignalSeries(np.array([1.0, -2.0, 3.0, 4.0]))
    with pytest.raises(ValidationError, match="nonnegative"):
        embed_signal(sig, n_windows=2, stride=1, length=2)


def test_embed_copies_exact_values():
    rng = rng_from_seed(11)
    sig = SignalSeries(rng.random(200) * 10)
    m = embed_signal(sig, n_windows=4, stride=30, length=50)
    dense = m.to_dense()
    for r in range(4):
        assert (dense[r] == sig.values[r * 30: r * 30 + 50]).all()


# -- power-law boolean matrices ---------------------------------------------------

def test_boolean_forced_sums():
    m = gen_powerlaw_boolean(4, 3, seed=1,
                             marginals=EmpiricalMarginals([2, 2, 2]))
    assert (column_sums(m) == 2.0).all()
    assert set(np.unique(m.to_dense())) <= {0.0, 1.0}


def test_boolean_column_sums_equal_drawn_sums():
    marg = ParametricMarginals()
    rng = rng_from_seed(17)
    drawn = marg.sample(rng, 300, 425)
    m = gen_powerlaw_boolean(425, 300, seed=17, marginals=marg)
    np.testing.assert_array_equal(column_sums(m), drawn.astype(float))


def test_boolean_no_duplicate_entries():
    m = gen_powerlaw_boolean(50, 400, seed=3,
                             marginals=ParametricMarginals(body_start=5))
    sp = m.sparse
    for j in range(400):
        rows = sp.indices[sp.indptr[j]: sp.indptr[j + 1]]
        assert np.unique(rows).size == rows.size
        assert (np.diff(rows) > 0).all()  # sorted within column


def test_boolean_density_reference_regime():
    densities = []
    for seed in range(10):
        m = gen_powerlaw_boolean(425, 1052, seed=seed)
        densities.append(m.nnz / (425 * 1052))
    mean = float(np.mean(densities))
    # reference density for this setting is 5.9%, stochastic band 1.5 points
    assert abs(mean - 0.059) <= 0.015
    for d in densities:
        assert abs(d - 0.059) <= 0.015


def test_boolean_large_dim_density_stays_in_regime():
    m = gen_powerlaw_boolean(425, 10_520, seed=1)
    assert 0.044 <= m.nnz / (425 * 10_520) <= 0.074


def test_boolean_deterministic():
    a = gen_powerlaw_boolean(60, 80, seed=9)
    b = gen_powerlaw_boolean(60, 80, seed=9)
    assert (a.to_dense() == b.to_dense()).all()


def _powerlaw_indices_in_4m_key_chunks(n_rows, n_cols, seed):
    """Row indices of ``gen_powerlaw_boolean`` as first written, drawing the
    keys in chunks of 4M: the reference for a change of chunk size."""
    rng = rng_from_seed(seed)
    sums = ParametricMarginals().sample(rng, n_cols, n_rows)
    indptr = np.concatenate(([0], np.cumsum(sums)))
    indices = np.empty(indptr[-1], dtype=np.int64)
    chunk = max(1, 4_000_000 // n_rows)
    for c0 in range(0, n_cols, chunk):
        c1 = min(c0 + chunk, n_cols)
        s = sums[c0:c1]
        while True:
            keys = rng.random((c1 - c0, n_rows))
            kth = np.sort(keys, axis=1)[np.arange(c1 - c0), np.maximum(s, 1) - 1]
            mask = keys <= kth[:, None]
            mask[s == 0] = False
            if (mask.sum(axis=1) == s).all():
                break
        _, rows = np.nonzero(mask)
        indices[indptr[c0]: indptr[c1]] = rows
    return indptr, indices


def test_boolean_chunking_does_not_change_output():
    # 425 x 10,520 spans several key chunks of any size up to 4M keys
    indptr, indices = _powerlaw_indices_in_4m_key_chunks(425, 10_520, seed=1)
    m = gen_powerlaw_boolean(425, 10_520, seed=1)
    assert (m.sparse.indptr == indptr).all()
    assert (m.sparse.indices == indices).all()
    assert (m.sparse.data == 1.0).all()


@pytest.mark.parametrize("exponent", [np.nan, np.inf, -np.inf, 1.0])
def test_parametric_exponent_must_be_finite_above_one(exponent):
    law = ParametricMarginals(exponent=exponent)
    with pytest.raises(ValidationError,
                       match="^exponent must be finite and exceed 1, got "):
        gen_powerlaw_boolean(20, 50, seed=1, marginals=law)


def test_boolean_empirical_validation():
    with pytest.raises(ValidationError, match="exceeds n_rows"):
        gen_powerlaw_boolean(4, 3, seed=1,
                             marginals=EmpiricalMarginals([5, 1, 1]))
    with pytest.raises(ValidationError):
        EmpiricalMarginals([-1, 2])


def test_parametric_sampler_slope_recovery():
    # classic law: fitted CCDF exponent near (density exponent - 1)
    hits = 0
    for seed in range(10):
        law = ParametricMarginals(exponent=2.2, body_start=1, head_mass=0.0)
        vals = law.sample(rng_from_seed(seed), 10_000, 1_000_000)
        xs = np.asarray(vals, float)
        from wideca.powerlaw import ccdf
        x, fr = ccdf(xs)
        good = x[fr * xs.size >= 5]
        fit = fit_exponent(xs, x_min=3.0, x_max=float(good.max()))
        hits += abs(fit.alpha - 1.2) <= 0.15
    assert hits >= 9


def test_default_marginals_exponent_recovery_at_scale():
    # generated column sums at 10^4 columns recover the law's CCDF exponent
    # (density exponent 2.49 -> CCDF 1.49) within 0.15 in >= 9/10 seeds
    marg = ParametricMarginals()
    hits = 0
    for seed in range(10):
        m = gen_powerlaw_boolean(425, 10_520, seed, marginals=marg)
        sums = column_sums(m)
        fit = fit_exponent(sums, x_min=float(marg.body_start),
                           x_max=float(np.percentile(sums, 90.0)))
        hits += abs(fit.alpha - 1.49) <= 0.15
    assert hits >= 9


def test_parametric_weights_structure():
    law = ParametricMarginals(exponent=2.49, body_start=12, head_mass=0.006)
    w = law.weights(425)
    assert w.size == 425
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert w[:11].sum() == pytest.approx(0.006, abs=1e-12)
    x = np.arange(12.0, 426.0)
    np.testing.assert_allclose(w[11:] / w[11], (x / 12.0) ** -2.49, rtol=1e-12)
