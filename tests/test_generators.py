import threading

import numpy as np
import pytest

from wideca import (EmpiricalMarginals, ParametricMarginals, SignalSeries,
                    ValidationError, column_sums, embed_signal,
                    gen_powerlaw_boolean, gen_randomwalk_signal, gen_uniform)
from wideca import generators
from wideca.generators import rng_from_seed
from wideca.powerlaw import fit_exponent
from wideca.store import resolve_workers


@pytest.fixture(params=[1, 2], ids=["1-worker", "2-workers"])
def gen_workers(request, monkeypatch):
    """Generation's worker count, the passes' default, set through the CPU
    affinity."""
    monkeypatch.setattr("wideca.store.os.sched_getaffinity",
                        lambda pid: set(range(request.param)))
    assert resolve_workers() == request.param
    return request.param


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


@pytest.mark.parametrize("shape", [(86, 30_001), (3, 1_048_577), (1, 1)],
                         ids=["86x30001", "partial-last-chunk", "1x1"])
def test_uniform_matches_one_sequential_draw(gen_workers, shape):
    expected = rng_from_seed(5).random(shape)
    m = gen_uniform(*shape, seed=5)
    assert m.dense.tobytes() == expected.tobytes()


def test_uniform_memory_budget(monkeypatch):
    from wideca import store
    monkeypatch.setattr(store, "_PHYSICAL_MEMORY", 8 << 30)
    with pytest.raises(ValidationError, match=(
            "^a 86 x 10000000000 uniform matrix needs at least "
            "6,880,000,000,000 bytes, more than the 8,589,934,592 bytes")):
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


@pytest.mark.parametrize("n_windows, stride, length", [
    (86, 7, 50), (5, 1, 996), (1, 3, 1000)],
    ids=["overlapping", "stride-1", "window-as-long-as-signal"])
def test_embed_matches_fancy_index(n_windows, stride, length):
    sig = SignalSeries(rng_from_seed(2).random(1000) * 10)
    starts = np.arange(n_windows) * stride
    expected = sig.values[starts[:, None] + np.arange(length)[None, :]]
    dense = embed_signal(sig, n_windows, stride, length).dense
    assert dense.flags.c_contiguous
    assert dense.tobytes() == expected.tobytes()


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


def _stable_selection(keys, s):
    """Mask of the ``s[j]`` smallest keys of each row j of ``keys``, the
    leftmost first among equal keys: their ranks in a stable sort."""
    order = np.argsort(keys, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(keys.shape[1]), axis=1)
    return ranks < np.asarray(s)[:, None]


def _sequential_powerlaw(n_rows, n_cols, seed, marginals=None,
                         chunk_keys=1_000_000):
    """Row pointers and indices of ``gen_powerlaw_boolean`` as first written:
    one thread, keys drawn in chunks of about ``chunk_keys``, each column
    keeping the rows of its s_j smallest keys, the lowest rows among keys
    tied at the threshold."""
    rng = rng_from_seed(seed)
    sums = (marginals or ParametricMarginals()).sample(rng, n_cols, n_rows)
    indptr = np.concatenate(([0], np.cumsum(sums)))
    indices = np.empty(indptr[-1], dtype=np.int64)
    chunk = max(1, chunk_keys // n_rows)
    for c0 in range(0, n_cols, chunk):
        c1 = min(c0 + chunk, n_cols)
        keys = rng.random((c1 - c0, n_rows))
        _, rows = np.nonzero(_stable_selection(keys, sums[c0:c1]))
        indices[indptr[c0]: indptr[c1]] = rows
    return indptr, indices


def test_boolean_chunking_does_not_change_output():
    # 425 x 10,520 spans several key chunks of any size up to 4M keys
    indptr, indices = _sequential_powerlaw(425, 10_520, seed=1,
                                           chunk_keys=4_000_000)
    m = gen_powerlaw_boolean(425, 10_520, seed=1)
    assert (m.sparse.indptr == indptr).all()
    assert (m.sparse.indices == indices).all()
    assert (m.sparse.data == 1.0).all()


# Empirical sums with zeros, full columns and single entries; EmpiricalMarginals
# draws them with a data-dependent number of stream outputs.
ZERO_SUMS = EmpiricalMarginals([0, 0, 1, 2, 5, 30, 424, 425, 0, 13])


def test_boolean_matches_sequential_loop(gen_workers):
    # 425 x 10,520: five key chunks of eight sub-slices each
    indptr, indices = _sequential_powerlaw(425, 10_520, 3, ZERO_SUMS)
    m = gen_powerlaw_boolean(425, 10_520, 3, marginals=ZERO_SUMS)
    assert (column_sums(m) == 0).any()
    assert np.array_equal(m.sparse.indptr, indptr)
    assert np.array_equal(m.sparse.indices, indices)


def _first_keys(n_rows, n_cols, seed, marginals, col):
    """The keys column ``col`` draws."""
    rng = rng_from_seed(seed)
    marginals.sample(rng, n_cols, n_rows)
    rng.bit_generator.advance(col * n_rows)
    return rng.random(n_rows)


# Column 5,000 of 10,520 lies inside the third of five 1M-key blocks
# (2,352 columns each at 425 rows), away from its sub-slice boundaries.
MIDDLE_COL = 5_000


def _selected_rows(keys, s):
    flat = generators._select(keys, np.asarray(s), np.empty_like(keys),
                              np.empty(keys.shape, dtype=bool))
    return [list(flat[flat // keys.shape[1] == j] % keys.shape[1])
            for j in range(len(keys))]


def test_select_keeps_lowest_rows_among_tied_keys():
    keys = np.array([
        [.5, .2, .5, .1, .5, .9],  # tied at the threshold .5
        [.3, .7, .3, .3, .9, .5],  # tied at the threshold, s = 1
        [.2, .2, .6, .4, .9, .7],  # tied below the threshold .6
        [.8, .1, .8, .3, .8, .2],  # tied above the threshold .2
        [.4, .4, .4, .4, .4, .4],  # all tied, s = 0
        [.4, .4, .4, .4, .4, .4],  # all tied, s = 2
        [.5, .5, .1, .5, .5, .5],  # full column
    ])
    s = [3, 1, 4, 2, 0, 2, 6]
    assert _selected_rows(keys, s) == [
        [0, 1, 3], [0], [0, 1, 2, 3], [1, 5], [], [0, 1], [0, 1, 2, 3, 4, 5]]
    # coarse keys tie often: the selection is a stable sort's first s_j
    rng = rng_from_seed(4)
    keys = np.floor(rng.random((500, 9)) * 4) / 4
    s = rng.integers(0, 10, size=500)
    mask = _stable_selection(keys, s)
    assert _selected_rows(keys, s) == [list(np.flatnonzero(row)) for row in mask]


def test_boolean_chunk_error_propagates_and_joins_pool(monkeypatch):
    monkeypatch.setattr("wideca.store.os.sched_getaffinity",
                        lambda pid: {0, 1})
    target = _first_keys(425, 10_520, 3, ZERO_SUMS, MIDDLE_COL)
    real_select = generators._select

    def select(keys, *args):
        if (keys == target).all(axis=1).any():
            raise RuntimeError("chunk failed")
        return real_select(keys, *args)

    monkeypatch.setattr(generators, "_select", select)
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match="^chunk failed$"):
        gen_powerlaw_boolean(425, 10_520, 3, marginals=ZERO_SUMS)
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("make", [
    lambda: gen_uniform(86, 30_001, 1),
    lambda: gen_powerlaw_boolean(425, 10_520, 1)], ids=["uniform", "powerlaw"])
def test_generation_runs_on_its_default_workers(monkeypatch, make):
    seen = []
    real = generators.ordered_block_map

    def spy(fn, blocks, workers=None):
        seen.append(workers)
        return real(fn, blocks, workers)

    monkeypatch.setattr(generators, "ordered_block_map", spy)
    make()
    assert seen == [None]  # the passes' default


def test_boolean_empirical_memory_checked_before_sums(monkeypatch):
    # a mean sum of 29.0: 2,900 entries at 12 bytes, plus the pointers
    from wideca import store
    monkeypatch.setattr(store, "_PHYSICAL_MEMORY", 35_000)

    def sample(*args):
        raise AssertionError("sums drawn before the memory check")

    monkeypatch.setattr(EmpiricalMarginals, "sample", sample)
    with pytest.raises(ValidationError, match=(
            "^a 425 x 100 power-law boolean matrix needs at least 35,204 "
            "bytes")):
        gen_powerlaw_boolean(425, 100, seed=1,
                             marginals=EmpiricalMarginals([0, 58]))


@pytest.mark.parametrize("exponent", [np.nan, np.inf, -np.inf, 1.0])
def test_parametric_exponent_must_be_finite_above_one(exponent):
    law = ParametricMarginals(exponent=exponent)
    with pytest.raises(ValidationError,
                       match="^exponent must be finite and exceed 1, got "):
        gen_powerlaw_boolean(20, 50, seed=1, marginals=law)


@pytest.mark.parametrize("exponent", [300.0, 400.0, 1e6])
def test_parametric_exponent_underflowing_body_rejected(exponent):
    law = ParametricMarginals(exponent=exponent)
    with pytest.raises(ValidationError,
                       match=f"^exponent {exponent} leaves the power-law body "
                             r"\(sums 12 to 425\) no probability mass"):
        law.weights(425)


def test_parametric_steep_exponent_keeps_its_weights():
    # 12^-299 is subnormal but positive: the body is all on its first sum
    w = ParametricMarginals(exponent=299.0).weights(425)
    assert np.isfinite(w).all()
    assert w[11] == pytest.approx(1.0 - 0.006)


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
