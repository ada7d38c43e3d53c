"""Property tests from correspondence-analysis theory, over small random
matrices drawn on the pinned ``hypothesis`` profile (``conftest.py``)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

import wideca
import wideca.engine as engine
from wideca import CountMatrix

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

EPS = np.finfo(np.float64).eps
# Each sparse run forces one kernel of each pass: BLAS slabs for W and the
# projections, then W's pair products and scipy's product. A fill of the
# smallest normal float sends every block with an entry to BLAS; 0 would
# divide by zero in ``_scipy_pays`` on a block with none.
KERNELS = (
    {"_DENSE_GRAM_RATIO": 0.0, "_DENSE_PROJECTION_FILL": np.finfo(float).tiny,
     "_SCIPY_IMPORT_MADDS": 1},
    {"_DENSE_GRAM_RATIO": np.inf, "_DENSE_PROJECTION_FILL": np.inf,
     "_SCIPY_IMPORT_MADDS": 1},
)


@st.composite
def count_matrices(draw) -> np.ndarray:
    """A nonnegative matrix of 2 to 8 rows and 2 to 40 columns, many of
    its cells zero, with a positive grand total."""
    shape = (draw(st.integers(2, 8)), draw(st.integers(2, 40)))
    cells = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    K = draw(hnp.arrays(np.float64, shape, elements=cells))
    hypothesis.assume(K.sum() > 0)
    return K


@hypothesis.given(K=count_matrices())
def test_sparse_and_dense_storage_agree_on_every_kernel(K):
    """On a shrunk block grid with slabs narrower than a block, sparse
    storage on each kernel of each pass keeps as many axes as dense
    storage, with eigenvalues within 1e-12, and per-column absolute
    contributions and their mean and median within 1e-10 relative (their
    standard deviation within 1e-10 of the mean). Per-axis outputs may
    follow the storage where eigenvalues repeat, so they are not compared.

    A draw is skipped if either storage keeps an eigenvalue below
    1e6 n_rows eps. Near the noise floor, at most 1e-12, rounding decides
    whether an axis is kept: the deflation residual of a constant matrix
    can land just above the floor in one storage and below it in the
    other. Above the floor, up to about 1e6 n_rows eps, an axis mixes with
    the trivial one by about n_rows eps / lambda, which moves the
    contributions by more than 1e-10."""
    coo = np.nonzero(K)
    with mock.patch("wideca.store._BLOCK_ELEMS", 24), \
            mock.patch.object(engine, "_SLAB_ELEMS", 8):
        runs = [wideca.analyze(CountMatrix.from_dense(K), workers=1)]
        for kernels in KERNELS:
            with mock.patch.multiple(engine, **kernels):
                runs.append(wideca.analyze(
                    CountMatrix.from_triplets(*K.shape, *coo, K[coo]),
                    workers=1))
    hypothesis.assume(all(fd.eigenvalues[1:].min(initial=1.0)
                          >= 1e6 * K.shape[0] * EPS for _, fd, _ in runs))
    (_, fd_d, dense), *sparse_runs = runs
    for _, fd_s, sparse in sparse_runs:
        assert fd_s.nu == fd_d.nu
        np.testing.assert_allclose(fd_s.eigenvalues, fd_d.eigenvalues,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(sparse.per_column_absolute,
                                   dense.per_column_absolute,
                                   rtol=1e-10, atol=0)
        assert sparse.abs_mean == pytest.approx(dense.abs_mean,
                                                rel=1e-10, abs=0)
        assert sparse.abs_median == pytest.approx(dense.abs_median,
                                                  rel=1e-10, abs=0)
        # a spread of near-equal values is known to its values' scale
        assert sparse.abs_sd == pytest.approx(
            dense.abs_sd, rel=1e-10, abs=1e-10 * dense.abs_mean)
