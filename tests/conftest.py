"""Shared test helpers: an independent dense-SVD oracle and matrix factories.

The oracle factors the centered standardized kernel
S[i, j] = (f_ij - f_i f_j) / sqrt(f_i f_j) with a full dense SVD and derives
eigenvalues and principal coordinates from it directly. It never touches the
package's dual-space route, so agreement between the two is a genuine
cross-check.
"""

from __future__ import annotations

import numpy as np
import pytest

from wideca import CountMatrix
from wideca.engine import _inv_pos, map_projection_blocks
from wideca.store import _blas_threads

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Property tests draw the same examples on every run, store none and
    # time none: a failure is reproduced by running the test again.
    settings.register_profile("wideca", derandomize=True, database=None,
                              deadline=None, max_examples=300)
    settings.load_profile("wideca")


def svd_oracle(K: np.ndarray):
    """Return (eigenvalues, row coords, column coords) from a dense SVD.

    Column coords come back as an (axes, n_cols) array. Signs follow the
    same convention as the engine: first significant coordinate of each left
    vector is positive. Requires a matrix with no zero rows or columns.
    """
    K = np.asarray(K, dtype=np.float64)
    k = K.sum()
    F = K / k
    fi, fj = F.sum(axis=1), F.sum(axis=0)
    assert fi.min() > 0 and fj.min() > 0, "oracle needs strictly positive masses"
    S = (F - np.outer(fi, fj)) / np.sqrt(np.outer(fi, fj))
    U, s, Vt = np.linalg.svd(S, full_matrices=False)
    for a in range(U.shape[1]):
        col = U[:, a]
        mx = np.abs(col).max()
        if mx > 0:
            first = np.flatnonzero(np.abs(col) > 1e-8 * mx)[0]
            if col[first] < 0:
                U[:, a] = -U[:, a]
                Vt[a] = -Vt[a]
    lam = s ** 2
    row_coords = U * s[None, :] / np.sqrt(fi)[:, None]
    col_coords = Vt * s[:, None] / np.sqrt(fj)[None, :]
    return lam, row_coords, col_coords


def oracle_rank(K: np.ndarray, tol: float = 1e-11) -> int:
    """Number of non-trivial axes the oracle considers genuine."""
    lam, _, _ = svd_oracle(K)
    return int((lam > tol * max(lam.max(), 1e-300)).sum())


def column_projections(fm, fd, workers: int = 1) -> np.ndarray:
    """Non-trivial column projections G of every column, (axes, n_cols),
    from the report's kernel: G = S / sqrt(f_j), 0 for zero-mass columns.
    Each block's G is a new array, since S is the kernel's scratch."""
    def projections(cols, S):
        sqrt_f = np.sqrt(fm.col_masses[cols])
        return cols, np.divide(S, sqrt_f, out=np.zeros_like(S),
                               where=sqrt_f > 0)
    G = np.zeros((fd.n_nontrivial, fm.n_cols))
    for cols, G_block in map_projection_blocks(fm, fd, projections, workers):
        G[:, cols] = G_block
    return G


def two_pass_relative(fm, fd, include_trivial: bool = True
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(relative contributions, axis inertias) with the empirical axis
    inertias I_a = sum_j f_j G_a(j)^2 as denominators: trivial * f_j +
    sum_a f_j G_a(j)^2 / I_a, the two-pass computation. It keeps the
    kernel's blocks of S^2 = f_j G^2 (see ``column_projections``) and merges
    them in block order, so its bits are those of a second report pass."""
    blocks = list(map_projection_blocks(fm, fd, lambda cols, S: (cols, S * S)))
    inertia = np.zeros(fd.n_nontrivial)
    for _, S2 in blocks:
        inertia += S2.sum(axis=1)
    inv = _inv_pos(inertia)
    trivial = 1.0 if include_trivial else 0.0
    f = fm.col_masses
    rel = np.zeros(fm.n_cols)
    for cols, S2 in blocks:
        rel[cols] = trivial * f[cols] + inv @ S2
    return rel, inertia


def chi2_distances(fm, rep) -> np.ndarray:
    """chi^2 distance of each column profile to the centroid from a report
    with the trivial axis included: abs_j / f_j - 1 (0 for zero-mass
    columns)."""
    fj = fm.col_masses
    return np.divide(rep.per_column_absolute, fj, out=np.ones_like(fj),
                     where=fj > 0) - 1.0


def random_count_matrix(rng: np.random.Generator, n_rows: int, n_cols: int,
                        kind: str = "uniform") -> CountMatrix:
    """Random test matrices with strictly positive masses."""
    if kind == "uniform":
        return CountMatrix.from_dense(rng.random((n_rows, n_cols)) + 1e-3)
    if kind == "counts":
        return CountMatrix.from_dense(rng.integers(0, 9, (n_rows, n_cols))
                                      + np.eye(n_rows, n_cols))
    if kind == "boolean":
        dense = (rng.random((n_rows, n_cols)) < 0.35).astype(float)
        dense[:, dense.sum(axis=0) == 0] = 1.0
        dense[dense.sum(axis=1) == 0, :] = 1.0
        return CountMatrix.from_dense(dense)
    if kind == "sparse":
        dense = np.where(rng.random((n_rows, n_cols)) < 0.3,
                         rng.random((n_rows, n_cols)) * 5.0, 0.0)
        dense[:, dense.sum(axis=0) == 0] += 0.5
        dense[dense.sum(axis=1) == 0, :] += 0.5
        coo = np.nonzero(dense)
        return CountMatrix.from_triplets(n_rows, n_cols, coo[0], coo[1],
                                         dense[coo])
    raise ValueError(kind)


K0 = np.array([[2.0, 0, 1, 1],
               [1.0, 1, 0, 2],
               [0.0, 2, 2, 0]])

# Oracle-derived constants for K0 (exact rationals confirmed by svd_oracle):
K0_EIGENVALUES = (0.5, 1.0 / 6.0)
K0_CHI2_PER_COLUMN = 2.0 / 3.0
K0_TOTAL_CENTERED_INERTIA = 2.0 / 3.0


@pytest.fixture(autouse=True)
def _blas_threads_kept():
    """Every test leaves numpy's BLAS thread count as it found it (a no-op
    where the pin finds no thread setter)."""
    get = (_blas_threads() or (lambda: None,))[0]
    before = get()
    yield
    assert get() == before, "the test changed BLAS's thread count"


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20240815))
