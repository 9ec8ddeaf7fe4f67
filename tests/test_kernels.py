"""Numeric kernels: pivoted elimination and residual sweeps."""

import random

import numpy as np
import pytest

from planesep import kernels, oracle
from planesep.repository import build


@pytest.mark.parametrize("seed", range(8))
def test_gauss_rank_deficient_solves(seed):
    rng = np.random.default_rng(100 + seed)
    k = int(rng.integers(1, 9))
    n = int(rng.integers(k, 12))
    m = rng.uniform(-5.0, 5.0, size=(k, n))
    if seed % 3 == 0 and k >= 2:
        m[-1] = m[0]  # duplicate row: rank deficiency
    rhs = np.full(k, -1.0)
    free = rng.uniform(-1.0, 1.0, size=n)
    alpha, status, rank, mults, adds = kernels.gauss_solve(m, rhs, free, 1e-10, 1e-8)
    assert rank == np.linalg.matrix_rank(m)
    if status == kernels.GAUSS_OK:
        assert np.allclose(m @ alpha, rhs, atol=1e-7)
    _, _, _, mults2, adds2 = kernels.gauss_solve(m, rhs, free, 1e-10, 1e-8)
    assert (mults2, adds2) == (mults, adds), "operation counts must be reproducible"


def test_gauss_detects_inconsistency_on_scaled_rows():
    m = np.array([[1.0, 1.0], [2.0, 2.0]])
    _, status, rank, _, _ = kernels.gauss_solve(
        m, np.full(2, -1.0), np.zeros(2), 1e-10, 1e-8
    )
    assert status == kernels.GAUSS_INCONSISTENT
    assert rank == 1


def test_gauss_leaves_its_float64_inputs_unchanged():
    m = np.array([[1.0, 2.0, 0.5], [2.0, 4.0, 1.0], [0.0, 1.0, 3.0]])
    rhs = np.full(3, -1.0)
    m0, rhs0 = m.copy(), rhs.copy()
    _, status, rank, _, _ = kernels.gauss_solve(m, rhs, np.zeros(3), 1e-10, 1e-8)
    assert (status, rank) == (kernels.GAUSS_INCONSISTENT, 2)
    assert np.array_equal(m, m0) and np.array_equal(rhs, rhs0)


def test_gauss_zero_matrix_is_inconsistent_for_unit_rhs():
    m = np.zeros((2, 3))
    _, status, rank, _, _ = kernels.gauss_solve(
        m, np.full(2, -1.0), np.zeros(3), 1e-10, 1e-8
    )
    assert status == kernels.GAUSS_INCONSISTENT
    assert rank == 0


def test_gauss_full_rank_square_matches_numpy_solve():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(2, 10))
        m = rng.standard_normal((n, n)) + np.eye(n)
        rhs = np.full(n, -1.0)
        alpha, status, rank, mults, adds = kernels.gauss_solve(
            m, rhs, np.zeros(n), 1e-10, 1e-8
        )
        assert status == kernels.GAUSS_OK
        assert rank == n
        assert np.allclose(alpha, np.linalg.solve(m, rhs))
        # elimination plus back-substitution stays within the n^3 ballpark
        assert mults <= n**3 + n**2


def test_residuals_point_empty_family():
    out = kernels.residuals_point(np.empty((0, 4)), np.zeros(4))
    assert out.shape == (0,)


def seeded_wide_store():
    """60 random 25-digit values, most of them past int64, at n = 25."""
    rng = random.Random(25)
    return build([rng.randrange(10**25) for _ in range(60)], 25, 0)


@pytest.mark.parametrize("store", [
    lambda: build(oracle.sieve(10**5).primes().tolist(), 5, 0),
    seeded_wide_store,
], ids=["primes-1e5", "wide25"])
def test_residuals_point_is_the_plain_formula_bit_for_bit(store):
    # the kernel adds the 1 in place after the product; on stored points
    # that gives exactly the bits of 1.0 + planes @ p
    state = store().state
    planes = state.plane_matrix
    assert state.q > 0
    for p in state.points:
        assert np.array_equal(kernels.residuals_point(planes, p), 1.0 + planes @ p)


@pytest.mark.parametrize("n, q, count", [(1, 1, 1), (6, 160, 256), (25, 40, 7), (4, 0, 3)])
def test_block_residuals_match_the_point_kernel(n, q, count):
    rng = np.random.default_rng(n)
    planes = rng.standard_normal((q, n))
    pts = rng.uniform(0.0, 9.0, size=(count, n))
    block = kernels.residuals_block(pts, planes)
    assert block.shape == (count, q)
    # each sum carries a forward error of at most (n+1) u (1 + |alpha| . |x|),
    # u = eps/2, whatever order the two kernels add in
    bound = (n + 1) * np.finfo(np.float64).eps * (1.0 + np.abs(pts) @ np.abs(planes).T)
    for i, p in enumerate(pts):
        assert np.all(np.abs(block[i] - kernels.residuals_point(planes, p)) <= bound[i])
