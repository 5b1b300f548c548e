"""The linear algebra inside Batch-OMP: its Cholesky factor and final solve.

``batch_omp_factor`` grows the lower Cholesky factor L of the active
sub-Gram matrix K[I, I] one row per selected atom; ``omp_gram`` then solves
K[I, I] gamma = t[I] through L. With ``abs_correlation`` and no residual
tolerance every independent atom of a small positive-definite K is taken.
"""

import numpy as np
import pytest

from selbp.errors import EmptySelection
from selbp.omp import OmpConfig, batch_omp_factor, omp_gram


def take_all(K, t=None, m=None):
    """Run the greedy pass over every atom of K; returns (indices, L, z)."""
    n = K.shape[0]
    t = np.arange(1.0, n + 1) if t is None else np.asarray(t, dtype=np.float64)
    cfg = OmpConfig(max_atoms=n if m is None else m, abs_correlation=True)
    return batch_omp_factor(K, t, cfg)


def solve_all(K, t):
    n = K.shape[0]
    return omp_gram(K, t, OmpConfig(max_atoms=n, abs_correlation=True))


def active_block(K, idx):
    return K[np.ix_(idx, idx)]


def random_spd(n, rng):
    A = rng.standard_normal((n, n + 4))
    return A @ A.T


def test_append_to_empty_is_sqrt():
    idx, L, z = take_all(np.array([[4.0]]), [6.0])
    np.testing.assert_array_equal(idx, [0])
    assert L.shape == (1, 1)
    assert L[0, 0] == 2.0
    assert z[0] == 3.0


def test_append_identity_block():
    idx, L, _ = take_all(np.eye(2), [1.0, 0.5])
    np.testing.assert_array_equal(idx, [0, 1])
    np.testing.assert_array_equal(L, np.eye(2))


def test_incremental_matches_direct_cholesky():
    rng = np.random.default_rng(0)
    K = random_spd(5, rng)
    idx, L, _ = take_all(K)
    assert sorted(idx) == list(range(5))
    direct = np.linalg.cholesky(active_block(K, idx))
    assert np.abs(L - direct).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
def test_reconstruction_error(n):
    rng = np.random.default_rng(n)
    K = random_spd(n, rng)
    idx, L, _ = take_all(K)
    assert len(idx) == n
    block = active_block(K, idx)
    rel = np.linalg.norm(L @ L.T - block) / np.linalg.norm(block)
    assert rel < 1e-10


def test_existing_block_unchanged_by_append():
    rng = np.random.default_rng(1)
    K = random_spd(4, rng)
    idx3, L3, z3 = take_all(K, m=3)
    idx4, L4, z4 = take_all(K, m=4)
    np.testing.assert_array_equal(idx4[:3], idx3)
    np.testing.assert_array_equal(L4[:3, :3], L3)
    np.testing.assert_array_equal(L4[:3, 3], 0.0)
    np.testing.assert_array_equal(z4[:3], z3)


def test_duplicate_column_raises_singular():
    # The dependent atom's Cholesky pivot is zero, so the pass stops there
    # instead of factoring a singular block.
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 6))
    A = np.vstack([A, A[1]])  # exact repeat
    K = A @ A.T
    idx, L, _ = take_all(K, rng.standard_normal(4))
    assert len(idx) < 4
    assert not {1, 3} <= set(idx.tolist())
    assert (np.diag(L) > 0).all()


def test_nonpositive_leading_pivot_raises():
    for diag in (0.0, -1.0):
        K = np.diag([diag, 1.0])
        with pytest.raises(EmptySelection):
            omp_gram(K, np.array([1.0, 0.5]), OmpConfig(max_atoms=2))


def test_solve_identity():
    sel = solve_all(np.eye(2), np.array([3.0, -1.0]))
    np.testing.assert_array_equal(sel.indices, [0, 1])
    np.testing.assert_array_equal(sel.weights, [3.0, -1.0])


def test_solve_scalar():
    sel = solve_all(np.array([[4.0]]), np.array([6.0]))
    np.testing.assert_allclose(sel.weights, [1.5])


def test_solve_residual_small():
    rng = np.random.default_rng(3)
    K = random_spd(6, rng)
    rhs = rng.standard_normal(6)
    sel = solve_all(K, rhs)
    assert sel.size == 6
    x = np.zeros(6)
    x[sel.indices] = sel.weights
    assert np.linalg.norm(K @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_solve_exact_on_diagonal():
    d = np.array([4.0, 0.25, 9.0])
    rhs = np.array([8.0, 1.0, 3.0])
    sel = solve_all(np.diag(d), rhs)
    x = np.zeros(3)
    x[sel.indices] = sel.weights
    np.testing.assert_array_equal(x, rhs / d)
