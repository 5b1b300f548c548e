"""The linear algebra inside Batch-OMP: its Cholesky factor and final solve.

``omp_gram`` grows the lower Cholesky factor L of the active sub-Gram matrix
K[I, I] one row per selected atom, then solves K[I, I] gamma = t[I] through L
once; these tests read the factor through the weights it solves for. With the
training target t = K.mean(axis=1) (or a positive right-hand side on a
diagonal K) every atom of a small positive-definite K is taken.
"""

import numpy as np
import pytest

from selbp.errors import EmptySelection
from selbp.selection import OmpConfig, omp_gram


def take_all(K, t=None, m=None):
    """Run ``omp_gram`` over every atom of K (or m of them); returns its Selection."""
    n = K.shape[0]
    t = K.mean(axis=1) if t is None else np.asarray(t, dtype=np.float64)
    return omp_gram(K, t, OmpConfig(max_atoms=n if m is None else m))


def active_block(K, idx):
    return K[np.ix_(idx, idx)]


def random_spd(n, rng):
    A = rng.standard_normal((n, n + 4))
    return A @ A.T


def test_append_to_empty_is_sqrt():
    # One atom k: L = sqrt(K_kk) and z = t_k / L, so its weight is t_k / K_kk.
    sel = take_all(np.array([[4.0, 1.0], [1.0, 9.0]]), [6.0, 2.0], m=1)
    np.testing.assert_array_equal(sel.indices, [0])
    assert sel.weights[0] == 1.5


def test_append_identity_block():
    # Each atom's row of the factor is a unit row: atoms enter by correlation
    # and keep their targets as weights.
    sel = take_all(np.eye(3), [0.5, 1.0, 0.25])
    np.testing.assert_array_equal(sel.indices, [1, 0, 2])
    np.testing.assert_array_equal(sel.weights, [1.0, 0.5, 0.25])


def test_incremental_matches_direct_cholesky():
    rng = np.random.default_rng(0)
    K = random_spd(5, rng)
    t = K.mean(axis=1)
    sel = take_all(K)
    idx = sel.indices
    assert sorted(idx) == list(range(5))
    L = np.linalg.cholesky(active_block(K, idx))
    direct = np.linalg.solve(L.T, np.linalg.solve(L, t[idx]))
    assert np.linalg.norm(sel.weights - direct) <= 1e-12 * np.linalg.norm(direct)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
def test_reconstruction_error(n):
    rng = np.random.default_rng(n)
    K = random_spd(n, rng)
    t = K.mean(axis=1)
    sel = take_all(K)
    idx = sel.indices
    assert len(idx) == n
    rel = np.linalg.norm(active_block(K, idx) @ sel.weights - t[idx]) / np.linalg.norm(t[idx])
    assert rel < 1e-10


def test_existing_block_unchanged_by_append():
    rng = np.random.default_rng(1)
    K = random_spd(4, rng)
    sel3 = take_all(K, m=3)
    sel4 = take_all(K, m=4)
    np.testing.assert_array_equal(sel4.indices[:3], sel3.indices)


def test_duplicate_column_raises_singular():
    # Once one twin is in, the other's correlation with the residual is zero
    # up to rounding; a rounding-positive one meets a zero Cholesky pivot. The
    # pass stops either way instead of factoring a singular block.
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 6))
    A = np.vstack([A, A[1]])  # exact repeat
    K = A @ A.T
    sel = take_all(K)
    assert sel.size < 4
    assert not {1, 3} <= set(sel.indices.tolist())
    assert np.isfinite(sel.weights).all()


def test_nonpositive_leading_pivot_raises():
    for diag in (0.0, -1.0):
        K = np.diag([diag, 1.0])
        with pytest.raises(EmptySelection):
            omp_gram(K, np.array([1.0, 0.5]), OmpConfig(max_atoms=2))


def test_solve_identity():
    sel = take_all(np.eye(2), np.array([3.0, 1.0]))
    np.testing.assert_array_equal(sel.indices, [0, 1])
    np.testing.assert_array_equal(sel.weights, [3.0, 1.0])


def test_solve_scalar():
    sel = take_all(np.array([[4.0]]), np.array([6.0]))
    np.testing.assert_allclose(sel.weights, [1.5])


def test_solve_residual_small():
    rng = np.random.default_rng(3)
    K = random_spd(6, rng)
    rhs = K.mean(axis=1)
    sel = take_all(K, rhs)
    assert sel.size == 6
    x = np.zeros(6)
    x[sel.indices] = sel.weights
    assert np.linalg.norm(K @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_solve_exact_on_diagonal():
    d = np.array([4.0, 0.25, 9.0])
    rhs = np.array([8.0, 1.0, 3.0])
    sel = take_all(np.diag(d), rhs)
    x = np.zeros(3)
    x[sel.indices] = sel.weights
    np.testing.assert_array_equal(x, rhs / d)
