import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selbp.errors import DimensionMismatch, EmptySelection
from selbp.gram import BatchTape, explicit_gradients, gram_explicit, mean_correlations
from selbp.omp import (
    OmpConfig,
    Selection,
    omp_dense_oracle,
    omp_gram,
    residual_norm_sq,
)


def mean_matching_instance(rng, M, D):
    """Atoms plus the mean-gradient target, in both dense and Gram form."""
    A = rng.standard_normal((M, D))
    b = A.mean(axis=0)
    return A, b, A @ A.T, A @ b


def test_duplicate_atoms_stop_after_one():
    K = np.ones((4, 4))
    sel = omp_gram(K, np.ones(4), OmpConfig(max_atoms=2))
    np.testing.assert_array_equal(sel.indices, [0])
    np.testing.assert_allclose(sel.weights, [1.0])


def test_singular_pivot_stops_before_dependent_atom():
    # Atoms sqrt(2) and 1/sqrt(2) are parallel; t is inconsistent with K, so
    # the second atom still correlates after the first is in, and only its
    # zero Cholesky pivot keeps it out.
    K = np.array([[2.0, 1.0], [1.0, 0.5]])
    sel = omp_gram(K, np.array([2.0, 1.5]), OmpConfig(max_atoms=2))
    np.testing.assert_array_equal(sel.indices, [0])
    np.testing.assert_allclose(sel.weights, [1.0])


def test_tie_break_lowest_index():
    sel = omp_gram(np.eye(3), np.full(3, 1 / 3), OmpConfig(max_atoms=1))
    np.testing.assert_array_equal(sel.indices, [0])
    np.testing.assert_allclose(sel.weights, [1 / 3])


def test_gram_matches_dense_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        M = int(rng.integers(4, 65))
        A, b, K, t = mean_matching_instance(rng, M, M + 16)
        m = int(rng.integers(1, min(M, 16) + 1))
        dense = omp_dense_oracle(A, b, m)
        gsel = omp_gram(K, t, OmpConfig(max_atoms=m))
        np.testing.assert_array_equal(dense.indices, gsel.indices)
        assert np.abs(dense.weights - gsel.weights).max() < 1e-8


def atom_family(kind, seed, M):
    """Atoms (rows) that are generic, of rank below M/3, or repeated rows."""
    rng = np.random.default_rng(seed)
    D = M + 8
    if kind == "random":
        return rng.standard_normal((M, D))
    if kind == "rank_deficient":
        r = max(1, M // 3)
        return rng.standard_normal((M, r)) @ rng.standard_normal((r, D))
    distinct = rng.standard_normal((max(1, M // 2), D))
    return distinct[rng.integers(0, distinct.shape[0], M)]


def row_labels(A):
    """One label per distinct row, so repeated atoms compare as equal."""
    _, labels = np.unique(A, axis=0, return_inverse=True)
    return labels.reshape(-1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["random", "rank_deficient", "duplicate_rows"]),
    seed=st.integers(0, 2**32 - 1),
    M=st.integers(2, 40),
    m_share=st.floats(0.05, 1.0),
)
def test_gram_omp_matches_dense_oracle_property(kind, seed, M, m_share):
    A = atom_family(kind, seed, M)
    b = A.mean(axis=0)
    K, t = A @ A.T, A @ b
    m = max(1, round(m_share * M))
    rank = np.linalg.matrix_rank(A)

    # Below this, a correlation is rounding noise: the target is matched.
    tol = 1e-9 * float(np.abs(t).max())
    dense = omp_dense_oracle(A, b, m, residual_tol=tol)
    gsel = omp_gram(K, t, OmpConfig(max_atoms=m, residual_tol=tol))
    labels = row_labels(A)
    np.testing.assert_array_equal(labels[gsel.indices], labels[dense.indices])
    np.testing.assert_allclose(gsel.weights, dense.weights, rtol=1e-7, atol=1e-9)

    # The incrementally built factor solves the active normal equations.
    idx = gsel.indices
    np.testing.assert_allclose(
        K[np.ix_(idx, idx)] @ gsel.weights, t[idx], rtol=1e-8, atol=1e-10 * np.abs(t).max()
    )

    # With no residual tolerance, a dependent atom is refused by its pivot
    # (or its correlation is already zero): never more atoms than the rank.
    full = omp_gram(K, t, OmpConfig(max_atoms=m))
    assert full.size <= min(m, rank)
    assert np.linalg.matrix_rank(A[full.indices]) == full.size


def test_dense_single_atom_equal_to_target():
    target = np.array([1.0, 2.0, 3.0])
    sel = omp_dense_oracle(target[None, :], target, 1)
    np.testing.assert_array_equal(sel.indices, [0])
    np.testing.assert_allclose(sel.weights, [1.0])


def test_dense_orthonormal_atoms_pick_matching_atom():
    A = np.eye(4)
    sel = omp_dense_oracle(A, A[2], 1)
    np.testing.assert_array_equal(sel.indices, [2])
    np.testing.assert_allclose(sel.weights, [1.0])


def test_dense_full_support_exact_least_squares():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((6, 9))
    b = rng.standard_normal(9) + A.mean(axis=0)
    sel = omp_dense_oracle(A, b, 6, abs_correlation=True)
    if sel.size == 6:
        resid = np.linalg.norm(A[sel.indices].T @ sel.weights - b)
        lstsq_resid = np.linalg.norm(A.T @ np.linalg.lstsq(A.T, b, rcond=None)[0] - b)
        assert resid <= lstsq_resid + 1e-10 * np.linalg.norm(b)


def test_objective_monotone_over_iterations():
    rng = np.random.default_rng(2)
    for _ in range(20):
        M = int(rng.integers(4, 33))
        A, b, K, t = mean_matching_instance(rng, M, M + 8)
        t0 = float(b @ b)
        sel = omp_gram(K, t, OmpConfig(max_atoms=min(M, 10)))
        prev = t0
        for k in range(1, sel.size + 1):
            idx = sel.indices[:k]
            gamma = np.linalg.solve(K[np.ix_(idx, idx)], t[idx])
            obj = residual_norm_sq(K, t, t0, Selection(idx, gamma))
            assert obj <= prev + 1e-10 * max(t0, 1.0)
            prev = obj


def test_first_atom_maximizes_mean_correlation():
    rng = np.random.default_rng(3)
    A, b, K, t = mean_matching_instance(rng, 20, 30)
    sel = omp_gram(K, t, OmpConfig(max_atoms=1))
    assert sel.indices[0] == int(np.argmax(t))


def test_full_support_recovers_uniform_weights():
    rng = np.random.default_rng(4)
    A, b, K, t = mean_matching_instance(rng, 8, 16)
    sel = omp_gram(K, t, OmpConfig(max_atoms=8))
    assert sel.size == 8
    gamma = np.zeros(8)
    gamma[sel.indices] = sel.weights
    np.testing.assert_allclose(gamma, np.full(8, 1 / 8), atol=1e-10)


def test_empty_selection_on_zero_target():
    with pytest.raises(EmptySelection):
        omp_gram(np.eye(3), np.zeros(3), OmpConfig(max_atoms=2))


def test_abs_correlation_can_pick_negative():
    A = np.array([[1.0, 0.0], [-1.0, -0.1]])
    b = np.array([-2.0, 0.0])
    K, t = A @ A.T, A @ b
    sel = omp_gram(K, t, OmpConfig(max_atoms=1, abs_correlation=True))
    assert sel.indices[0] == 0  # raw correlations: [-2, 2], abs flips the pick
    assert sel.weights[0] < 0
    raw = omp_gram(K, t, OmpConfig(max_atoms=1))
    assert raw.indices[0] == 1


def test_residual_norm_sq_zero_weights_gives_t0():
    K = np.eye(3)
    t = np.array([0.5, 0.2, 0.1])
    sel = Selection([0, 1], [0.0, 0.0])
    assert residual_norm_sq(K, t, 7.0, sel) == 7.0


def test_residual_norm_sq_exact_solve_is_zero():
    rng = np.random.default_rng(5)
    A, b, K, t = mean_matching_instance(rng, 6, 12)
    t0 = float(b @ b)
    gamma = np.linalg.solve(K, t)
    obj = residual_norm_sq(K, t, t0, Selection(np.arange(6), gamma))
    assert abs(obj) <= 1e-12 * t0


def test_residual_norm_sq_matches_explicit_vectors():
    rng = np.random.default_rng(6)
    tape = BatchTape(
        H=rng.standard_normal((7, 4)),
        P=rng.standard_normal((7, 3)),
        losses=np.zeros(7),
    )
    K = gram_explicit(tape)
    t = mean_correlations(K)
    V = explicit_gradients(tape)
    gbar = V.mean(axis=0)
    idx = np.array([1, 4, 6])
    gamma = rng.standard_normal(3)
    explicit = np.sum((gamma @ V[idx] - gbar) ** 2)
    implicit = residual_norm_sq(K, t, float(gbar @ gbar), Selection(idx, gamma))
    assert abs(explicit - implicit) < 1e-10


def test_input_validation():
    with pytest.raises(DimensionMismatch):
        omp_gram(np.eye(3), np.ones(2), OmpConfig(max_atoms=1))
    with pytest.raises(DimensionMismatch):
        omp_gram(np.eye(3), np.ones(3), OmpConfig(max_atoms=4))
    with pytest.raises(ValueError):
        OmpConfig(max_atoms=0)
    with pytest.raises(ValueError):
        Selection([1, 1], [1.0, 1.0])
    with pytest.raises(EmptySelection):
        Selection([], [])
