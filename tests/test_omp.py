import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selbp.errors import DimensionMismatch, EmptySelection
from selbp.model import BatchTape, Mlp, forward_tape, gram_implicit
from selbp.oracles import (
    explicit_gradients,
    gram_explicit,
    omp_dense_oracle,
    omp_oracle,
    residual_norm_sq,
)
from selbp.selection import OmpConfig, Selection, omp_gram


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
    ok, detail = omp_oracle(np.random.default_rng(0), 30)
    assert ok, detail


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

    gsel = omp_gram(K, t, OmpConfig(max_atoms=m))
    dense = omp_dense_oracle(A, b, gsel.size)
    labels = row_labels(A)
    np.testing.assert_array_equal(labels[gsel.indices], labels[dense.indices])
    np.testing.assert_allclose(gsel.weights, dense.weights, rtol=1e-7, atol=1e-9)
    if gsel.size < m:
        # Gram-OMP stopped short only because the target is matched: what
        # the dense residual still correlates with is rounding noise.
        resid = b - A[dense.indices].T @ dense.weights
        assert np.abs(A @ resid).max() <= 1e-9 * np.abs(t).max()

    # The incrementally built factor solves the active normal equations.
    idx = gsel.indices
    np.testing.assert_allclose(
        K[np.ix_(idx, idx)] @ gsel.weights, t[idx], rtol=1e-8, atol=1e-10 * np.abs(t).max()
    )

    # A dependent atom is refused by its pivot (or its correlation is
    # already zero): never more atoms than the rank.
    assert gsel.size <= min(m, rank)
    assert np.linalg.matrix_rank(A[gsel.indices]) == gsel.size


def real_tape(seed, M=24):
    """The forward tape of a small ReLU net on one random batch."""
    rng = np.random.default_rng(seed)
    model = Mlp.init([5, 12, 4], seed=seed)
    return forward_tape(model, rng.standard_normal((M, 5)), rng.integers(0, 4, M))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gram_omp_on_a_real_tape_matches_dense_oracle(seed):
    tape = real_tape(seed)
    K = gram_implicit(tape)
    V = explicit_gradients(tape)
    gsel = omp_gram(K, K.mean(axis=1), OmpConfig(max_atoms=8))
    dense = omp_dense_oracle(V, V.mean(axis=0), 8)
    np.testing.assert_array_equal(gsel.indices, dense.indices)
    np.testing.assert_allclose(gsel.weights, dense.weights, rtol=1e-8, atol=0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_factor_is_lower_triangular_with_positive_diagonal(seed):
    # The factor omp_gram solves through is the Cholesky factor of K[I, I]:
    # the pivot test admits only atoms that keep that block positive definite.
    K = gram_implicit(real_tape(seed))
    sel = omp_gram(K, K.mean(axis=1), OmpConfig(max_atoms=8))
    assert sel.size == 8
    L = np.linalg.cholesky(K[np.ix_(sel.indices, sel.indices)])
    assert (np.diag(L) > 0).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_gram_matrix_is_refused_before_any_atom(bad):
    # Without the check a NaN correlation lets argmax take an atom twice.
    K = np.eye(4)
    K[0, 1] = K[1, 0] = bad
    with pytest.raises(ValueError, match="Gram matrix contains non-finite entries"):
        omp_gram(K, np.ones(4), OmpConfig(max_atoms=3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_target_is_refused_before_any_atom(bad):
    with pytest.raises(ValueError, match="target contains non-finite entries"):
        omp_gram(np.eye(4), [1.0, bad, 1.0, 1.0], OmpConfig(max_atoms=3))


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
    sel = omp_dense_oracle(A, b, 6)
    assert sel.size == 6
    resid = np.linalg.norm(A[sel.indices].T @ sel.weights - b)
    lstsq_resid = np.linalg.norm(A.T @ np.linalg.lstsq(A.T, b, rcond=None)[0] - b)
    assert resid <= lstsq_resid + 1e-10 * np.linalg.norm(b)


def test_gram_omp_and_the_dense_oracle_stop_alike():
    # Unit atoms: the residual matches no atom left after three, so both stop
    # three short of max_atoms; a target no atom correlates with leaves both
    # nothing to take. The dense oracle also refuses sizes that do not fit.
    A = np.eye(8)
    b = np.zeros(8)
    b[[0, 3, 5]] = [2.0, 1.0, 0.5]
    for sel in (omp_gram(A @ A.T, A @ b, OmpConfig(max_atoms=6)), omp_dense_oracle(A, b, 6)):
        np.testing.assert_array_equal(sel.indices, [0, 3, 5])
        np.testing.assert_array_equal(sel.weights, [2.0, 1.0, 0.5])
    with pytest.raises(EmptySelection):
        omp_gram(A @ A.T, A @ -np.ones(8), OmpConfig(max_atoms=6))
    with pytest.raises(EmptySelection):
        omp_dense_oracle(A, -np.ones(8), 6)
    with pytest.raises(DimensionMismatch, match="width 8 but target has length 7"):
        omp_dense_oracle(A, np.ones(7), 6)
    with pytest.raises(DimensionMismatch, match="m 9 exceeds number of atoms 8"):
        omp_dense_oracle(A, b, 9)


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
    t = K.mean(axis=1)
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
    with pytest.raises(DimensionMismatch, match="must be >= 1"):
        omp_gram(np.eye(3), np.ones(3), OmpConfig(max_atoms=0))
    with pytest.raises(ValueError):
        Selection([1, 1], [1.0, 1.0])
    with pytest.raises(EmptySelection):
        Selection([], [])
    with pytest.raises(DimensionMismatch, match="2 indices but 1 weights"):
        Selection([0, 1], [1.0])
    with pytest.raises(ValueError, match="non-negative"):
        Selection([2, -1], [1.0, 1.0])
