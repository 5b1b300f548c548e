import numpy as np
import pytest

from selbp.errors import DimensionMismatch
from selbp.gram import (
    BatchTape,
    explicit_gradients,
    gram_explicit,
    gram_implicit,
    mean_correlations,
)


def random_tape(rng, M=None, D=None, C=None):
    M = M or int(rng.integers(2, 33))
    D = D or int(rng.integers(1, 17))
    C = C or int(rng.integers(1, 9))
    return BatchTape(
        H=rng.standard_normal((M, D)),
        P=rng.standard_normal((M, C)),
        losses=np.abs(rng.standard_normal(M)),
    )


def rel_max_err(A, B):
    return np.abs(A - B).max() / np.abs(B).max()


def test_zero_inputs_leave_bias_term():
    rng = np.random.default_rng(0)
    P = rng.standard_normal((5, 3))
    tape = BatchTape(H=np.zeros((5, 4)), P=P, losses=np.zeros(5))
    np.testing.assert_allclose(gram_implicit(tape), P @ P.T, atol=1e-15)


def test_single_unit_example():
    tape = BatchTape(H=np.array([[1.0, 0.0]]), P=np.array([[1.0, 0.0]]), losses=[0.5])
    np.testing.assert_array_equal(gram_implicit(tape), [[2.0]])


def test_scalar_example_explicit():
    tape = BatchTape(H=np.array([[2.0]]), P=np.array([[3.0]]), losses=[1.0])
    np.testing.assert_array_equal(explicit_gradients(tape), [[6.0, 3.0]])
    np.testing.assert_array_equal(gram_explicit(tape), [[45.0]])
    np.testing.assert_array_equal(gram_implicit(tape), [[45.0]])


def test_orthogonal_output_grads_zero_entry():
    rng = np.random.default_rng(1)
    H = rng.standard_normal((2, 6))
    P = np.array([[1.0, 0.0], [0.0, 2.0]])
    tape = BatchTape(H=H, P=P, losses=np.zeros(2))
    assert gram_explicit(tape)[0, 1] == 0.0
    assert gram_implicit(tape)[0, 1] == 0.0


def test_implicit_matches_explicit_randomized():
    rng = np.random.default_rng(2)
    for _ in range(50):
        tape = random_tape(rng)
        assert rel_max_err(gram_implicit(tape), gram_explicit(tape)) < 1e-12


def test_diagonal_is_squared_gradient_norm():
    rng = np.random.default_rng(4)
    tape = random_tape(rng, M=8, D=5, C=3)
    K = gram_implicit(tape)
    expected = (np.sum(tape.H**2, axis=1) + 1.0) * np.sum(tape.P**2, axis=1)
    np.testing.assert_allclose(np.diag(K), expected, rtol=1e-12)


def test_exactly_symmetric():
    rng = np.random.default_rng(5)
    K = gram_implicit(random_tape(rng))
    np.testing.assert_array_equal(K, K.T)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("M,D,C", [(512, 512, 10), (300, 77, 5), (7, 1, 1)])
def test_exactly_symmetric_across_shapes_and_layouts(M, D, C, layout):
    rng = np.random.default_rng(M + D + C)
    H = rng.standard_normal((M, 2 * D))
    P = rng.standard_normal((M, 2 * C))
    if layout == "strided":
        H, P = H[:, ::2], P[:, ::2]
    else:
        H, P = np.asarray(H[:, :D], order=layout), np.asarray(P[:, :C], order=layout)
    tape = BatchTape(H=H, P=P, losses=np.zeros(M))
    K = gram_implicit(tape)
    np.testing.assert_array_equal(K, K.T)


def test_psd_spot_check():
    rng = np.random.default_rng(6)
    K = gram_implicit(random_tape(rng, M=12))
    eigs = np.linalg.eigvalsh(K)
    assert eigs.min() >= -1e-8 * np.abs(K).max()
    assert (np.diag(K) >= 0).all()


def test_mean_correlations_identity_and_ones():
    np.testing.assert_array_equal(mean_correlations(np.eye(4)), np.full(4, 0.25))
    np.testing.assert_array_equal(mean_correlations(np.ones((3, 3))), np.ones(3))


def test_mean_correlations_matches_explicit_mean_gradient():
    rng = np.random.default_rng(7)
    tape = random_tape(rng, M=10, D=6, C=4)
    V = explicit_gradients(tape)
    gbar = V.mean(axis=0)
    t = mean_correlations(gram_implicit(tape))
    np.testing.assert_allclose(t, V @ gbar, rtol=1e-12, atol=1e-12)
    # summed correlations equal M * ||gbar||^2
    np.testing.assert_allclose(t.sum(), tape.M * gbar @ gbar, rtol=1e-12)


def test_tape_validation():
    with pytest.raises(DimensionMismatch):
        BatchTape(H=np.zeros((3, 2)), P=np.zeros((2, 2)), losses=np.zeros(3))
    with pytest.raises(ValueError):
        BatchTape(H=np.full((2, 2), np.nan), P=np.zeros((2, 2)), losses=np.zeros(2))
    with pytest.raises(DimensionMismatch):
        mean_correlations(np.zeros((2, 3)))
