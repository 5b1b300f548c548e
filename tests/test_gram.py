import numpy as np
import pytest

from selbp.errors import DimensionMismatch
from selbp.model import _SPLIT_MADDS, BatchTape, Mlp, forward_tape, gram_implicit
from selbp.oracles import explicit_gradients, gram_explicit, gram_identity


def random_tape(rng, M=None, D=None, C=None):
    M = M or int(rng.integers(2, 33))
    D = D or int(rng.integers(1, 17))
    C = C or int(rng.integers(1, 9))
    return BatchTape(
        H=rng.standard_normal((M, D)),
        P=rng.standard_normal((M, C)),
        losses=np.abs(rng.standard_normal(M)),
    )


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
    ok, detail = gram_identity(np.random.default_rng(2), 50)
    assert ok, detail


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
@pytest.mark.parametrize("M,D,C", [
    (512, 512, 10), (300, 77, 5), (7, 1, 1),
    (511, 512, 10),  # split into row halves whose blocks need not round as one syrk
])
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


@pytest.mark.parametrize("M, splits", [
    (512, True),  # the benchmark's batch: HH^T in row-half blocks
    (320, False),  # its last batch: one syrk
])
def test_the_gram_matches_the_whole_products_on_the_benchmarks_net(M, splits):
    rng = np.random.default_rng(8)
    model = Mlp.init([64, 512, 512, 10], seed=9)
    tape = forward_tape(model, rng.standard_normal((M, 64)), rng.integers(0, 10, M))
    assert (M // 2 * (M - M // 2) * tape.D >= _SPLIT_MADDS) == splits
    PPt = tape.P @ tape.P.T
    whole = (tape.H @ tape.H.T) * PPt + PPt
    if splits:
        # Whether the blocks round as one syrk depends on the BLAS build and
        # kernel. H >= 0 after ReLU, so summing D = 512 products in another
        # order moves an entry by at most about 2 * 512 units of roundoff.
        np.testing.assert_allclose(gram_implicit(tape), whole, rtol=2e-13, atol=0)
    else:  # the same single syrk
        np.testing.assert_array_equal(gram_implicit(tape), whole)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("M,D,C", [(512, 512, 10), (300, 77, 5), (7, 1, 1)])
def test_explicit_gram_exactly_symmetric_across_shapes_and_layouts(M, D, C, layout):
    # explicit_gradients returns one contiguous buffer, so V @ V.T needs no mirror.
    rng = np.random.default_rng(M + D + C)
    H = rng.standard_normal((M, 2 * D))
    P = rng.standard_normal((M, 2 * C))
    if layout == "strided":
        H, P = H[:, ::2], P[:, ::2]
    else:
        H, P = np.asarray(H[:, :D], order=layout), np.asarray(P[:, :C], order=layout)
    K = gram_explicit(BatchTape(H=H, P=P, losses=np.zeros(M)))
    np.testing.assert_array_equal(K, K.T)


def test_psd_spot_check():
    rng = np.random.default_rng(6)
    K = gram_implicit(random_tape(rng, M=12))
    eigs = np.linalg.eigvalsh(K)
    assert eigs.min() >= -1e-8 * np.abs(K).max()
    assert (np.diag(K) >= 0).all()


def test_gram_row_means_identity_and_ones():
    # With H = 0, K = PP^T: orthonormal rows of P give the identity, equal
    # unit rows the all-ones matrix.
    orthonormal = BatchTape(H=np.zeros((4, 3)), P=np.eye(4), losses=np.zeros(4))
    np.testing.assert_array_equal(gram_implicit(orthonormal).mean(axis=1), np.full(4, 0.25))
    equal = BatchTape(H=np.zeros((3, 3)), P=np.ones((3, 1)), losses=np.zeros(3))
    np.testing.assert_array_equal(gram_implicit(equal).mean(axis=1), np.ones(3))


def test_gram_row_means_match_explicit_mean_gradient():
    # The target select_grad_match hands to OMP: t = V gbar.
    rng = np.random.default_rng(7)
    tape = random_tape(rng, M=10, D=6, C=4)
    V = explicit_gradients(tape)
    gbar = V.mean(axis=0)
    t = gram_implicit(tape).mean(axis=1)
    np.testing.assert_allclose(t, V @ gbar, rtol=1e-12, atol=1e-12)
    # summed correlations equal M * ||gbar||^2
    np.testing.assert_allclose(t.sum(), tape.M * gbar @ gbar, rtol=1e-12)


def test_tape_validation():
    with pytest.raises(DimensionMismatch):
        BatchTape(H=np.zeros((3, 2)), P=np.zeros((2, 2)), losses=np.zeros(3))
    for H, P, losses in ((np.zeros(3), np.zeros((3, 2)), np.zeros(3)),
                         (np.zeros((3, 2)), np.zeros((3, 2, 1)), np.zeros(3)),
                         (np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 1)))):
        with pytest.raises(DimensionMismatch, match="2-D"):
            BatchTape(H=H, P=P, losses=losses)
    with pytest.raises(ValueError):
        BatchTape(H=np.full((2, 2), np.nan), P=np.zeros((2, 2)), losses=np.zeros(2))
