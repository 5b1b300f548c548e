import numpy as np
import pytest

from selbp.errors import DimensionMismatch
from selbp.gram import gram_implicit
from selbp.model import (
    Mlp,
    accuracy,
    forward_tape,
    last_layer_grad_check,
    mean_loss,
    per_example_grads,
    weighted_backward,
)
from selbp.omp import Selection


def full_selection(M):
    return Selection(np.arange(M), np.ones(M))


def fd_gradient(model, X, y, h=1e-5):
    theta = model.get_params()
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        model.set_params(theta + step)
        up = mean_loss(model, X, y)
        model.set_params(theta - step)
        down = mean_loss(model, X, y)
        fd[i] = (up - down) / (2 * h)
    model.set_params(theta)
    return fd


def test_uniform_logits_give_log_c_loss():
    model = Mlp(layers=[(np.zeros((4, 3)), np.zeros(4))])
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 3))
    y = rng.integers(0, 4, 6)
    tape = forward_tape(model, X, y)
    np.testing.assert_allclose(tape.losses, np.log(4.0), rtol=1e-14)
    expected_P = np.full((6, 4), 0.25)
    expected_P[np.arange(6), y] -= 1.0
    np.testing.assert_allclose(tape.P, expected_P, rtol=1e-14)


def test_saturated_correct_prediction():
    # One linear layer = identity x margin: correct logit dominates.
    model = Mlp(layers=[(50.0 * np.eye(3), np.zeros(3))])
    X = np.eye(3)
    y = np.arange(3)
    tape = forward_tape(model, X, y)
    assert tape.losses.max() < 1e-10
    assert np.abs(tape.P).max() < 1e-10


def test_output_gradient_matches_finite_differences_on_logits():
    # P is the gradient of the softmax cross-entropy w.r.t. the logits.
    rng = np.random.default_rng(1)
    model = Mlp(layers=[(rng.standard_normal((4, 4)), np.zeros(4))])
    X = np.eye(4)  # logits = W columns, so dlogits = dW rows via identity input
    y = rng.integers(0, 4, 4)
    tape = forward_tape(model, X, y)
    h = 1e-5
    logits = X @ model.layers[0][0].T

    def loss_of(z_row, label):
        zmax = z_row.max()
        return np.log(np.exp(z_row - zmax).sum()) + zmax - z_row[label]

    for i in range(4):
        for c in range(4):
            up, down = logits[i].copy(), logits[i].copy()
            up[c] += h
            down[c] -= h
            fd = (loss_of(up, y[i]) - loss_of(down, y[i])) / (2 * h)
            assert abs(fd - tape.P[i, c]) <= 1e-6 * max(1.0, abs(tape.P[i, c]))


def test_p_rows_sum_to_zero():
    rng = np.random.default_rng(2)
    model = Mlp.init([3, 8, 5], seed=0)
    tape = forward_tape(model, rng.standard_normal((10, 3)), rng.integers(0, 5, 10))
    np.testing.assert_allclose(tape.P.sum(axis=1), np.zeros(10), atol=1e-12)


def test_full_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    model = Mlp.init([2, 16, 3], seed=4)
    for _ in range(3):
        X = rng.standard_normal((5, 2))
        y = rng.integers(0, 3, 5)
        model.set_params(model.get_params() + 0.1 * rng.standard_normal(model.n_params))
        grad = weighted_backward(model, X, y, full_selection(5))
        fd = fd_gradient(model, X, y)
        assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)


def test_weighted_backward_unit_weights_is_mean():
    rng = np.random.default_rng(4)
    model = Mlp.init([3, 6, 4], seed=5)
    X = rng.standard_normal((7, 3))
    y = rng.integers(0, 4, 7)
    grad = weighted_backward(model, X, y, full_selection(7))
    mean = per_example_grads(model, X, y).mean(axis=0)
    np.testing.assert_allclose(grad, mean, rtol=1e-12, atol=1e-15)


def test_weighted_backward_single_example():
    rng = np.random.default_rng(5)
    model = Mlp.init([3, 6, 4], seed=6)
    X = rng.standard_normal((7, 3))
    y = rng.integers(0, 4, 7)
    grad = weighted_backward(model, X, y, Selection([2], [1.0]))
    np.testing.assert_allclose(grad, per_example_grads(model, X, y)[2], rtol=1e-12, atol=1e-15)


def test_weighted_backward_arbitrary_weights():
    rng = np.random.default_rng(6)
    model = Mlp.init([2, 5, 3], seed=7)
    X = rng.standard_normal((9, 2))
    y = rng.integers(0, 3, 9)
    idx = np.array([1, 3, 8])
    w = np.array([0.5, 2.0, 0.25])
    grad = weighted_backward(model, X, y, Selection(idx, w))
    pg = per_example_grads(model, X, y)
    expected = (w[:, None] * pg[idx]).sum(axis=0) / 3
    np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-15)


def test_weighted_backward_reads_only_selected_rows():
    rng = np.random.default_rng(13)
    model = Mlp.init([3, 6, 4], seed=14)
    X = rng.standard_normal((10, 3))
    y = rng.integers(0, 4, 10)
    idx = np.array([7, 2, 5])
    w = np.array([1.5, 0.25, 1.25])
    X[np.setdiff1d(np.arange(10), idx)] = np.nan
    grad = weighted_backward(model, X, y, Selection(idx, w))
    assert np.isfinite(grad).all()
    expected = w @ per_example_grads(model, X[idx], y[idx]) / 3
    np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-15)


def test_weighted_backward_validation():
    model = Mlp.init([3, 6, 4], seed=15)
    X = np.zeros((4, 3))
    with pytest.raises(DimensionMismatch):
        weighted_backward(model, X, np.zeros(4, dtype=int), Selection([4], [1.0]))
    with pytest.raises(DimensionMismatch):
        weighted_backward(model, X, np.zeros(3, dtype=int), Selection([0], [1.0]))


def test_per_example_grads_duplicates_identical():
    rng = np.random.default_rng(7)
    model = Mlp.init([3, 4, 2], seed=8)
    x = rng.standard_normal((1, 3))
    X = np.vstack([x, rng.standard_normal((2, 3)), x])
    y = np.array([1, 0, 1, 1])
    pg = per_example_grads(model, X, y)
    np.testing.assert_array_equal(pg[0], pg[3])


def test_per_example_grads_match_finite_differences():
    rng = np.random.default_rng(8)
    model = Mlp.init([2, 16, 3], seed=9)
    X = rng.standard_normal((3, 2))
    y = rng.integers(0, 3, 3)
    pg = per_example_grads(model, X, y)
    for i in range(3):
        fd = fd_gradient(model, X[i : i + 1], y[i : i + 1])
        assert np.linalg.norm(fd - pg[i]) <= 1e-6 * np.linalg.norm(pg[i])


def test_last_layer_block_self_check():
    rng = np.random.default_rng(9)
    model = Mlp.init([4, 8, 3], seed=10, activation="tanh")
    X = rng.standard_normal((12, 4))
    y = rng.integers(0, 3, 12)
    assert last_layer_grad_check(model, X, y) <= 1e-10


def test_last_layer_check_zero_gradients():
    model = Mlp(layers=[(100.0 * np.eye(2), np.zeros(2))])
    X = np.eye(2)
    y = np.arange(2)
    assert last_layer_grad_check(model, X, y) == 0.0


def test_end_to_end_gram_identity_on_real_model():
    rng = np.random.default_rng(10)
    model = Mlp.init([3, 10, 4], seed=11)
    X = rng.standard_normal((16, 3))
    y = rng.integers(0, 4, 16)
    tape = forward_tape(model, X, y)
    K_implicit = gram_implicit(tape)
    pg = per_example_grads(model, X, y)
    last = pg[:, -(4 * 10 + 4) :]
    K_real = last @ last.T
    rel = np.abs(K_implicit - K_real).max() / np.abs(K_real).max()
    assert rel <= 1e-10


def test_param_roundtrip_and_validation():
    model = Mlp.init([2, 4, 3], seed=12)
    theta = model.get_params()
    model.set_params(theta * 2)
    np.testing.assert_array_equal(model.get_params(), theta * 2)
    with pytest.raises(DimensionMismatch):
        model.set_params(theta[:-1])
    with pytest.raises(DimensionMismatch):
        forward_tape(model, np.zeros((3, 5)), np.zeros(3, dtype=int))


def test_accuracy_and_predict():
    model = Mlp(layers=[(np.eye(2), np.zeros(2))])
    X = np.array([[2.0, 0.0], [0.0, 2.0]])
    assert accuracy(model, X, np.array([0, 1])) == 1.0
