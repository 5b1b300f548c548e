import copy
import multiprocessing
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selbp.model
from selbp.errors import DimensionMismatch
from selbp.model import (
    _SPLIT_MADDS,
    ACTIVATIONS,
    BatchTape,
    Mlp,
    _beside,
    _forward,
    _side_thread_helps,
    accuracy,
    forward_tape,
    gram_implicit,
    per_example_grads,
    weighted_backward,
)
from selbp.selection import Selection
from selbp.oracles import fd_gradient, gradient_check, proxy_error, proxy_identity


def full_selection(M):
    return Selection(np.arange(M), np.ones(M))


def backward(model, X, y, sel):
    """The weighted gradient after the forward pass over the whole batch."""
    return weighted_backward(model, X, y, sel, tape=forward_tape(model, X, y))


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
    # P is the gradient of the softmax cross-entropy w.r.t. the logits, which
    # on a single linear layer is the gradient w.r.t. its bias.
    rng = np.random.default_rng(1)
    model = Mlp(layers=[(rng.standard_normal((4, 4)), np.zeros(4))])
    X = rng.standard_normal((4, 4))
    y = rng.integers(0, 4, 4)
    tape = forward_tape(model, X, y)
    for i in range(4):
        fd_bias = fd_gradient(model, X[i : i + 1], y[i : i + 1])[-4:]
        assert np.abs(fd_bias - tape.P[i]).max() <= 1e-6 * max(1.0, np.abs(tape.P[i]).max())


def test_p_rows_sum_to_zero():
    rng = np.random.default_rng(2)
    model = Mlp.init([3, 8, 5], seed=0)
    tape = forward_tape(model, rng.standard_normal((10, 3)), rng.integers(0, 5, 10))
    np.testing.assert_allclose(tape.P.sum(axis=1), np.zeros(10), atol=1e-12)


def test_full_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for activation in ("relu", "tanh"):
        ok, detail = gradient_check(Mlp.init([2, 16, 3], activation=activation, seed=4), rng, 3)
        assert ok, f"{activation}: {detail}"


def test_weighted_backward_unit_weights_is_mean():
    rng = np.random.default_rng(4)
    model = Mlp.init([3, 6, 4], seed=5)
    X = rng.standard_normal((7, 3))
    y = rng.integers(0, 4, 7)
    grad = backward(model, X, y, full_selection(7))
    mean = per_example_grads(model, X, y).mean(axis=0)
    np.testing.assert_allclose(grad, mean, rtol=1e-12, atol=1e-15)


def test_weighted_backward_single_example():
    rng = np.random.default_rng(5)
    model = Mlp.init([3, 6, 4], seed=6)
    X = rng.standard_normal((7, 3))
    y = rng.integers(0, 4, 7)
    grad = backward(model, X, y, Selection([2], [1.0]))
    np.testing.assert_allclose(grad, per_example_grads(model, X, y)[2], rtol=1e-12, atol=1e-15)


def test_weighted_backward_arbitrary_weights():
    rng = np.random.default_rng(6)
    model = Mlp.init([2, 5, 3], seed=7)
    X = rng.standard_normal((9, 2))
    y = rng.integers(0, 3, 9)
    idx = np.array([1, 3, 8])
    w = np.array([0.5, 2.0, 0.25])
    grad = backward(model, X, y, Selection(idx, w))
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
    expected = w @ per_example_grads(model, X[idx], y[idx]) / 3
    tape = forward_tape(model, X, y)
    unselected = np.setdiff1d(np.arange(10), idx)
    for array in (*tape.inputs, tape.P):
        array[unselected] = np.nan
    grad = weighted_backward(model, X, y, Selection(idx, w), tape=tape)
    assert np.isfinite(grad).all()
    np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_weighted_backward_from_tape_matches_oracle(activation):
    rng = np.random.default_rng(21)
    model = Mlp.init([4, 7, 6, 3], activation=activation, seed=22)
    X = rng.standard_normal((12, 4))
    y = rng.integers(0, 3, 12)
    idx = np.array([9, 0, 5, 11, 3])
    w = np.array([0.3, 2.1, 0.0, 1.4, 1.2])
    grad = backward(model, X, y, Selection(idx, w))
    expected = w @ per_example_grads(model, X, y)[idx] / idx.size
    np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=0)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    activation=st.sampled_from(ACTIVATIONS),
    seed=st.integers(0, 2**32 - 1),
    M=st.integers(1, 12),
    whole_batch=st.booleans(),
)
def test_weighted_backward_is_the_weighted_per_example_mean(activation, seed, M, whole_batch):
    # The whole batch in order reads the tape's arrays; any other selection
    # gathers its rows. Both must give (1/|I|) sum_i gamma_i grad_i.
    rng = np.random.default_rng(seed)
    model = Mlp.init([3, 5, 4, 3], activation=activation, seed=seed)
    X = rng.standard_normal((M, 3))
    y = rng.integers(0, 3, M)
    if whole_batch:
        sel = full_selection(M)
    else:
        idx = rng.permutation(M)[: rng.integers(1, M + 1)]
        w = rng.uniform(0.0, 2.0, idx.size) * (rng.random(idx.size) < 0.7)
        sel = Selection(idx, w)
    grad = backward(model, X, y, sel)
    expected = sel.weights @ per_example_grads(model, X, y)[sel.indices] / sel.size
    assert np.linalg.norm(grad - expected) <= 1e-10 * np.linalg.norm(expected)


def test_weighted_backward_rejects_a_tape_without_layer_inputs():
    model = Mlp.init([3, 6, 4], seed=16)
    X, y = np.zeros((4, 3)), np.zeros(4, dtype=int)
    tape = forward_tape(model, X, y)
    bare = BatchTape(H=tape.H, P=tape.P, losses=tape.losses)
    with pytest.raises(DimensionMismatch):
        weighted_backward(model, X, y, Selection([0], [1.0]), tape=bare)
    with pytest.raises(DimensionMismatch):
        weighted_backward(model, X[:3], y[:3], Selection([0], [1.0]), tape=tape)


def test_weighted_backward_validation():
    model = Mlp.init([3, 6, 4], seed=15)
    X, y = np.zeros((4, 3)), np.zeros(4, dtype=int)
    tape = forward_tape(model, X, y)
    with pytest.raises(DimensionMismatch):
        weighted_backward(model, X, y, Selection([4], [1.0]), tape=tape)
    with pytest.raises(DimensionMismatch):
        weighted_backward(model, X, y[:3], Selection([0], [1.0]), tape=tape)


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
    ok, detail = proxy_identity(np.random.default_rng(9), 3)
    assert ok, detail


def test_last_layer_check_zero_gradients():
    # A saturated softmax: the output gradients, and with them every
    # last-layer gradient and Gram entry, are exactly zero.
    model = Mlp(layers=[(1000.0 * np.eye(2), np.zeros(2))])
    X = np.eye(2)
    y = np.arange(2)
    assert not forward_tape(model, X, y).P.any()
    assert proxy_error(model, X, y) == 0.0


def test_param_roundtrip_and_validation():
    model = Mlp.init([2, 4, 3], seed=12)
    theta = model.get_params()
    model.set_params(theta * 2)
    np.testing.assert_array_equal(model.get_params(), theta * 2)
    with pytest.raises(DimensionMismatch):
        model.set_params(theta[:-1])
    with pytest.raises(DimensionMismatch):
        forward_tape(model, np.zeros((3, 5)), np.zeros(3, dtype=int))
    with pytest.raises(DimensionMismatch, match="labels do not match"):
        forward_tape(model, np.zeros((3, 2)), np.zeros(2, dtype=int))
    for label in (-1, 3):  # three classes
        with pytest.raises(DimensionMismatch, match="label outside"):
            forward_tape(model, np.zeros((3, 2)), np.array([0, label, 0]))


@pytest.mark.parametrize("sizes", [[2, 0, 3], [0, 4, 3], [2, 4, 0]])
def test_init_rejects_an_empty_layer(sizes):
    with pytest.raises(DimensionMismatch, match="layer size"):
        Mlp.init(sizes)


def test_set_params_makes_the_model_read_the_given_vector():
    model = Mlp.init([2, 4, 3], seed=13)
    flat = model.get_params()
    model.set_params(flat)
    flat += 1.0  # in place, as sgd_update moves theta
    np.testing.assert_array_equal(model.get_params(), flat)
    for W, b in model.layers:
        assert np.shares_memory(W, flat) and np.shares_memory(b, flat)
    # A deep copy owns its parameters, as a replayed step needs: writing into
    # it, or pointing it at another vector, leaves the original as it was.
    twin = copy.deepcopy(model)
    twin.layers[0][1][:] = 7.0
    twin.set_params(np.zeros_like(flat))
    np.testing.assert_array_equal(model.get_params(), flat)


def test_accuracy_and_predict():
    model = Mlp(layers=[(np.eye(2), np.zeros(2))])
    X = np.array([[2.0, 0.0], [0.0, 2.0]])
    assert accuracy(model, X, np.array([0, 1])) == 1.0


def test_accuracy_in_chunks_equals_whole_set_predictions():
    rng = np.random.default_rng(31)
    model = Mlp.init([8, 32, 5], seed=32)
    X = rng.standard_normal((1300, 8))  # two full chunks and a partial one
    y = rng.integers(0, 5, 1300)
    assert accuracy(model, X, y) == (_forward(model, X)[1].argmax(axis=1) == y).mean()


def test_accuracy_rejects_an_empty_set_and_non_finite_logits():
    model = Mlp.init([2, 4, 3], seed=33)
    with pytest.raises(DimensionMismatch):
        accuracy(model, np.zeros((0, 2)), np.zeros(0, dtype=int))
    model.layers[-1][1][0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        accuracy(model, np.ones((3, 2)), np.zeros(3, dtype=int))


def peak_traced_bytes(fn):
    """Peak bytes that numpy and Python allocate while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def large_net_batch(N):
    """The 64-512-512-10 net, on which one 512 x 512 activation is 2 MiB."""
    rng = np.random.default_rng(34)
    X, y = rng.standard_normal((N, 64)), rng.integers(0, 10, N)
    return Mlp.init([64, 512, 512, 10], seed=35), X, y


def test_accuracy_holds_one_chunk_of_activations():
    model, X, y = large_net_batch(2000)
    assert peak_traced_bytes(lambda: accuracy(model, X, y)) < 8 * 2**20


def test_whole_batch_backward_reads_the_tape_without_copying_it():
    model, X, y = large_net_batch(512)
    tape = forward_tape(model, X, y)
    sel = full_selection(512)
    assert peak_traced_bytes(lambda: weighted_backward(model, X, y, sel, tape=tape)) < 8 * 2**20


# ------------------------------------------------------------- side thread


def step_outputs(model, X, y, X_test, y_test):
    """Everything a step and an evaluation compute from the big matmuls."""
    tape = forward_tape(model, X, y)
    rng = np.random.default_rng(36)
    idx = np.sort(rng.choice(X.shape[0], X.shape[0] // 4, replace=False))
    subset = Selection(idx, rng.uniform(0.5, 2.0, idx.size))
    return [*tape.inputs, tape.P, tape.losses,
            weighted_backward(model, X, y, full_selection(X.shape[0]), tape=tape),
            weighted_backward(model, X, y, subset, tape=tape),
            gram_implicit(tape), np.array(accuracy(model, X_test, y_test))]


@pytest.mark.parametrize("sizes, M, splits", [
    ([64, 512, 512, 10], 512, True),  # the benchmark's net and batch
    ([64, 512, 512, 10], 320, True),  # its partial last batch
    ([8, 32, 5], 512, False),  # too small for any call to leave this thread
    ([64, 512, 512, 10], 500, True),  # Gram blocks that do not round as one syrk
])
def test_side_thread_and_inline_give_the_same_bits(side, monkeypatch, sizes, M, splits):
    rng = np.random.default_rng(34)
    N = M + 1100  # test rows: two whole chunks and a partial one
    X, y = rng.standard_normal((N, sizes[0])), rng.integers(0, sizes[-1], N)
    args = Mlp.init(sizes, seed=35), X[:M], y[:M], X[M:], y[M:]
    threaded = step_outputs(*args)
    assert (side.calls > 0) == splits
    monkeypatch.setitem(selbp.model._side, os.getpid(), None)
    calls = side.calls
    inline = step_outputs(*args)
    assert side.calls == calls
    for a, b in zip(threaded, inline, strict=True):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("env, cpus, helps", [
    ({}, 2, False),  # BLAS runs a thread per CPU already
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
    ({"OMP_NUM_THREADS": "1"}, 2, True),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),  # no second CPU to run on
    ({}, 1, False),
])
def test_a_side_thread_runs_only_beside_a_one_thread_blas_with_a_cpu_to_spare(
        monkeypatch, env, cpus, helps):
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(selbp.model.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert _side_thread_helps() == helps


def test_a_process_that_multiprocessing_started_runs_no_side_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(selbp.model.os, "sched_getaffinity", lambda pid: {0, 1})
    assert _side_thread_helps()
    parent = multiprocessing.current_process()  # a child's parent_process() is not None
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: parent)
    assert not _side_thread_helps()


def test_a_process_whose_blas_is_threaded_runs_every_call_inline(monkeypatch):
    monkeypatch.setitem(selbp.model._side, os.getpid(), None)
    monkeypatch.delitem(selbp.model._side, os.getpid())  # as in a fresh process
    monkeypatch.setattr(selbp.model, "_side_thread_helps", lambda: False)
    A = np.ones((256, 256))  # 2^24 multiply-adds: big enough for a side thread
    out = np.empty_like(A)
    with _beside(A, A, out):
        assert (out == 256).all()  # run before the block, on this thread
    assert selbp.model._side[os.getpid()] is None


@pytest.mark.parametrize("sizes, M, splits", [
    pytest.param([512, 512], 512, True, id="512"),  # a batch
    pytest.param([512, 512], 464, True, id="464"),  # accuracy's last chunk
    pytest.param([512, 512], 320, True, id="320"),  # the last batch
    # Below _SPLIT_MADDS: an empty top half, and the whole matmul in one call.
    pytest.param([3, 10, 4], 5, False, id="3-10-4"),
    pytest.param([64, 512], 512, False, id="input-layer"),  # the benchmark net's input layer
    pytest.param([512, 10], 512, False, id="head"),  # and its head
])
def test_a_split_hidden_layer_equals_the_whole_matmul(sizes, M, splits):
    rng = np.random.default_rng(37)
    layers = [(W, rng.standard_normal(W.shape[0])) for W, _ in Mlp.init(sizes, seed=38).layers]
    a = np.maximum(rng.standard_normal((M, sizes[0])), 0.0)
    assert all((M // 2 * W.size >= _SPLIT_MADDS) == splits for W, _ in layers)
    want = a
    for li, (W, b) in enumerate(layers):
        want = (want if li == 0 else np.maximum(want, 0.0)) @ W.T + b
    np.testing.assert_array_equal(_forward(Mlp(layers=layers), a)[1], want)


def test_the_side_thread_gets_the_large_forward_halves_and_weight_gradients(side):
    model, X, y = large_net_batch(512)
    tape = forward_tape(model, X, y)
    assert side.calls == 1  # the 512 x 512 layer's first row half
    weighted_backward(model, X, y, full_selection(512), tape=tape)
    assert side.calls == 3  # that layer's delta^T a and the input layer's delta^T X
    weighted_backward(model, X, y, Selection(np.arange(128), np.ones(128)), tape=tape)
    assert side.calls == 4  # the 512 x 512 layer's delta^T a alone


def test_the_side_thread_gets_the_off_diagonal_block_of_a_large_gram(side):
    tape = forward_tape(*large_net_batch(512))
    calls = side.calls
    gram_implicit(tape)
    assert side.calls == calls + 1  # H's lower rows times its upper rows
    tape = forward_tape(*large_net_batch(320))
    calls = side.calls
    gram_implicit(tape)
    assert side.calls == calls  # 160 x 160 x 512 is below _SPLIT_MADDS: one syrk


def test_a_side_thread_error_reaches_the_caller_and_the_thread_serves_on(side, monkeypatch):
    monkeypatch.setattr(selbp.model, "_SPLIT_MADDS", 1)  # small calls go to the side thread
    ran = []
    with pytest.raises(ValueError, match="matmul"):
        with _beside(np.ones((2, 3)), np.ones((2, 3)), np.empty((2, 3))):
            ran.append(True)
    assert ran and side.calls == 1
    out = np.empty((2, 2))
    with _beside(np.ones((2, 3)), np.ones((3, 2)), out):
        pass
    assert side.calls == 2 and (out == 3).all()


def test_the_side_call_finishes_before_an_error_in_the_block_leaves_it(side):
    A = np.ones((600, 600))
    out = np.zeros_like(A)
    with pytest.raises(KeyError):
        with _beside(A, A, out):
            raise KeyError("block")
    assert side.calls == 1 and (out == 600).all()


def test_side_work_runs_under_the_callers_error_state(side, monkeypatch):
    monkeypatch.setattr(selbp.model, "_SPLIT_MADDS", 1)  # small calls go to the side thread
    big = np.full((2, 2), 1e200)
    out = np.empty((2, 2))
    with np.errstate(over="ignore"):  # a RuntimeWarning would be an error here
        with _beside(big, big, out):
            pass
    assert np.isinf(out).all()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        with _beside(big, big, out):
            pass
    assert side.calls == 2


def test_callers_on_several_threads_share_the_side_thread_safely(side, monkeypatch):
    # Four caller threads, switching as often as the interpreter allows, each
    # hand the side thread calls on their own arrays; a call waited on by the
    # wrong caller, or lost, leaves some caller's output unfinished.
    monkeypatch.setattr(selbp.model, "_SPLIT_MADDS", 1)  # small calls go to the side thread
    two = 2.0 * np.eye(8)

    def caller(k, outs):
        x = (np.arange(64.0) + k).reshape(8, 8)
        for _ in range(50):
            out = np.zeros((8, 8))
            with _beside(x, two, out):
                pass
            outs.append(np.array_equal(out, 2 * x))

    results = [[] for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k, results[k])) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(r) == 50 and all(r) for r in results) and side.calls > 0
