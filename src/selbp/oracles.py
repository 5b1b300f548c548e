"""Reference implementations, written for clarity rather than speed, and the
checks that compare the package with them. The references: the last-layer
gradients that ``gram_implicit`` never forms and their Gram, textbook OMP on
explicit vectors, and the matching objective. The checks, shared by ``selbp
selftest`` and the test suite, compare a routine with an oracle on random
instances from the caller's generator and return (passed, detail);
:func:`selftest` is the table of them that ``selbp selftest`` prints. Only
that command and the tests load this module: no run needs it.
"""

import numpy as np

from .errors import DimensionMismatch, EmptySelection
from .model import (ACTIVATIONS, BatchTape, Mlp, forward_tape, gram_implicit,
                    per_example_grads, weighted_backward)
from .selection import OmpConfig, Selection, omp_gram


def explicit_gradients(tape):
    """Flattened last-layer gradients [vec(p_i h_i^T); p_i], one row per example."""
    outer = np.einsum("mc,md->mcd", tape.P, tape.H).reshape(tape.M, -1)
    return np.concatenate([outer, tape.P], axis=1)


def gram_explicit(tape):
    """Brute-force Gram matrix from explicitly materialized gradients. They
    are one contiguous buffer, so ``V @ V.T`` is exactly symmetric."""
    V = explicit_gradients(tape)
    return V @ V.T


def omp_dense_oracle(atoms, target, m):
    """Textbook OMP on explicit atom vectors (rows of ``atoms``).

    Greedy residual-correlation selection with a full least-squares refit
    after every addition.
    """
    A = np.asarray(atoms, dtype=np.float64)
    b = np.asarray(target, dtype=np.float64).reshape(-1)
    M = A.shape[0]
    if A.shape[1] != b.shape[0]:
        raise DimensionMismatch(
            f"atoms have width {A.shape[1]} but target has length {b.shape[0]}"
        )
    if m > M:
        raise DimensionMismatch(f"m {m} exceeds number of atoms {M}")

    resid = b.copy()
    available = np.ones(M, dtype=bool)
    indices = []
    gamma = np.zeros(0)

    while len(indices) < m:
        masked = np.where(available, A @ resid, -np.inf)
        k = int(np.argmax(masked))
        if masked[k] <= 0.0:
            if not indices:
                raise EmptySelection("no atom correlates with the target")
            break
        indices.append(k)
        available[k] = False
        gamma, *_ = np.linalg.lstsq(A[indices].T, b, rcond=None)
        resid = b - A[indices].T @ gamma

    return Selection(np.array(indices), gamma)


def residual_norm_sq(K, t, t0, sel):
    """Matching objective ||sum_i gamma_i g_i - gbar||^2 from inner products.

    ``t0`` is ||gbar||^2, the mean of t when t holds the row means of K.
    """
    K = np.asarray(K, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    idx = sel.indices
    g = sel.weights
    quad = g @ K[np.ix_(idx, idx)] @ g
    return float(quad - 2.0 * (g @ t[idx]) + t0)


def fd_gradient(model, X, y, h=1e-5):
    """Central finite differences of the mean loss in every parameter."""
    theta = model.get_params()
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        model.set_params(theta + step)
        up = forward_tape(model, X, y).losses.mean()
        model.set_params(theta - step)
        down = forward_tape(model, X, y).losses.mean()
        fd[i] = (up - down) / (2 * h)
    model.set_params(theta)
    return fd


def gram_identity(rng, trials):
    """``gram_implicit`` equals ``gram_explicit`` to 1e-12 (relative) on tapes
    of up to 32 rows, 16 features and 8 classes."""
    worst = 0.0
    for _ in range(trials):
        M, D, C = (int(rng.integers(lo, hi)) for lo, hi in ((2, 33), (1, 17), (1, 9)))
        H, P = rng.standard_normal((M, D)), rng.standard_normal((M, C))
        tape = BatchTape(H=H, P=P, losses=np.abs(rng.standard_normal(M)))
        Ke = gram_explicit(tape)
        worst = max(worst, np.abs(gram_implicit(tape) - Ke).max() / np.abs(Ke).max())
    return worst <= 1e-12, f"max relative error {worst:.2e}"


def proxy_error(model, X, y):
    """Largest relative gap between the implicit last-layer proxy and the real
    gradients: ``explicit_gradients`` of the forward tape against the last-layer
    block of ``per_example_grads``, and ``gram_implicit`` against that block's
    Gram. A pair that is all zero on both sides counts as exact."""
    tape = forward_tape(model, X, y)
    built = explicit_gradients(tape)
    real = per_example_grads(model, X, y)[:, -built.shape[1]:]
    worst = 0.0
    for ours, theirs in ((built, real), (gram_implicit(tape), real @ real.T)):
        scale = max(np.abs(ours).max(), np.abs(theirs).max())
        if scale > 0.0:
            worst = max(worst, np.abs(ours - theirs).max() / scale)
    return float(worst)


def proxy_identity(rng, trials):
    """``proxy_error`` is within 1e-10 on 16 rows through a 3-10-4 net, per
    trial one with ReLU and one with tanh."""
    worst = 0.0
    for _ in range(trials):
        for act in ACTIVATIONS:
            model = Mlp.init([3, 10, 4], seed=rng.integers(1000), activation=act)
            X = rng.standard_normal((16, 3))
            worst = max(worst, proxy_error(model, X, rng.integers(0, 4, 16)))
    return worst <= 1e-10, f"max relative error {worst:.2e}"


def omp_oracle(rng, trials):
    """``omp_gram`` picks ``omp_dense_oracle``'s atoms in order, weights within
    1e-8, objective never rising with ``max_atoms``, on 4-64 atoms matching their mean."""
    for _ in range(trials):
        M = int(rng.integers(4, 65))
        A = rng.standard_normal((M, M + 16))
        b = A.mean(axis=0)
        K, t = A @ A.T, A @ b
        m = int(rng.integers(1, min(M, 16) + 1))
        dense = omp_dense_oracle(A, b, m)
        sel = omp_gram(K, t, OmpConfig(max_atoms=m))
        if not np.array_equal(dense.indices, sel.indices):
            return False, "index sequences differ"
        if np.abs(dense.weights - sel.weights).max() > 1e-8:
            return False, "weights differ beyond 1e-8"
        t0 = prev = float(b @ b)
        for k in range(1, sel.size + 1):
            obj = residual_norm_sq(K, t, t0, omp_gram(K, t, OmpConfig(max_atoms=k)))
            if obj > prev + 1e-10 * max(t0, 1.0):
                return False, f"objective increased at step {k}"
            prev = obj
    return True, f"{trials} instances agree; objective monotone"


def gradient_check(model, rng, trials):
    """The gradient of 5 rows at jittered parameters equals finite differences
    to 1e-6 and the per-example mean to 1e-12 (relative); restores the model."""
    theta0 = model.get_params()
    full = Selection(np.arange(5), np.ones(5))
    fd_err = mean_err = 0.0
    for _ in range(trials):
        model.set_params(theta0 + 0.2 * rng.standard_normal(theta0.size))
        X = rng.standard_normal((5, model.layers[0][0].shape[1]))
        y = rng.integers(0, model.num_classes, 5)
        grad = weighted_backward(model, X, y, full, tape=forward_tape(model, X, y))
        fd_err = max(fd_err, np.linalg.norm(fd_gradient(model, X, y) - grad) / np.linalg.norm(grad))
        mean = per_example_grads(model, X, y).mean(axis=0)
        mean_err = max(mean_err, np.abs(grad - mean).max() / max(np.abs(mean).max(), 1.0))
    model.set_params(theta0)
    ok = fd_err <= 1e-6 and mean_err <= 1e-12
    return ok, f"fd rel err {fd_err:.2e}, mean rel err {mean_err:.2e}"


def selftest():
    """The checks ``selbp selftest`` runs, in order, on one generator seeded
    12345; returns (name, passed, detail) for each."""
    rng = np.random.default_rng(12345)
    return [
        ("gram implicit vs explicit", *gram_identity(rng, 20)),
        ("gram-OMP vs dense oracle", *omp_oracle(rng, 20)),
        ("full-gradient finite differences",
         *gradient_check(Mlp.init([2, 16, 3], seed=7), rng, 1)),
        ("last-layer proxy identity", *proxy_identity(rng, 1)),
    ]
