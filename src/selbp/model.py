"""From-scratch multilayer perceptron with a softmax cross-entropy head.

The network exposes exactly the forward-pass byproducts the selection
strategies need (last-layer inputs H, output gradients P, per-example
losses, from ``forward_tape`` as a :class:`BatchTape`), their Gram
(``gram_implicit``), a weighted backward pass and per-example gradients.
Its large matmuls run on its one side thread (``_beside``). Per-example
losses use sum semantics (no 1/M inside P); the 1/|I| mean appears only in
the weighted gradient estimate.
"""

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch

ACTIVATIONS = ("relu", "tanh")

# Rows per forward pass when a whole set is evaluated or its gradient summed.
CHUNK_ROWS = 512

# Multiply-adds from which _beside's matmul runs on the side thread, below which
# the hand-off costs more than it saves: a layer's forward row half and the Gram's
# off-diagonal HH^T block, each split off once it reaches it, and each backward
# delta^T a. Splits rounded as whole products on the benchmark's net, the Gram's at
# M a multiple of 16 (numpy 2.4's OpenBLAS 0.3.31); elsewhere the last bit may differ.
_SPLIT_MADDS = 2**24
# The variables OpenBLAS reads its thread count from, in its order.
OPENBLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_side = {}  # pid -> the process's one side thread, made on first use; None: off


def _side_thread_helps():
    """Whether a side thread adds a core: BLAS runs one thread (OpenBLAS takes
    the first positive variable, else one per usable CPU), the process may use
    a second CPU, and ``multiprocessing`` did not start it. A multi-threaded BLAS
    already spreads each call over the cores, and a pool's workers share them."""
    mp = sys.modules.get("multiprocessing")  # loaded in every child; not loaded here
    if mp is not None and mp.parent_process() is not None:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    counts = (os.environ.get(var, "").strip() for var in OPENBLAS_THREAD_VARS)
    return cpus > 1 and next((int(n) for n in counts if n.isdigit() and int(n) > 0), cpus) == 1


@contextmanager
def _beside(a, b, out):
    """Run ``np.matmul(a, b, out=out)`` beside the with-block: on the side
    thread under the caller's error state when it is on and the call's
    multiply-adds reach ``_SPLIT_MADDS``, else inline before the block. It has
    finished, its error raised, when the block exits."""
    if os.getpid() not in _side:  # setdefault: a racing first caller makes no second
        _side.setdefault(os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="selbp-side")
                         if _side_thread_helps() else None)
    if _side[os.getpid()] is None or a.shape[0] * a.shape[1] * b.shape[1] < _SPLIT_MADDS:
        np.matmul(a, b, out=out)
        yield
        return
    side = _side[os.getpid()].submit(np.errstate(**np.geterr())(np.matmul), a, b, out=out)
    try:
        yield
    finally:
        side.result()


def _act(z, kind):
    """The hidden activation, applied in place."""
    return np.maximum(z, 0.0, out=z) if kind == "relu" else np.tanh(z, out=z)


def _through_act(delta, a, kind):
    """delta * act'(z) in place, with act' read off the activation a = act(z)."""
    delta *= (a > 0) if kind == "relu" else 1.0 - a * a
    return delta


@dataclass
class Mlp:
    """Fully-connected classifier. ``layers`` holds (W, b) with W shaped out x in.

    The last layer is linear; hidden layers apply ``activation``. The flat
    parameter layout used by gradients is [W0.ravel(), b0, W1.ravel(), b1, ...].
    """

    layers: list = field(default_factory=list)
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @classmethod
    def init(cls, layer_sizes, activation="relu", seed=0):
        """Kaiming-uniform weights, zero biases, seeded."""
        if min(layer_sizes) < 1:
            raise DimensionMismatch(f"every layer size must be >= 1, got {list(layer_sizes)}")
        rng = np.random.default_rng(seed)
        layers = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = np.sqrt(6.0 / fan_in)
            W = rng.uniform(-bound, bound, size=(fan_out, fan_in))
            b = np.zeros(fan_out)
            layers.append((W, b))
        return cls(layers=layers, activation=activation)

    @property
    def num_classes(self):
        return self.layers[-1][0].shape[0]

    @property
    def n_params(self):
        return sum(W.size + b.size for W, b in self.layers)

    def get_params(self):
        return np.concatenate([np.concatenate([W.ravel(), b]) for W, b in self.layers])

    def set_params(self, flat):
        """Point every ``W`` and ``b`` into ``flat`` without copying, so the
        model reads the vector it was given: an in-place write to ``flat``
        moves the model."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape[0] != self.n_params:
            raise DimensionMismatch(
                f"flat vector has length {flat.shape[0]}, expected {self.n_params}"
            )
        pos = 0
        new_layers = []
        for W, b in self.layers:
            w = flat[pos : pos + W.size].reshape(W.shape)
            pos += W.size
            new_layers.append((w, flat[pos : pos + b.size]))
            pos += b.size
        self.layers = new_layers


def _forward(model, X):
    """Run all layers; returns (layer inputs a, logits).

    a[l] is the input to layer l, so a[-1] is H (input to the last layer).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.layers[0][0].shape[1]:
        raise DimensionMismatch(
            f"X has shape {X.shape}, expected (*, {model.layers[0][0].shape[1]})"
        )
    a = [X]
    last = len(model.layers) - 1
    for li, (W, b) in enumerate(model.layers):
        # Row halves from _SPLIT_MADDS on, else an empty top half: the whole matmul here.
        h = a[-1].shape[0] // 2 if a[-1].shape[0] // 2 * W.size >= _SPLIT_MADDS else 0
        z = np.empty((a[-1].shape[0], W.shape[0]))
        with _beside(a[-1][:h], W.T, z[:h]):
            np.matmul(a[-1][h:], W.T, out=z[h:])
        z += b  # bitwise a[-1] @ W.T + b, without a second array
        a.append(z if li == last else _act(z, model.activation))
    return a[:-1], a[-1]


def _softmax_stats(logits, y):
    """Per-example losses and P = softmax(logits) - onehot(y), both stable."""
    y = np.asarray(y, dtype=np.intp).reshape(-1)
    if y.shape[0] != logits.shape[0]:
        raise DimensionMismatch("labels do not match the batch size")
    if (y < 0).any() or (y >= logits.shape[1]).any():
        raise DimensionMismatch("label outside the number of classes")
    rows = np.arange(len(y))
    zmax = logits.max(axis=1, keepdims=True)
    exps = np.exp(logits - zmax)
    sums = exps.sum(axis=1, keepdims=True)
    losses = np.log(sums[:, 0]) + zmax[:, 0] - logits[rows, y]
    P = np.divide(exps, sums, out=exps)
    P[rows, y] -= 1.0
    return losses, P


@dataclass(frozen=True)
class BatchTape:
    """Forward-pass byproducts for one minibatch.

    H: (M, D) inputs to the last linear layer.
    P: (M, C) per-example loss gradients w.r.t. the model outputs.
    losses: (M,) per-example loss values.
    inputs: each layer's input, X first and H last; empty on hand-built tapes.
    """

    H: np.ndarray
    P: np.ndarray
    losses: np.ndarray
    inputs: tuple = ()

    def __post_init__(self):
        # Contiguous rows let gram_implicit run each A @ A.T as a symmetric update.
        H = np.ascontiguousarray(self.H, dtype=np.float64)
        P = np.ascontiguousarray(self.P, dtype=np.float64)
        losses = np.asarray(self.losses, dtype=np.float64)
        if H.ndim != 2 or P.ndim != 2 or losses.ndim != 1:
            raise DimensionMismatch("H and P must be 2-D, losses 1-D")
        if not (H.shape[0] == P.shape[0] == losses.shape[0]):
            raise DimensionMismatch(
                f"row counts disagree: H {H.shape[0]}, P {P.shape[0]}, "
                f"losses {losses.shape[0]}"
            )
        for name, a in (("H", H), ("P", P), ("losses", losses)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "losses", losses)

    @property
    def M(self):
        return self.H.shape[0]

    @property
    def D(self):
        return self.H.shape[1]

    @property
    def C(self):
        return self.P.shape[1]


def forward_tape(model, X, y):
    """Forward pass returning the selection inputs (H, P, losses) and each layer's input."""
    a, logits = _forward(model, X)
    losses, P = _softmax_stats(logits, y)
    return BatchTape(H=a[-1], P=P, losses=losses, inputs=tuple(a))


def gram_implicit(tape):
    """Gram matrix of last-layer gradients without forming them.

    Example i's gradient w.r.t. the linear output layer (W, b) is
    (p_i h_i^T, p_i), h_i being the layer's input and p_i the loss gradient
    w.r.t. the model output. Their pairwise inner products are

        K_ij = (h_i^T h_j)(p_i^T p_j) + p_i^T p_j,

    so K = HH^T o PP^T + PP^T with o elementwise, at O(M^2 (D + C)) flops;
    ``selbp.oracles.gram_explicit`` is the brute-force reference.
    """
    # HH^T in row halves from _SPLIT_MADDS on, else an empty top half: one syrk.
    # numpy runs A @ A.T as an exactly symmetric rank-k update; the off-diagonal
    # gemm runs on the side thread and is mirrored, so K stays exactly symmetric.
    H, P, M = tape.H, tape.P, tape.M
    h = M // 2 if M // 2 * (M - M // 2) * tape.D >= _SPLIT_MADDS else 0
    K = np.empty((M, M))
    with _beside(H[h:], H[:h].T, K[h:, :h]):
        PPt = P @ P.T
        np.matmul(H[:h], H[:h].T, out=K[:h, :h])
        np.matmul(H[h:], H[h:].T, out=K[h:, h:])
    K[:h, h:] = K[h:, :h].T
    K *= PPt
    K += PPt
    return K


def accuracy(model, X, y):
    """Share of rows whose argmax logit is the label, ``CHUNK_ROWS`` rows at a
    time. Raises ``ValueError`` when a logit is not finite."""
    y = np.asarray(y).reshape(-1)
    N = np.shape(X)[0]
    if not 0 < N == y.shape[0]:
        raise DimensionMismatch(f"need rows, one label each, got {N} rows and {y.size} labels")
    correct = 0
    for start in range(0, N, CHUNK_ROWS):
        logits = _forward(model, X[start : start + CHUNK_ROWS])[1]  # drops the activations
        if not np.isfinite(logits).all():
            raise ValueError("logits contain non-finite entries")
        correct += np.count_nonzero(logits.argmax(axis=1) == y[start : start + CHUNK_ROWS])
    return correct / N


def weighted_backward(model, X, y, sel, *, tape):
    """Weighted gradient estimate (1/|I|) * sum_{i in I} gamma_i * grad_i.

    ``tape`` is what :func:`forward_tape` returned for the batch ``X``, ``y``;
    only the selected rows of its layer inputs and P are read, and no forward
    pass runs. Unit weights over the full batch give the minibatch mean
    gradient; a whole-batch selection in order reads the tape's arrays
    without gathering them. Returns a fresh flat parameter-layout vector.
    """
    if not tape.M == np.shape(X)[0] == np.size(y) or len(tape.inputs) != len(model.layers):
        raise DimensionMismatch("tape does not hold this batch's layer inputs")
    if (sel.indices >= tape.M).any():
        raise DimensionMismatch("selection index outside the batch")
    whole = sel.size == tape.M and (sel.indices == np.arange(tape.M)).all()
    a = tape.inputs if whole else [h[sel.indices] for h in tape.inputs]
    P = tape.P if whole else tape.P[sel.indices]

    delta = (sel.weights / sel.size)[:, None] * P
    grad = np.empty(model.n_params)
    pos = grad.shape[0]
    for li in range(len(model.layers) - 1, -1, -1):
        W, b = model.layers[li]
        pos -= W.size + b.size
        with _beside(delta.T, a[li], grad[pos : pos + W.size].reshape(W.shape)):
            np.sum(delta, axis=0, out=grad[pos + W.size : pos + W.size + b.size])
            if li > 0:
                delta = _through_act(delta @ W, a[li], model.activation)
    return grad


def per_example_grads(model, X, y):
    """Full-parameter gradient of each example's loss; shape (M, n_params)."""
    a, logits = _forward(model, X)
    M = logits.shape[0]
    _, P = _softmax_stats(logits, y)

    delta = P
    blocks = [None] * len(model.layers)
    for li in range(len(model.layers) - 1, -1, -1):
        W, _ = model.layers[li]
        gW = np.einsum("mo,mi->moi", delta, a[li]).reshape(M, -1)
        blocks[li] = np.concatenate([gW, delta], axis=1)
        if li > 0:
            delta = _through_act(delta @ W, a[li], model.activation)

    return np.concatenate(blocks, axis=1)

