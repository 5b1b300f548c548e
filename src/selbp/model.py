"""From-scratch multilayer perceptron with a softmax cross-entropy head.

The network exposes exactly the forward-pass byproducts the selection
strategies need (last-layer inputs H, output gradients P, per-example
losses; ``forward_tape`` returns them as a :class:`BatchTape`) plus a
weighted backward pass and per-example full gradients for the evaluation
experiments. Per-example losses use sum semantics (no 1/M inside P); the
1/|I| mean appears only in the weighted gradient estimate.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch

ACTIVATIONS = ("relu", "tanh")

# Rows per forward pass when a whole set is evaluated or its gradient summed.
CHUNK_ROWS = 512

# Multiply-adds from which a matmul runs beside another on the side thread;
# below it the hand-off costs more than it saves. _forward splits a layer's
# matmul into row halves from it on; on the benchmark's 512-wide layers the
# halves were seen to round exactly as the whole matmul (numpy 2.4's OpenBLAS
# 0.3.31), but other shapes or BLAS builds may differ from it in the last bit.
SPLIT_MADDS = 2**24
# The variables OpenBLAS reads its thread count from, in its order.
OPENBLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_side = {}  # pid -> the process's one side thread, made on first use; None: off


def _side_thread_helps():
    """Whether a side thread adds a core: BLAS runs one thread (OpenBLAS takes
    the first positive variable, else one per usable CPU) and the process may
    use a second CPU. A multi-threaded BLAS already spreads each call over the cores."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    counts = (os.environ.get(var, "").strip() for var in OPENBLAS_THREAD_VARS)
    return cpus > 1 and next((int(n) for n in counts if n.isdigit() and int(n) > 0), cpus) == 1


def _run_inline():
    """Turn this process's side thread off, as each ``--jobs`` worker does."""
    _side[os.getpid()] = None


@contextmanager
def beside(madds, fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)``, one numpy call writing into arrays the caller
    made (never selbp code), beside the with-block: on the side thread under the
    caller's error state when it is on and ``madds``, the larger call's
    multiply-adds, reaches ``SPLIT_MADDS``, else inline before the block. It
    has finished, its error raised, when the block exits."""
    if os.getpid() not in _side:  # setdefault: a racing first caller makes no second
        _side.setdefault(os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="selbp-side")
                         if _side_thread_helps() else None)
    if _side[os.getpid()] is None or madds < SPLIT_MADDS:
        fn(*args, **kwargs)
        yield
        return
    side = _side[os.getpid()].submit(np.errstate(**np.geterr())(fn), *args, **kwargs)
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
        h = a[-1].shape[0] // 2
        if h * W.size < SPLIT_MADDS:
            z = np.matmul(a[-1], W.T)
        else:  # two row halves, the same two calls with the side thread on or off
            z = np.empty((a[-1].shape[0], W.shape[0]))
            with beside(h * W.size, np.matmul, a[-1][:h], W.T, out=z[:h]):
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
        # Contiguous rows let gram_implicit's A @ A.T run as one symmetric update.
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
        np.sum(delta, axis=0, out=grad[pos + W.size : pos + W.size + b.size])
        gW = grad[pos : pos + W.size].reshape(W.shape)
        # delta^T a beside delta W; the input layer computes no delta W
        with beside(delta.size * W.shape[1] if li else 0, np.matmul, delta.T, a[li], out=gW):
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

