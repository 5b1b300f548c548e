"""From-scratch multilayer perceptron with a softmax cross-entropy head.

The network exposes exactly the forward-pass byproducts the selection
strategies need (last-layer inputs H, output gradients P, per-example
losses) plus a weighted backward pass and per-example full gradients for
the evaluation experiments. Per-example losses use sum semantics (no 1/M
inside P); the 1/|I| mean appears only in the weighted gradient estimate.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .gram import BatchTape, explicit_gradients

ACTIVATIONS = ("relu", "tanh")


def _act(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _act_grad(z, kind):
    if kind == "relu":
        return (z > 0).astype(np.float64)
    return 1.0 - np.tanh(z) ** 2


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
            bb = flat[pos : pos + b.size].copy()
            pos += b.size
            new_layers.append((w, bb))
        self.layers = new_layers


def _forward(model, X):
    """Run all layers; returns (pre-activations z, layer inputs a, logits).

    a[l] is the input to layer l, so a[-1] is H (input to the last layer).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.layers[0][0].shape[1]:
        raise DimensionMismatch(
            f"X has shape {X.shape}, expected (*, {model.layers[0][0].shape[1]})"
        )
    a = [X]
    zs = []
    h = X
    for li, (W, b) in enumerate(model.layers):
        z = h @ W.T + b
        zs.append(z)
        if li < len(model.layers) - 1:
            h = _act(z, model.activation)
            a.append(h)
    return zs, a, zs[-1]


def _softmax_stats(logits, y):
    """Stable softmax probabilities, per-example losses, and P = probs - onehot."""
    y = np.asarray(y, dtype=np.intp).reshape(-1)
    if y.shape[0] != logits.shape[0]:
        raise DimensionMismatch("labels do not match the batch size")
    if (y < 0).any() or (y >= logits.shape[1]).any():
        raise DimensionMismatch("label outside the number of classes")
    zmax = logits.max(axis=1, keepdims=True)
    exps = np.exp(logits - zmax)
    probs = exps / exps.sum(axis=1, keepdims=True)
    lse = np.log(exps.sum(axis=1)) + zmax[:, 0]
    losses = lse - logits[np.arange(len(y)), y]
    P = probs.copy()
    P[np.arange(len(y)), y] -= 1.0
    return probs, losses, P


def forward_tape(model, X, y):
    """Forward pass returning the selection inputs (H, P, per-example losses)."""
    _, a, logits = _forward(model, X)
    _, losses, P = _softmax_stats(logits, y)
    return BatchTape(H=a[-1], P=P, losses=losses)


def mean_loss(model, X, y):
    """Mean softmax cross-entropy over the batch."""
    _, _, logits = _forward(model, X)
    _, losses, _ = _softmax_stats(logits, y)
    return float(losses.mean())


def predict(model, X):
    _, _, logits = _forward(model, X)
    return logits.argmax(axis=1)


def accuracy(model, X, y):
    return float((predict(model, X) == np.asarray(y).reshape(-1)).mean())


def weighted_backward(model, X, y, sel):
    """Weighted gradient estimate (1/|I|) * sum_{i in I} gamma_i * grad_i.

    ``X`` and ``y`` are the whole forward batch; only the selected rows
    ``X[sel.indices]`` are run forward and backward, so a step costs one
    forward+backward pass over |I| rows and the other rows are never read.
    With unit weights over the full batch this is the standard minibatch
    mean gradient. Returns a flat parameter-layout vector.
    """
    X = np.asarray(X)
    y = np.asarray(y).reshape(-1)
    if y.shape[0] != X.shape[0]:
        raise DimensionMismatch("labels do not match the batch size")
    if (sel.indices >= X.shape[0]).any():
        raise DimensionMismatch("selection index outside the batch")
    zs, a, logits = _forward(model, X[sel.indices])
    _, _, P = _softmax_stats(logits, y[sel.indices])

    delta = (sel.weights / sel.size)[:, None] * P

    grads = [None] * len(model.layers)
    for li in range(len(model.layers) - 1, -1, -1):
        W, _ = model.layers[li]
        gW = delta.T @ a[li]
        gb = delta.sum(axis=0)
        grads[li] = (gW, gb)
        if li > 0:
            delta = (delta @ W) * _act_grad(zs[li - 1], model.activation)

    return np.concatenate([np.concatenate([gW.ravel(), gb]) for gW, gb in grads])


def per_example_grads(model, X, y):
    """Full-parameter gradient of each example's loss; shape (M, n_params)."""
    zs, a, logits = _forward(model, X)
    M = logits.shape[0]
    _, _, P = _softmax_stats(logits, y)

    delta = P
    blocks = [None] * len(model.layers)
    for li in range(len(model.layers) - 1, -1, -1):
        W, _ = model.layers[li]
        gW = np.einsum("mo,mi->moi", delta, a[li]).reshape(M, -1)
        blocks[li] = np.concatenate([gW, delta], axis=1)
        if li > 0:
            delta = (delta @ W) * _act_grad(zs[li - 1], model.activation)

    return np.concatenate(blocks, axis=1)


def last_layer_grad_check(model, X, y):
    """Max relative discrepancy between (p_i h_i^T, p_i) and the true last-layer
    gradient block; a standing self-test of the implicit construction."""
    built = explicit_gradients(forward_tape(model, X, y))
    full = per_example_grads(model, X, y)
    last_size = built.shape[1]
    actual = full[:, -last_size:]
    scale = max(np.abs(actual).max(), np.abs(built).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(built - actual).max() / scale)
