"""Gradient-estimate quality: squared L2 distance of each strategy's weighted
subset gradient from the full-dataset gradient, at a fixed parameter point.

The comparison is paired: every strategy sees the identical minibatch
sequence, each strategy owning a private RNG stream so its draws cannot
perturb the shared batches. Errors are measured on the full parameter
gradient, not the last-layer proxy the selection itself uses.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch
from .model import CHUNK_ROWS, forward_tape, weighted_backward
from .selection import Selection, check_subset_size, loss_history
from .trainer import select_subset


@dataclass(frozen=True)
class GradErrorSample:
    strategy: str
    batch_index: int
    squared_error: float


GRAD_ERROR_FIELDS = [f.name for f in fields(GradErrorSample)]


def full_dataset_gradient(model, X, y):
    """Exact mean gradient over the whole (non-empty) set, streamed
    ``CHUNK_ROWS`` rows at a time. Raises ``ValueError`` when a chunk's
    activations or losses are not finite."""
    N = X.shape[0]
    total = np.zeros(model.n_params)
    for start in range(0, N, CHUNK_ROWS):
        Xc, yc = X[start : start + CHUNK_ROWS], y[start : start + CHUNK_ROWS]
        sel = Selection(np.arange(Xc.shape[0]), np.ones(Xc.shape[0]))
        tape = forward_tape(model, Xc, yc)
        total += weighted_backward(model, Xc, yc, sel, tape=tape) * Xc.shape[0]
    return total / N


def gradient_error_experiment(model, X, y, strategies, num_batches, M, m, seed=0):
    """Sample minibatches, subsample each with every strategy, record errors.

    ``strategies`` maps a name to a StrategyConfig, or to None for a
    pseudo-strategy that keeps the whole forward batch (by convention named
    "full"). Each selection is the trainer's :func:`select_subset`, with
    ``m = M`` for a None entry; each strategy keeps its own
    :func:`loss_history`. Returns one GradErrorSample per (strategy, batch).
    """
    check_subset_size(m, M)
    N = X.shape[0]
    if M > N:
        raise DimensionMismatch(f"forward batch M={M} exceeds the N={N} rows")
    g_full = full_dataset_gradient(model, X, y)

    batch_rng = np.random.default_rng([seed, 0])
    names = list(strategies)
    strat_rngs = {name: np.random.default_rng([seed, 1 + i]) for i, name in enumerate(names)}
    buffers = {name: loss_history(M) for name in names}

    samples = []
    diff = np.empty_like(g_full)  # one error buffer for every estimate
    for b in range(num_batches):
        idx = batch_rng.choice(N, size=M, replace=False)
        Xb, yb = X[idx], y[idx]
        tape = forward_tape(model, Xb, yb)
        for name in names:
            size = M if strategies[name] is None else m
            sel = select_subset(strategies[name], tape, size, buffers[name], strat_rngs[name])
            est = weighted_backward(model, Xb, yb, sel, tape=tape)
            np.subtract(est, g_full, out=diff)
            err = float(diff @ diff)
            samples.append(GradErrorSample(name, b, err))
    return samples
