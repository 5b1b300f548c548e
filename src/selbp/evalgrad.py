"""Gradient-estimate quality: squared L2 distance of each strategy's weighted
subset gradient from the full-dataset gradient, at a fixed parameter point.

The comparison is paired: every strategy sees the identical minibatch
sequence, each strategy owning a private RNG stream so its draws cannot
perturb the shared batches. Errors are measured on the full parameter
gradient, not the last-layer proxy the selection itself uses.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .model import forward_tape, weighted_backward
from .omp import Selection
from .selection import LossBuffer
from .trainer import select_subset


@dataclass(frozen=True)
class GradErrorSample:
    strategy: str
    batch_index: int
    squared_error: float


def full_dataset_gradient(model, X, y, chunk_size=512):
    """Exact mean gradient over the whole set, streamed in chunks."""
    N = X.shape[0]
    if N == 0:
        raise DimensionMismatch("dataset must be non-empty")
    total = np.zeros(model.n_params)
    for start in range(0, N, chunk_size):
        Xc, yc = X[start : start + chunk_size], y[start : start + chunk_size]
        sel = Selection(np.arange(Xc.shape[0]), np.ones(Xc.shape[0]))
        total += weighted_backward(model, Xc, yc, sel) * Xc.shape[0]
    return total / N


def gradient_error_experiment(model, X, y, strategies, num_batches, M, m, seed=0):
    """Sample minibatches, subsample each with every strategy, record errors.

    ``strategies`` maps a name to a StrategyConfig (or to None for the
    pseudo-strategy "full", which keeps the whole forward batch). Each
    selection is the trainer's :func:`select_subset`, with ``m = M`` for
    "full"; a loss-based buffer holds ``buffer_capacity`` losses, 8 * M when
    unset. Returns one GradErrorSample per (strategy, batch).
    """
    N = X.shape[0]
    if not m <= M <= N:
        raise DimensionMismatch(f"need m <= M <= N, got m={m}, M={M}, N={N}")
    g_full = full_dataset_gradient(model, X, y)

    batch_rng = np.random.default_rng([seed, 0])
    names = list(strategies)
    strat_rngs = {name: np.random.default_rng([seed, 1 + i]) for i, name in enumerate(names)}
    buffers = {
        name: LossBuffer((cfg and cfg.buffer_capacity) or 8 * M)
        for name, cfg in strategies.items()
    }

    samples = []
    for b in range(num_batches):
        idx = batch_rng.choice(N, size=M, replace=False)
        Xb, yb = X[idx], y[idx]
        tape = forward_tape(model, Xb, yb)
        for name in names:
            size = M if name == "full" else m
            sel = select_subset(strategies[name], tape, size, buffers[name], strat_rngs[name])
            est = weighted_backward(model, Xb, yb, sel)
            err = float(np.sum((est - g_full) ** 2))
            samples.append(GradErrorSample(name, b, err))
    return samples


def write_grad_error_csv(samples, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "batch_index", "squared_error"])
        for s in samples:
            writer.writerow([s.strategy, s.batch_index, s.squared_error])
