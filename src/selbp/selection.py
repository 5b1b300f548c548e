"""Minibatch subset-selection strategies.

Three strategies behind one interface, all returning a :class:`Selection`:

* ``select_random`` — uniform without replacement, the plain baseline.
* ``select_loss_based`` — keep probability CDF(loss)^beta with beta = M/m,
  realized as exact-size weighted sampling without replacement.
* ``select_grad_match`` — Gram-OMP approximation of the minibatch mean
  gradient using last-layer inner products, with clipped and normalized
  weights.
"""

import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import BadFraction, DegenerateWeights, DimensionMismatch, EmptySelection
from .gram import mean_correlations
from .omp import OmpConfig, Selection, omp_gram

logger = logging.getLogger(__name__)

STRATEGY_KINDS = ("random", "loss_based", "grad_match")
CDF_SOURCES = ("within_batch", "rolling_buffer")


@dataclass
class StrategyConfig:
    kind: str = "random"
    fraction: float = 0.5
    cdf_source: str = "within_batch"
    buffer_capacity: int | None = None
    pad_to_m: bool = False
    abs_correlation: bool = False

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if not 0 < self.fraction <= 1:
            raise BadFraction(f"fraction must be in (0, 1], got {self.fraction}")
        if self.cdf_source not in CDF_SOURCES:
            raise ValueError(f"unknown cdf_source {self.cdf_source!r}")
        if self.buffer_capacity is not None and self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")


class LossBuffer:
    """Ring buffer over the most recent per-example loss values."""

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._ring = deque(maxlen=capacity)

    def extend(self, losses):
        self._ring.extend(np.asarray(losses, dtype=np.float64).reshape(-1))

    def values(self):
        return np.array(self._ring, dtype=np.float64)

    def __len__(self):
        return len(self._ring)


def select_random(M, m, rng):
    """m distinct indices uniform without replacement, unit weights."""
    if m < 1:
        raise BadFraction("subset size m must be >= 1")
    if m > M:
        raise DimensionMismatch(f"m {m} exceeds batch size {M}")
    idx = np.sort(rng.choice(M, size=m, replace=False))
    return Selection(idx, np.ones(m))


def empirical_cdf(losses, reference):
    """CDF(l) = |{r in reference : r <= l}| / |reference|, in (0, 1] on members."""
    losses = np.asarray(losses, dtype=np.float64).reshape(-1)
    reference = np.asarray(reference, dtype=np.float64).reshape(-1)
    if reference.shape[0] == 0:
        raise DimensionMismatch("reference must be non-empty")
    ref_sorted = np.sort(reference)
    counts = np.searchsorted(ref_sorted, losses, side="right")
    return counts / reference.shape[0]


def select_loss_based(losses, m, cfg, buffer, rng):
    """Keep-probability CDF(l)^beta with beta = M/m, drawn as exactly m indices.

    Uses exponential-key weighted sampling without replacement (keys
    Exp(1)/p_i, smallest m win) so every call returns exactly m distinct
    indices. When ``cfg.cdf_source`` is ``rolling_buffer`` the CDF reference
    is the buffer contents (falling back to the batch while it is still
    empty) and the M fresh losses are appended afterward.
    """
    losses = np.asarray(losses, dtype=np.float64).reshape(-1)
    M = losses.shape[0]
    if m < 1:
        raise BadFraction("subset size m must be >= 1")
    if m > M:
        raise DimensionMismatch(f"m {m} exceeds batch size {M}")
    if not np.isfinite(losses).all():
        raise ValueError("losses contain non-finite entries")

    use_buffer = cfg.cdf_source == "rolling_buffer" and buffer is not None
    if use_buffer and len(buffer) > 0:
        reference = buffer.values()
    else:
        reference = losses

    beta = M / m
    p = empirical_cdf(losses, reference) ** beta
    if not (p > 0).any():
        raise DegenerateWeights("all keep probabilities are zero")

    with np.errstate(divide="ignore"):
        keys = rng.exponential(size=M) / p
    idx = np.sort(np.argpartition(keys, m - 1)[:m])

    if use_buffer:
        buffer.extend(losses)
    return Selection(idx, np.ones(m))


def normalize_weights(weights, n_selected):
    """Clip weights to be non-negative and rescale them to sum to the
    selection size, so unit weights recover plain averaging.

    Raises :class:`EmptySelection` when everything clips to zero.
    """
    g = np.maximum(np.asarray(weights, dtype=np.float64), 0.0)
    l1 = g.sum()
    if l1 <= 0.0:
        raise EmptySelection("all weights clipped to zero")
    return n_selected * g / l1


def select_grad_match(K, m, cfg, rng):
    """Gram-OMP selection of the weighted subset matching the mean gradient.

    Runs OMP on (K, row means of K), drops the atoms whose weight is not
    positive (clipped to zero, they would be backpropagated for nothing),
    then rescales so the weights sum to |I|. Falls back to random selection
    when nothing correlates with the mean gradient or all weights clip to zero.
    """
    K = np.asarray(K, dtype=np.float64)
    M = K.shape[0]
    if m < 1:
        raise BadFraction("subset size m must be >= 1")
    if m > M:
        raise DimensionMismatch(f"m {m} exceeds batch size {M}")

    t = mean_correlations(K)
    try:
        raw = omp_gram(K, t, OmpConfig(max_atoms=m, abs_correlation=cfg.abs_correlation))
        keep = raw.weights > 0.0
        g = normalize_weights(raw.weights[keep], int(keep.sum()))
        sel = Selection(raw.indices[keep], g)
    except EmptySelection:
        logger.warning("grad_match fell back to random selection")
        return select_random(M, m, rng)

    if cfg.pad_to_m and sel.size < m:
        rest = np.setdiff1d(np.arange(M), sel.indices)
        extra = rng.choice(rest, size=m - sel.size, replace=False)
        sel = Selection(
            np.concatenate([sel.indices, extra]),
            np.concatenate([sel.weights, np.ones(m - sel.size)]),
        )
    return sel
