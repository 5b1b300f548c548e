"""Minibatch subset-selection strategies.

Three strategies behind one interface, all returning a :class:`Selection`:

* ``select_random`` — uniform without replacement, the plain baseline.
* ``select_loss_based`` — keep probability CDF(loss)^beta with beta = M/m,
  realized as exact-size weighted sampling without replacement.
* ``select_grad_match`` — Gram-OMP approximation of the minibatch mean
  gradient using last-layer inner products, keeping the positive weights
  rescaled to sum to the selection size; ``gram_implicit`` builds those
  inner products from a forward tape.
"""

import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySelection
from .omp import OmpConfig, Selection, check_subset_size, omp_gram

logger = logging.getLogger(__name__)

STRATEGY_KINDS = ("random", "loss_based", "grad_match")
CDF_SOURCES = ("within_batch", "rolling_buffer")


@dataclass
class StrategyConfig:
    kind: str = "random"
    fraction: float = 0.5
    cdf_source: str = "within_batch"

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if not 0 < self.fraction <= 1:
            raise DimensionMismatch(f"fraction must be in (0, 1], got {self.fraction}")
        if self.cdf_source not in CDF_SOURCES:
            raise ValueError(f"unknown cdf_source {self.cdf_source!r}")


def loss_history(M):
    """The rolling-buffer CDF's reference: the latest ``8 * M`` losses, eight
    forward batches of ``M`` rows."""
    return deque(maxlen=8 * M)


def gram_implicit(tape):
    """Gram matrix of last-layer gradients without forming them.

    Example i's gradient w.r.t. the linear output layer (W, b) is
    (p_i h_i^T, p_i), h_i being the layer's input and p_i the loss gradient
    w.r.t. the model output. Their pairwise inner products are

        K_ij = (h_i^T h_j)(p_i^T p_j) + p_i^T p_j,

    so K = HH^T o PP^T + PP^T with o elementwise, at O(M^2 (D + C)) flops;
    ``selbp.oracles.gram_explicit`` is the brute-force reference.
    """
    # On the tape's contiguous arrays numpy runs A @ A.T as a symmetric
    # rank-k update with an exactly symmetric result; elementwise products
    # and sums of exactly symmetric matrices stay so, and nothing is mirrored.
    PPt = tape.P @ tape.P.T
    K = tape.H @ tape.H.T
    K *= PPt
    K += PPt
    return K


def select_random(M, m, rng):
    """m distinct indices uniform without replacement, unit weights."""
    check_subset_size(m, M)
    idx = np.sort(rng.choice(M, size=m, replace=False))
    return Selection(idx, np.ones(m))


def empirical_cdf(losses, reference):
    """CDF(l) = |{r in reference : r <= l}| / |reference|, in (0, 1] on members;
    ``reference`` must be non-empty."""
    losses = np.asarray(losses, dtype=np.float64).reshape(-1)
    reference = np.asarray(reference, dtype=np.float64).reshape(-1)
    ref_sorted = np.sort(reference)
    counts = np.searchsorted(ref_sorted, losses, side="right")
    return counts / reference.shape[0]


def select_loss_based(losses, m, cfg, buffer, rng):
    """Keep-probability CDF(l)^beta with beta = M/m, drawn as exactly m indices.

    Uses exponential-key weighted sampling without replacement (keys
    Exp(1)/p_i, smallest m win) so every call returns exactly m distinct
    indices. When ``cfg.cdf_source`` is ``rolling_buffer`` the CDF reference
    is the contents of ``buffer``, a :func:`loss_history`, and the M fresh
    losses are appended afterward, evicting the oldest. While the buffer is
    empty, or when no loss has a positive keep probability against it (a batch
    wholly below it), the batch is ranked within itself, so its largest loss
    has keep probability 1. Rows of keep probability zero (key inf) fill what
    the others leave of the m in order of their Exp(1) draws, uniformly at random.
    """
    losses = np.asarray(losses, dtype=np.float64).reshape(-1)
    M = losses.shape[0]
    check_subset_size(m, M)
    if not np.isfinite(losses).all():
        raise ValueError("losses contain non-finite entries")

    beta = M / m
    use_buffer = cfg.cdf_source == "rolling_buffer" and buffer is not None
    p = empirical_cdf(losses, np.array(buffer)) ** beta if use_buffer and buffer else None
    if p is None or not p.any():
        p = empirical_cdf(losses, losses) ** beta

    draws = rng.exponential(size=M)
    with np.errstate(divide="ignore"):  # p = 0 gives the key inf
        idx = np.sort(np.lexsort((draws, draws / p))[:m])

    if use_buffer:
        buffer.extend(losses)
    return Selection(idx, np.ones(m))


def select_grad_match(K, m, rng):
    """Gram-OMP selection of the weighted subset matching the mean gradient.

    Runs OMP on (K, row means of K), a row mean being that gradient's inner
    product with the batch mean gradient; drops the atoms whose weight is not
    positive (clipped to zero, they would be backpropagated for nothing),
    then rescales so the weights sum to |I|. Falls back to random selection
    when nothing correlates with the mean gradient or no weight is positive.
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2:
        raise DimensionMismatch(f"K must be a square matrix, got shape {K.shape}")
    M = K.shape[0]
    check_subset_size(m, M)

    try:
        raw = omp_gram(K, K.mean(axis=1), OmpConfig(max_atoms=m))
        keep = raw.weights > 0.0
        if not keep.any():
            raise EmptySelection("no OMP weight is positive")
    except EmptySelection:
        logger.warning("grad_match fell back to random selection")
        return select_random(M, m, rng)
    g = raw.weights[keep]
    return Selection(raw.indices[keep], g.size * g / g.sum())
