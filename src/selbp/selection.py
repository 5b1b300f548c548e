"""Minibatch subset selection: which rows of a forward batch a step backprops.

This module defines the :class:`Selection` a step backprops, checks that its
size fits the forward batch (:func:`check_subset_size`) and makes it by each
of three strategies behind one interface, on plain arrays (K, losses, sizes):

* ``select_random`` — uniform without replacement, the plain baseline.
* ``select_loss_based`` — keep probability CDF(loss)^beta with beta = M/m,
  realized as exact-size weighted sampling without replacement.
* ``select_grad_match`` — Gram-OMP approximation of the minibatch mean
  gradient using last-layer inner products, keeping the positive weights
  rescaled to sum to the selection size; ``selbp.model.gram_implicit``
  builds those inner products from the MLP's forward tape.

``omp_gram``, grad_match's pursuit, runs entirely on inner products: the
Gram matrix K = A^T A of the atoms and the correlation vector t = A^T b with
the target. It is Batch-OMP (Rubinstein, Zibulevsky & Elad 2008) on
preallocated arrays, in numpy alone: it keeps Q = K[:, I] L^-T transposed,
so each new atom costs one matrix-vector product writing one contiguous row,
and the correlations one rank-one step (a taken atom's is set to -inf). Rows
I of Q are the Cholesky factor L of K[I, I], read off at the end; the weights
L^-T z, z = L^-1 t_I, are solved for once. The greedy step picks the raw
(signed) maximum correlation and stops once no available atom correlates
positively with the residual. The textbook OMP on explicit vectors that it
must agree with is ``selbp.oracles.omp_dense_oracle``.
"""

import logging
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySelection

logger = logging.getLogger(__name__)

STRATEGY_KINDS = ("random", "loss_based", "grad_match")
CDF_SOURCES = ("within_batch", "rolling_buffer")

# Pivot threshold relative to the new atom's self-inner-product.
PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class Selection:
    """An ordered set of minibatch indices with aligned per-example weights."""

    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp).reshape(-1)
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if idx.shape[0] != w.shape[0]:
            raise DimensionMismatch(
                f"{idx.shape[0]} indices but {w.shape[0]} weights"
            )
        if idx.shape[0] == 0:
            raise EmptySelection("a Selection must contain at least one index")
        if len(np.unique(idx)) != idx.shape[0]:
            raise ValueError("selection indices must be distinct")
        if (idx < 0).any():
            raise ValueError("selection indices must be non-negative")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "weights", w)

    @property
    def size(self):
        return self.indices.shape[0]


def check_subset_size(m, M):
    """The one check that a subset of ``m`` rows fits a forward batch of ``M``."""
    if m < 1:
        raise DimensionMismatch("subset size m must be >= 1")
    if m > M:
        raise DimensionMismatch(f"m {m} exceeds batch size {M}")


@dataclass
class StrategyConfig:
    """Read by ``selbp.trainer.select_subset`` alone; nothing reads ``fraction``."""

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


@dataclass(frozen=True)
class OmpConfig:
    max_atoms: int


def omp_gram(K, t, cfg):
    """Greedy sparse approximation of the target given only inner products.

    Returns the atoms I in selection order with the raw weights solving
    ``K[I, I] gamma = t[I]``: fewer than ``max_atoms`` when correlations run
    out or the next atom's Cholesky pivot falls to ``PIVOT_TOL`` times its
    self-inner-product (a near-duplicate). ``K`` must be symmetric, as every
    Gram matrix is. Raises ``ValueError`` on a non-finite ``K`` or ``t`` before
    taking an atom (a NaN correlation would let ``argmax`` retake one) and
    :class:`EmptySelection` when no atom can be selected.
    """
    K = np.asarray(K, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    M = t.shape[0]
    if K.shape != (M, M):
        raise DimensionMismatch(f"K has shape {K.shape}, expected ({M}, {M})")
    m = cfg.max_atoms
    check_subset_size(m, M)
    if not np.isfinite(K).all():
        raise ValueError("Gram matrix contains non-finite entries")
    if not np.isfinite(t).all():
        raise ValueError("target contains non-finite entries")

    Qt = np.empty((m, M))  # Q transposed: atom n writes its contiguous row n
    z = np.empty(m)
    alpha = t.copy()  # correlations with the residual; -inf marks a taken atom
    diag = K.diagonal().tolist()
    indices = []

    for n in range(m):
        k = int(alpha.argmax())  # ties break toward the lowest index
        corr = alpha.item(k)  # t[k] - w . z[:n]
        if corr <= 0.0:
            break
        w = Qt[:n, k]
        pivot = diag[k] - float(w @ w)
        if pivot <= PIVOT_TOL * diag[k]:
            break
        d = math.sqrt(pivot)
        # Row n of Qt is (K[k] - w Qt[:n]) / d, K[k] being column k of the symmetric K.
        row = Qt[n]
        np.dot(w, Qt[:n], out=row)
        np.subtract(K[k], row, out=row)
        row *= 1.0 / d
        row[k] = d  # L's diagonal exactly, not its rounded recomputation
        zn = corr / d
        z[n] = zn
        alpha -= zn * row
        alpha[k] = -math.inf
        indices.append(k)

    n = len(indices)
    if n == 0:
        raise EmptySelection("no atom correlates with the target")
    idx = np.array(indices)
    # Qt[:n, I] is L^T on and above its diagonal, which is positive, so the LU
    # inside solve exchanges no rows: this is back substitution.
    return Selection(idx, np.linalg.solve(np.triu(Qt[:n, idx]), z[:n]))


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


def select_loss_based(losses, m, buffer, rng):
    """Keep-probability CDF(l)^beta with beta = M/m, drawn as exactly m indices.

    Uses exponential-key weighted sampling without replacement (keys
    Exp(1)/p_i, smallest m win) so every call returns exactly m distinct
    indices. ``buffer`` is a :func:`loss_history` or None. Given one, the CDF
    reference is its contents, and the M fresh losses are appended afterward,
    evicting the oldest. With None, while the buffer is empty, or when no loss
    has a positive keep probability against it (a batch wholly below it), the
    batch is ranked within itself, so its largest loss has keep probability 1.
    Rows of keep probability zero (key inf) fill what the others leave of the
    m in order of their Exp(1) draws, uniformly at random.
    """
    losses = np.asarray(losses, dtype=np.float64).reshape(-1)
    M = losses.shape[0]
    check_subset_size(m, M)
    if not np.isfinite(losses).all():
        raise ValueError("losses contain non-finite entries")

    beta = M / m
    p = empirical_cdf(losses, np.array(buffer)) ** beta if buffer else None
    if p is None or not p.any():
        p = empirical_cdf(losses, losses) ** beta

    draws = rng.exponential(size=M)
    with np.errstate(divide="ignore"):  # p = 0 gives the key inf
        idx = np.sort(np.lexsort((draws, draws / p))[:m])

    if buffer is not None:
        buffer.extend(losses)
    return Selection(idx, np.ones(m))


def select_grad_match(K, m, rng):
    """Gram-OMP selection of the weighted subset matching the mean gradient.

    Runs OMP on (K, row means of K), a row mean being that gradient's inner
    product with the batch mean gradient; drops the atoms whose weight is not
    positive (clipped to zero, they would be backpropagated for nothing),
    then rescales so the weights sum to |I|. Falls back to random selection
    when nothing correlates with the mean gradient or no weight is positive.
    ``omp_gram`` checks m and refuses a non-finite ``K`` before any OMP work.
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2:
        raise DimensionMismatch(f"K must be a square matrix, got shape {K.shape}")
    M = K.shape[0]

    with np.errstate(over="ignore", invalid="ignore"):  # omp_gram raises on a non-finite K or t
        t = K.mean(axis=1)
    try:
        raw = omp_gram(K, t, OmpConfig(max_atoms=m))
        keep = raw.weights > 0.0
        if not keep.any():
            raise EmptySelection("no OMP weight is positive")
    except EmptySelection:
        logger.warning("grad_match fell back to random selection")
        return select_random(M, m, rng)
    g = raw.weights[keep]
    return Selection(raw.indices[keep], g.size * g / g.sum())
