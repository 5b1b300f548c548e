"""Orthogonal matching pursuit, Gram-matrix variant.

``omp_gram`` runs entirely on inner products: the Gram matrix K = A^T A of
the atoms and the correlation vector t = A^T b with the target. It is
Batch-OMP (Rubinstein, Zibulevsky & Elad 2008): on preallocated arrays it
grows the Cholesky factor L of the active sub-Gram matrix together with
Q = K[:, I] L^-T and z = L^-1 t_I, so each new atom costs one matrix-vector
product and the correlations are updated by one rank-one step. The weights
are solved for once, at the end (``batch_omp_factor`` is the greedy pass
up to that solve). ``omp_dense_oracle`` is the textbook
implementation on explicit vectors, used as the reference in tests.

The greedy step picks the raw (signed) maximum correlation; set
``abs_correlation`` for the usual absolute-value criterion.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DimensionMismatch, EmptySelection

# Pivot threshold relative to the new atom's self-inner-product.
DEFAULT_PIVOT_TOL = 1e-12


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


@dataclass(frozen=True)
class OmpConfig:
    max_atoms: int
    residual_tol: float = 0.0
    pivot_tol: float = DEFAULT_PIVOT_TOL
    abs_correlation: bool = False

    def __post_init__(self):
        if self.max_atoms < 1:
            raise ValueError("max_atoms must be >= 1")
        if self.residual_tol < 0 or self.pivot_tol < 0:
            raise ValueError("tolerances must be >= 0")


def omp_gram(K, t, cfg):
    """Greedy sparse approximation of the target given only inner products.

    Returns the raw selection (unnormalized weights; may hold fewer than
    ``max_atoms`` atoms when correlations are exhausted or the next atom's
    Cholesky pivot falls to ``pivot_tol`` times its self-inner-product,
    which marks a (near-)duplicate). Raises :class:`EmptySelection` when no
    atom can be selected.
    """
    indices, L, z = batch_omp_factor(K, t, cfg)
    gamma = solve_triangular(L, z, lower=True, trans="T")
    return Selection(indices, gamma)


def batch_omp_factor(K, t, cfg):
    """The greedy pass of :func:`omp_gram`, before the final solve.

    Returns ``(indices, L, z)``: the n selected atoms in selection order, the
    n x n lower Cholesky factor L of ``K[I, I]`` and ``z = L^-1 t[I]``, so the
    weights are ``L^-T z``. Row j of L is written when atom j enters and never
    changed afterwards.
    """
    K = np.asarray(K, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    M = t.shape[0]
    if K.shape != (M, M):
        raise DimensionMismatch(f"K has shape {K.shape}, expected ({M}, {M})")
    m = cfg.max_atoms
    if m > M:
        raise DimensionMismatch(f"max_atoms {m} exceeds batch size {M}")

    L = np.zeros((m, m))
    Q = np.zeros((M, m))
    z = np.zeros(m)
    alpha = t.copy()
    available = np.ones(M, dtype=bool)
    indices = []

    for n in range(m):
        score = np.abs(alpha) if cfg.abs_correlation else alpha
        masked = np.where(available, score, -np.inf)
        k = int(np.argmax(masked))  # ties break toward the lowest index
        if masked[k] <= cfg.residual_tol:
            break
        w = Q[k, :n]
        pivot = K[k, k] - w @ w
        if pivot <= cfg.pivot_tol * K[k, k]:
            break
        d = np.sqrt(pivot)
        L[n, :n] = w
        L[n, n] = d
        Q[:, n] = (K[:, k] - Q[:, :n] @ w) / d
        z[n] = (t[k] - w @ z[:n]) / d
        alpha -= Q[:, n] * z[n]
        indices.append(k)
        available[k] = False

    n = len(indices)
    if n == 0:
        raise EmptySelection("no atom correlates with the target")
    return np.array(indices), L[:n, :n], z[:n]


def omp_dense_oracle(atoms, target, m, residual_tol=0.0, abs_correlation=False):
    """Textbook OMP on explicit atom vectors (rows of ``atoms``).

    Reference implementation for tests: greedy residual-correlation selection
    with a full least-squares refit after every addition.
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
        corr = A @ resid
        score = np.abs(corr) if abs_correlation else corr
        masked = np.where(available, score, -np.inf)
        k = int(np.argmax(masked))
        if masked[k] <= residual_tol:
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

    ``t0`` is ||gbar||^2, obtainable as the mean of t when t stems from
    :func:`selbp.gram.mean_correlations`.
    """
    K = np.asarray(K, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    idx = sel.indices
    g = sel.weights
    quad = g @ K[np.ix_(idx, idx)] @ g
    return float(quad - 2.0 * (g @ t[idx]) + t0)
