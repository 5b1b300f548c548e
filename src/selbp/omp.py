"""Orthogonal matching pursuit, Gram-matrix variant.

``omp_gram`` runs entirely on inner products: the Gram matrix K = A^T A of
the atoms and the correlation vector t = A^T b with the target. It is
Batch-OMP (Rubinstein, Zibulevsky & Elad 2008) on preallocated arrays, in
numpy alone: it keeps Q = K[:, I] L^-T transposed, so each new atom costs
one matrix-vector product writing one contiguous row, and the correlations
one rank-one step (a taken atom's is set to -inf). Rows I of Q are the
Cholesky factor L of K[I, I], read off at the end; the weights L^-T z,
z = L^-1 t_I, are solved for once (``batch_omp_factor`` is the greedy pass
up to that solve). The textbook OMP on explicit vectors that it must
agree with is ``selbp.oracles.omp_dense_oracle``.

The greedy step picks the raw (signed) maximum correlation and stops once
no available atom correlates positively with the residual.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySelection

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


@dataclass(frozen=True)
class OmpConfig:
    max_atoms: int

    def __post_init__(self):
        if self.max_atoms < 1:
            raise ValueError("max_atoms must be >= 1")


def omp_gram(K, t, cfg):
    """Greedy sparse approximation of the target given only inner products.

    Returns the raw selection (unnormalized weights; may hold fewer than
    ``max_atoms`` atoms when correlations are exhausted or the next atom's
    Cholesky pivot falls to ``PIVOT_TOL`` times its self-inner-product,
    which marks a (near-)duplicate). Raises :class:`EmptySelection` when no
    atom can be selected.
    """
    indices, L, z = batch_omp_factor(K, t, cfg)
    # L^T is upper-triangular with a positive diagonal, so the LU inside
    # solve exchanges no rows: this is back substitution.
    gamma = np.linalg.solve(L.T, z)
    return Selection(indices, gamma)


def batch_omp_factor(K, t, cfg):
    """The greedy pass of :func:`omp_gram`, before the final solve.

    Returns ``(indices, L, z)``: the n selected atoms in selection order, the
    n x n lower Cholesky factor L of ``K[I, I]`` and ``z = L^-1 t[I]``, so the
    weights are ``L^-T z``. ``K`` must be symmetric, as every Gram matrix is.
    Row j of L is row ``I[j]`` of Q, fixed once atom j enters.
    """
    K = np.asarray(K, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    M = t.shape[0]
    if K.shape != (M, M):
        raise DimensionMismatch(f"K has shape {K.shape}, expected ({M}, {M})")
    m = cfg.max_atoms
    check_subset_size(m, M)

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
    return idx, np.tril(Qt[:n, idx].T), z[:n]
