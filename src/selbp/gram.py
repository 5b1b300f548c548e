"""Gram matrix of last-layer gradients, computed implicitly from the forward pass.

For a linear output layer with weight W (C x D) and bias b, the gradient of
example i's loss w.r.t. (W, b) is (p_i h_i^T, p_i), where h_i is the layer
input and p_i the gradient w.r.t. the model output. The pairwise inner
products of these flattened gradients satisfy

    K_ij = (h_i^T h_j)(p_i^T p_j) + p_i^T p_j,

so the full M x M Gram matrix is K = HH^T o PP^T + PP^T with o the
elementwise product. ``gram_explicit`` materializes the flattened gradients
and serves as the brute-force oracle for ``gram_implicit``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class BatchTape:
    """Forward-pass byproducts for one minibatch.

    H: (M, D) inputs to the last linear layer.
    P: (M, C) per-example loss gradients w.r.t. the model outputs.
    losses: (M,) per-example loss values.
    """

    H: np.ndarray
    P: np.ndarray
    losses: np.ndarray

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


def _symmetrize(raw):
    # Mirror the computed upper triangle so K_ij == K_ji exactly.
    upper = np.triu(raw)
    return upper + upper.T - np.diag(np.diag(raw))


def gram_implicit(tape):
    """Gram matrix of last-layer gradients without forming them."""
    # On the tape's contiguous arrays numpy runs A @ A.T as a symmetric
    # rank-k update with an exactly symmetric result; elementwise products
    # and sums of exactly symmetric matrices stay so, and nothing is mirrored.
    PPt = tape.P @ tape.P.T
    K = tape.H @ tape.H.T
    K *= PPt
    K += PPt
    return K


def explicit_gradients(tape):
    """Flattened last-layer gradients [vec(p_i h_i^T); p_i], one row per example."""
    outer = np.einsum("mc,md->mcd", tape.P, tape.H).reshape(tape.M, -1)
    return np.concatenate([outer, tape.P], axis=1)


def gram_explicit(tape):
    """Brute-force Gram matrix from explicitly materialized gradients."""
    V = explicit_gradients(tape)
    return _symmetrize(V @ V.T)


def mean_correlations(K):
    """Row means of K, i.e. the inner products of each gradient with the mean."""
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise DimensionMismatch(f"K must be square, got shape {K.shape}")
    return K.mean(axis=1)
