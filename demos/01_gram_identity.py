"""The implicit Gram identity.

The gradient of the softmax cross-entropy w.r.t. the last linear layer of a
network factors, for example i, as the outer product p_i h_i^T (plus p_i for
the bias), where h_i is the penultimate activation and p_i = softmax - onehot.
Pairwise inner products of these gradients therefore reduce to

    K = (H H^T) * (P P^T) + P P^T        (* is elementwise)

which costs O(M^2 (D + C)) instead of materializing M gradients of size
D*C + C. This script builds both sides on a real MLP and prints the error.
"""

import numpy as np

from selbp import Mlp, forward_tape, gram_implicit, per_example_grads
from selbp.oracles import gram_explicit

rng = np.random.default_rng(0)
model = Mlp.init([4, 32, 5], seed=1)
X = rng.standard_normal((64, 4))
y = rng.integers(0, 5, 64)

tape = forward_tape(model, X, y)
K_fast = gram_implicit(tape)
K_slow = gram_explicit(tape)
print(f"implicit vs explicit Gram, M=64:  max |diff| = {np.abs(K_fast - K_slow).max():.3e}")

# The same matrix falls out of genuinely backpropagated per-example gradients,
# restricted to the last-layer block.
pg = per_example_grads(model, X, y)
last_block = pg[:, -(5 * 32 + 5):]
K_real = last_block @ last_block.T
rel = np.abs(K_fast - K_real).max() / np.abs(K_real).max()
print(f"vs real last-layer gradients:     max rel err = {rel:.3e}")

d_implicit = 64 * (32 + 5)          # floats touched per tape
d_explicit = 64 * (5 * 32 + 5)      # floats in the stacked gradient matrix
print(f"storage ratio explicit/implicit:  {d_explicit / d_implicit:.1f}x")
