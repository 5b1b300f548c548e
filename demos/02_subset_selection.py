"""What each selection strategy keeps.

One forward batch of M = 16 blob points through a small MLP, then each
strategy picks m = 4 to backpropagate. Random ignores the batch entirely;
loss-based upweights high-loss points via CDF(loss)^(M/m); gradient matching
runs OMP on the last-layer Gram matrix and also returns non-uniform weights
so the weighted subset mean approximates the full minibatch gradient.
"""

import numpy as np

from selbp import (
    DatasetDescriptor,
    Mlp,
    build_dataset,
    forward_tape,
    gram_implicit,
    select_grad_match,
    select_loss_based,
    select_random,
)

M, m = 16, 4
ds = build_dataset(DatasetDescriptor(kind="blobs", n=200, separation=4.0, seed=3))
model = Mlp.init([2, 16, 3], seed=2)

X, y = ds.X_train[:M], ds.y_train[:M]
tape = forward_tape(model, X, y)
order = np.argsort(-tape.losses)
print("losses, sorted high to low:")
print("  idx ", order)
print("  loss", np.round(tape.losses[order], 3))

rng = np.random.default_rng(0)
sel_r = select_random(M, m, rng)
sel_l = select_loss_based(tape.losses, m, None, rng)
sel_g = select_grad_match(gram_implicit(tape), m, rng)

for name, sel in (("random", sel_r), ("loss_based", sel_l), ("grad_match", sel_g)):
    print(f"\n{name:11s} keeps {sel.indices.tolist()}")
    print(f"{'':11s} weights {np.round(sel.weights, 3).tolist()}  (sum = {sel.weights.sum():.1f})")
