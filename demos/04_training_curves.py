"""Selective training at a fraction of the backward cost.

Train the same 2-32-3 MLP on Gaussian blobs with each strategy at
subsampling fractions 0.1, 0.5, and 1.0 (fixed batch mode: the forward batch
stays at 128, the backward subset shrinks). A step costs M/3 + m cost units
(forward = 1/3, forward+backward = 1 per example), so fractions below 2/3
train cheaper than plain SGD. The run at fraction 1.0 with the random
strategy IS plain SGD, bit for bit.
"""

from selbp import (
    DatasetDescriptor,
    Mlp,
    StrategyConfig,
    TrainConfig,
    build_dataset,
    run_training,
)

ds = build_dataset(
    DatasetDescriptor(kind="blobs", n=3000, classes=3, dim=2, separation=4.0, seed=7)
)

print(f"{'strategy':12s} {'rho':>4s} {'max acc':>8s} {'cost units':>11s}")
for kind in ("random", "loss_based", "grad_match"):
    for frac in (0.1, 0.5, 1.0):
        cfg = TrainConfig(
            base_batch=128, fraction=frac, epochs=20, base_lr=0.1,
            schedule="constant", seed=0,
        )
        model = Mlp.init([2, 32, 3], seed=0)
        records = run_training(cfg, StrategyConfig(kind=kind), ds, model)
        best = max(r.test_accuracy for r in records)
        print(f"{kind:12s} {frac:4.1f} {best:8.3f} {records[-1].cost_units_cum:11.0f}")
