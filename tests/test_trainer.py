import csv

import numpy as np
import pytest

from selbp.data import DatasetDescriptor, synth_blobs
from selbp.errors import BadFraction, TrainingDiverged
from selbp.model import Mlp, forward_tape, weighted_backward
from selbp.omp import Selection
from selbp.selection import StrategyConfig
from selbp.trainer import (
    METRICS_FIELDS,
    TrainConfig,
    apply_label_noise,
    cost_units,
    lr_at,
    resolve_batch_sizes,
    run_training,
    sgd_update,
    subset_size,
    write_metrics_csv,
)


def small_blobs(seed=3, n=500):
    desc = DatasetDescriptor(
        kind="blobs", n=n, classes=3, dim=2, separation=4.0, split=0.8, seed=seed
    )
    return synth_blobs(desc)


# ------------------------------------------------------------- batch sizes


def test_fixed_mode_shrinks_subset():
    cfg = TrainConfig(base_batch=128, fraction=0.5, batch_mode="fixed")
    assert resolve_batch_sizes(cfg) == (128, 64)


def test_scaled_mode_inflates_forward_batch():
    cfg = TrainConfig(base_batch=128, fraction=0.5, batch_mode="scaled")
    assert resolve_batch_sizes(cfg) == (256, 128)


def test_full_fraction_is_identity_in_both_modes():
    for mode in ("fixed", "scaled"):
        cfg = TrainConfig(base_batch=128, fraction=1.0, batch_mode=mode)
        assert resolve_batch_sizes(cfg) == (128, 128)


def test_tiny_fraction_rejected():
    cfg = TrainConfig(base_batch=4, fraction=0.01, batch_mode="fixed")
    with pytest.raises(BadFraction):
        resolve_batch_sizes(cfg)


def test_subset_size_rounds_and_keeps_one_row():
    assert subset_size(0.3, 45) == 14  # 13.5 rounds half to even
    assert subset_size(0.25, 320) == 80
    assert subset_size(0.1, 3) == 1


def test_partial_batch_uses_the_nominal_rounding_rule():
    ds = small_blobs(n=136)  # 109 training points: batches of 64 and 45
    assert ds.X_train.shape[0] == 109
    cfg = TrainConfig(base_batch=64, fraction=0.3, epochs=1, base_lr=0.05, seed=2)
    _, m = resolve_batch_sizes(cfg)
    assert m == subset_size(0.3, 64) == 19
    model = Mlp.init([2, 8, 3], seed=3)
    records = run_training(cfg, StrategyConfig(kind="random", fraction=0.3), ds, model)
    assert records[-1].backprop_points_cum == 19 + 14
    assert records[-1].cost_units_cum == pytest.approx(cost_units(64, 19) + cost_units(45, 14))


# ------------------------------------------------------------- cost model


def test_cost_units_value():
    assert abs(cost_units(128, 64) - (128 / 3 + 64)) < 1e-12
    assert cost_units(128, 64) < 128


def test_cost_break_even_at_two_thirds():
    assert cost_units(96, 64) == 96.0


def test_cost_full_subset_is_overhead():
    M = 99
    assert cost_units(M, M) == 4 * M / 3


# ------------------------------------------------------------- schedules


def cifar_like(**kw):
    base = dict(
        base_batch=128, epochs=200, base_lr=0.1,
        schedule="step", milestones=(60, 120, 160), decay_factor=0.2,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_step_schedule_first_decay():
    assert abs(lr_at(cifar_like(), 61) - 0.02) < 1e-15
    assert lr_at(cifar_like(), 0) == 0.1
    assert abs(lr_at(cifar_like(), 199) - 0.1 * 0.2**3) < 1e-15


def test_constant_schedule():
    cfg = TrainConfig(schedule="constant", base_lr=0.05)
    assert lr_at(cfg, 0) == lr_at(cfg, 13) == 0.05


def test_stretched_step_schedule():
    cfg = cifar_like(lr_factor=0.5, stretch_schedule=True)
    assert cfg.total_epochs == 400
    assert abs(lr_at(cfg, 0) - 0.05) < 1e-15
    # effective milestones [120, 240, 320]
    assert abs(lr_at(cfg, 119) - 0.05) < 1e-15
    assert abs(lr_at(cfg, 120) - 0.01) < 1e-15
    assert abs(lr_at(cfg, 321) - 0.05 * 0.2**3) < 1e-15


def test_cosine_schedule_anneals_to_zero():
    cfg = TrainConfig(schedule="cosine", base_lr=0.01, epochs=80)
    assert lr_at(cfg, 0) == 0.01
    assert abs(lr_at(cfg, 40) - 0.005) < 1e-15
    assert lr_at(cfg, 80) < 1e-15


# ------------------------------------------------------------- label noise


def test_label_noise_zero_is_noop():
    y = np.arange(10) % 3
    out = apply_label_noise(y, 0.0, 3, np.random.default_rng(0))
    np.testing.assert_array_equal(out, y)


def test_label_noise_exact_count():
    rng = np.random.default_rng(1)
    y = np.zeros(1000, dtype=np.intp)
    noisy = apply_label_noise(y, 0.1, 5, rng)
    # exactly 100 indices redrawn; redraws may coincide with the original
    assert (noisy != y).sum() <= 100
    rng2 = np.random.default_rng(1)
    idx = rng2.choice(1000, size=100, replace=False)
    redrawn = rng2.integers(0, 5, size=100)
    expected = y.copy()
    expected[idx] = redrawn
    np.testing.assert_array_equal(noisy, expected)


def test_label_noise_reproducible():
    y = np.arange(200) % 4
    a = apply_label_noise(y, 0.25, 4, np.random.default_rng(9))
    b = apply_label_noise(y, 0.25, 4, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


# ------------------------------------------------------------- optimizer


def test_nesterov_matches_two_step_oracle_on_quadratic():
    A = np.diag([1.0, 4.0])
    theta = np.array([1.0, -2.0])
    vel = np.zeros(2)
    theta_ref, vel_ref = theta.copy(), vel.copy()
    for _ in range(3):
        g = A @ theta
        theta, vel = sgd_update(theta, vel, g, lr=0.1, momentum=0.9, nesterov=True)
        # hand-rolled two-step form: v' = mu v + g;  theta' = theta - lr g - lr mu v'
        g_ref = A @ theta_ref
        vel_ref = 0.9 * vel_ref + g_ref
        theta_ref = theta_ref - 0.1 * g_ref - 0.1 * 0.9 * vel_ref
    np.testing.assert_allclose(theta, theta_ref, rtol=1e-14)
    np.testing.assert_allclose(vel, vel_ref, rtol=1e-14)


def test_plain_sgd_reduces_to_gradient_step():
    theta, vel = sgd_update(np.array([1.0]), np.array([0.0]), np.array([2.0]), lr=0.5)
    np.testing.assert_array_equal(theta, [0.0])


# ------------------------------------------------------------- training loop


def plain_sgd_loop(cfg, dataset, model):
    """Reference minibatch-SGD loop mirroring the trainer's RNG usage."""
    rng = np.random.default_rng(cfg.seed)
    theta = model.get_params()
    vel = np.zeros_like(theta)
    N = dataset.X_train.shape[0]
    mu = cfg.momentum if cfg.optimizer == "sgd_momentum" else 0.0
    for epoch in range(cfg.total_epochs):
        lr = lr_at(cfg, epoch)
        perm = rng.permutation(N)
        for start in range(0, N, cfg.base_batch):
            b = perm[start : start + cfg.base_batch]
            Xb, yb = dataset.X_train[b], dataset.y_train[b]
            forward_tape(model, Xb, yb)  # the selection pass
            sel = Selection(np.arange(len(b)), np.ones(len(b)))
            g = weighted_backward(model, Xb, yb, sel) + cfg.weight_decay * theta
            theta, vel = sgd_update(theta, vel, g, lr, mu, cfg.nesterov)
            model.set_params(theta)
    return model.get_params()


def test_full_fraction_random_is_bitwise_plain_sgd():
    ds = small_blobs()
    cfg = TrainConfig(
        base_batch=64, fraction=1.0, epochs=3, base_lr=0.05,
        schedule="step", milestones=(2,), weight_decay=1e-4, seed=5,
    )
    m1 = Mlp.init([2, 16, 3], seed=9)
    run_training(cfg, StrategyConfig(kind="random", fraction=1.0), ds, m1)
    m2 = Mlp.init([2, 16, 3], seed=9)
    ref = plain_sgd_loop(cfg, ds, m2)
    np.testing.assert_array_equal(m1.get_params(), ref)


def test_run_training_reproducible():
    ds = small_blobs()
    cfg = TrainConfig(base_batch=64, fraction=0.25, epochs=2, base_lr=0.1, seed=11)
    strat = StrategyConfig(kind="grad_match", fraction=0.25)
    m1 = Mlp.init([2, 8, 3], seed=1)
    r1 = run_training(cfg, strat, ds, m1)
    m2 = Mlp.init([2, 8, 3], seed=1)
    r2 = run_training(cfg, strat, ds, m2)
    np.testing.assert_array_equal(m1.get_params(), m2.get_params())
    assert [r.train_loss for r in r1] == [r.train_loss for r in r2]


def test_backprop_points_track_fraction():
    ds = small_blobs(n=400)
    cfg = TrainConfig(base_batch=64, fraction=0.5, epochs=2, base_lr=0.05, seed=2)
    model = Mlp.init([2, 8, 3], seed=3)
    records = run_training(cfg, StrategyConfig(kind="random", fraction=0.5), ds, model)
    forward_points = 2 * ds.X_train.shape[0]
    assert abs(records[-1].backprop_points_cum - 0.5 * forward_points) <= 64


def test_cost_units_savings_iff_small_subset():
    ds = small_blobs(n=320)
    for frac, saves in ((0.5, True), (1.0, False)):
        cfg = TrainConfig(base_batch=64, fraction=frac, epochs=1, base_lr=0.05, seed=2)
        model = Mlp.init([2, 8, 3], seed=3)
        records = run_training(cfg, StrategyConfig(kind="random", fraction=frac), ds, model)
        full_ref = ds.X_train.shape[0]  # one full-batch epoch costs N units
        assert (records[-1].cost_units_cum < full_ref) == saves


def test_cumulative_fields_non_decreasing():
    ds = small_blobs(n=400)
    cfg = TrainConfig(base_batch=64, fraction=0.25, epochs=3, base_lr=0.05, seed=4)
    model = Mlp.init([2, 8, 3], seed=5)
    records = run_training(cfg, StrategyConfig(kind="loss_based", fraction=0.25), ds, model)
    bp = [r.backprop_points_cum for r in records]
    cu = [r.cost_units_cum for r in records]
    assert bp == sorted(bp) and cu == sorted(cu)


def test_divergence_raises_with_diagnostic_record():
    ds = small_blobs(n=200)
    cfg = TrainConfig(base_batch=64, fraction=1.0, epochs=3, base_lr=1e200, seed=6)
    model = Mlp.init([2, 8, 3], seed=7)
    with pytest.raises(TrainingDiverged) as exc:
        run_training(cfg, StrategyConfig(kind="random", fraction=1.0), ds, model)
    last = exc.value.records[-1]
    assert np.isnan(last.train_loss)


def test_metrics_csv_schema_and_roundtrip(tmp_path):
    ds = small_blobs(n=200)
    cfg = TrainConfig(base_batch=64, fraction=0.5, epochs=2, base_lr=0.05, seed=8)
    model = Mlp.init([2, 8, 3], seed=9)
    records = run_training(cfg, StrategyConfig(kind="random", fraction=0.5), ds, model)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(records, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == METRICS_FIELDS
    assert len(rows) == len(records) == cfg.epochs
    assert float(rows[-1]["test_accuracy"]) == records[-1].test_accuracy


def test_config_validation():
    with pytest.raises(BadFraction):
        TrainConfig(fraction=0.0)
    with pytest.raises(ValueError):
        TrainConfig(milestones=(10, 10))
    with pytest.raises(ValueError):
        TrainConfig(lr_factor=0.0)
    with pytest.raises(ValueError):
        TrainConfig(label_noise=1.0)
    with pytest.raises(ValueError):
        TrainConfig(schedule="linear")
