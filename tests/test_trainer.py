import csv
import pickle
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selbp.trainer
from selbp.cli import write_csv
from selbp.data import DatasetDescriptor, synth_blobs
from selbp.errors import DimensionMismatch, TrainingDiverged
from selbp.model import Mlp, forward_tape
from selbp.selection import CDF_SOURCES, StrategyConfig, loss_history, select_loss_based
from selbp.trainer import (
    BATCH_MODES,
    METRICS_FIELDS,
    TrainConfig,
    apply_label_noise,
    cost_units,
    forward_batch,
    lr_at,
    run_training,
    select_subset,
    sgd_update,
    subset_size,
)


def small_blobs(seed=3, n=500):
    desc = DatasetDescriptor(
        kind="blobs", n=n, classes=3, dim=2, separation=4.0, split=0.8, seed=seed
    )
    return synth_blobs(desc)


# ------------------------------------------------------------- batch sizes


def test_fixed_mode_shrinks_subset():
    cfg = TrainConfig(base_batch=128, fraction=0.5, batch_mode="fixed")
    assert forward_batch(cfg) == 128
    assert subset_size(cfg.fraction, 128) == 64


def test_scaled_mode_inflates_forward_batch():
    cfg = TrainConfig(base_batch=128, fraction=0.5, batch_mode="scaled")
    assert forward_batch(cfg) == 256
    assert subset_size(cfg.fraction, 256) == 128


def test_full_fraction_is_identity_in_both_modes():
    for mode in ("fixed", "scaled"):
        cfg = TrainConfig(base_batch=128, fraction=1.0, batch_mode=mode)
        assert forward_batch(cfg) == 128
        assert subset_size(cfg.fraction, 128) == 128


def test_scaled_mode_rejects_a_forward_batch_beyond_the_training_set():
    ds = small_blobs(n=300)  # 240 training rows
    cfg = TrainConfig(base_batch=64, fraction=0.1, batch_mode="scaled", epochs=1)
    assert forward_batch(cfg) == 640
    assert subset_size(cfg.fraction, 640) == 64
    with pytest.raises(DimensionMismatch, match="M=640.*N=240"):
        run_training(cfg, StrategyConfig(kind="random", fraction=0.1), ds,
                     Mlp.init([2, 8, 3], seed=1))


def test_tiny_fraction_rejected():
    cfg = TrainConfig(base_batch=4, fraction=0.01, batch_mode="fixed")
    with pytest.raises(DimensionMismatch):
        forward_batch(cfg)


def test_subset_size_rounds_and_keeps_one_row():
    assert subset_size(0.3, 45) == 14  # 13.5 rounds half to even
    assert subset_size(0.25, 320) == 80
    assert subset_size(0.1, 3) == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    batch_mode=st.sampled_from(BATCH_MODES),
    base_batch=st.integers(1, 1024),
    fraction=st.floats(0.001, 1.0),
)
def test_nominal_subset_is_the_rounding_rule_on_the_forward_batch(batch_mode, base_batch,
                                                                  fraction):
    # So one rule, subset_size(fraction, rows), cuts full and partial batches
    # alike: scaled mode's forward batch is cut back to base_batch rows.
    cfg = TrainConfig(base_batch=base_batch, fraction=fraction, batch_mode=batch_mode)
    if batch_mode == "fixed" and round(fraction * base_batch) < 1:
        with pytest.raises(DimensionMismatch):
            forward_batch(cfg)
        return
    M = forward_batch(cfg)
    if batch_mode == "scaled":
        assert subset_size(fraction, M) == base_batch
    else:
        assert M == base_batch


def test_partial_batch_uses_the_nominal_rounding_rule():
    ds = small_blobs(n=136)  # 109 training points: batches of 64 and 45
    assert ds.X_train.shape[0] == 109
    cfg = TrainConfig(base_batch=64, fraction=0.3, epochs=1, base_lr=0.05, seed=2)
    assert forward_batch(cfg) == 64
    assert subset_size(cfg.fraction, 64) == 19
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


# ------------------------------------------------------------- update rule


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


@pytest.mark.parametrize("momentum,nesterov", [(0.9, True), (0.9, False), (0.0, False)])
def test_sgd_update_in_place_is_bitwise_the_out_of_place_step(momentum, nesterov):
    rng = np.random.default_rng(17)
    theta, vel, grad = rng.standard_normal((3, 1000))
    lr = 0.037
    # The out-of-place formula, written out.
    vel_ref = momentum * vel + grad
    if nesterov and momentum > 0:
        theta_ref = theta - lr * (grad + momentum * vel_ref)
    else:
        theta_ref = theta - lr * vel_ref
    grad_before = grad.copy()
    out_theta, out_vel = sgd_update(theta, vel, grad, lr, momentum, nesterov)
    assert out_theta is theta and out_vel is vel
    assert np.array_equal(theta, theta_ref) and np.array_equal(vel, vel_ref)
    assert np.array_equal(grad, grad_before)


def test_plain_sgd_reduces_to_gradient_step():
    theta, vel = sgd_update(np.array([1.0]), np.array([0.0]), np.array([2.0]), lr=0.5)
    np.testing.assert_array_equal(theta, [0.0])


# ------------------------------------------------------------- training loop


def test_full_fraction_random_is_bitwise_plain_sgd(plain_sgd_reference):
    ds = small_blobs()
    cfg = TrainConfig(
        base_batch=64, fraction=1.0, epochs=3, base_lr=0.05,
        schedule="step", milestones=(2,), weight_decay=1e-4, seed=5,
    )
    m1 = Mlp.init([2, 16, 3], seed=9)
    run_training(cfg, StrategyConfig(kind="random", fraction=1.0), ds, m1)
    m2 = Mlp.init([2, 16, 3], seed=9)
    ref = plain_sgd_reference(cfg, ds, m2)
    np.testing.assert_array_equal(m1.get_params(), ref)


def test_one_forward_pass_per_step(monkeypatch):
    import selbp.model

    forward = selbp.model._forward
    rows = []

    def counting_forward(model, X):
        rows.append(np.shape(X)[0])
        return forward(model, X)

    monkeypatch.setattr(selbp.model, "_forward", counting_forward)
    ds = small_blobs(n=300)  # 240 training rows: batches of 64, 64, 64 and 48
    cfg = TrainConfig(base_batch=64, fraction=0.5, epochs=1, base_lr=0.05, seed=3)
    model = Mlp.init([2, 8, 3], seed=4)
    records = run_training(cfg, StrategyConfig(kind="random", fraction=0.5), ds, model)
    assert records[-1].backprop_points_cum == 32 * 3 + 24
    assert rows == [64, 64, 64, 48, ds.X_test.shape[0]]


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


# 400 training rows in batches of 64: six subsets of round(64 rho) rows and a
# 16-row tail's of round(16 rho), so rho = 0.25 gives 16 six times and then 4.
@pytest.mark.parametrize("kind,fraction,size_mean", [
    ("random", 0.25, 100 / 7), ("loss_based", 0.25, 100 / 7), ("random", 1.0, 400 / 7)])
def test_unit_weight_epochs_record_their_subset_sizes(kind, fraction, size_mean):
    cfg = TrainConfig(base_batch=64, fraction=fraction, epochs=2, base_lr=0.05, seed=4)
    records = run_training(cfg, StrategyConfig(kind=kind, fraction=fraction), small_blobs(),
                           Mlp.init([2, 8, 3], seed=5))
    assert [(r.selection_size_mean, r.weight_max) for r in records] == [(size_mean, 1.0)] * 2


def test_grad_match_epochs_record_fewer_rows_and_weights_above_one():
    cfg = TrainConfig(base_batch=64, fraction=0.25, epochs=2, base_lr=0.05, seed=4)
    records = run_training(cfg, StrategyConfig(kind="grad_match", fraction=0.25), small_blobs(),
                           Mlp.init([2, 8, 3], seed=5))
    for r in records:
        assert r.selection_size_mean <= 100 / 7  # OMP takes at most m atoms a step
        assert r.weight_max > 1.0  # positive weights summing to |I|, not all equal


def test_rolling_buffer_run_survives_a_batch_below_the_buffer(monkeypatch):
    # With two-row batches the losses soon fall below the whole rolling buffer.
    real = selbp.trainer.select_loss_based
    below = []

    def watch(losses, m, buffer, rng):
        below.append(bool(buffer) and losses.max() < min(buffer))
        return real(losses, m, buffer, rng)

    monkeypatch.setattr(selbp.trainer, "select_loss_based", watch)
    cfg = TrainConfig(base_batch=2, fraction=0.5, epochs=2, base_lr=0.05, seed=0)
    strat = StrategyConfig(kind="loss_based", fraction=0.5, cdf_source="rolling_buffer")
    records = run_training(cfg, strat, small_blobs(), Mlp.init([2, 32, 3], seed=0))
    assert any(below) and len(records) == 2


@pytest.mark.parametrize("cdf_source", CDF_SOURCES)
def test_select_subset_hands_the_loss_history_to_a_rolling_buffer_alone(cdf_source):
    ds = small_blobs(n=100)
    tape = forward_tape(Mlp.init([2, 8, 3], seed=1), ds.X_train[:16], ds.y_train[:16])
    history = loss_history(16)
    history.extend(np.linspace(0.0, 2.0, 32))
    rolling = cdf_source == "rolling_buffer"
    reference = history.copy() if rolling else None
    sel = select_subset(StrategyConfig(kind="loss_based", cdf_source=cdf_source), tape, 4,
                        history, np.random.default_rng(5))
    expected = select_loss_based(tape.losses, 4, reference, np.random.default_rng(5))
    np.testing.assert_array_equal(sel.indices, expected.indices)
    assert len(history) == 32 + 16 * rolling  # extended exactly when read


def test_divergence_raises_with_diagnostic_record():
    ds = small_blobs(n=200)
    cfg = TrainConfig(base_batch=64, fraction=1.0, epochs=3, base_lr=1e200, seed=6)
    model = Mlp.init([2, 8, 3], seed=7)
    with pytest.raises(TrainingDiverged) as exc:
        run_training(cfg, StrategyConfig(kind="random", fraction=1.0), ds, model)
    last = exc.value.records[-1]
    assert np.isnan(last.train_loss)


def test_divergence_at_test_evaluation_raises_with_diagnostic_record():
    # M = N = 160: the one step's forward pass is finite, and only the test
    # evaluation after its update overflows.
    ds = small_blobs(n=200)
    cfg = TrainConfig(base_batch=80, fraction=0.5, batch_mode="scaled", epochs=1, base_lr=1e200)
    model = Mlp.init([2, 16, 3], seed=0)
    with pytest.raises(TrainingDiverged, match="logits contain non-finite entries") as exc:
        run_training(cfg, StrategyConfig(kind="random", fraction=0.5), ds, model)
    (last,) = exc.value.records
    assert last.step == 1 and np.isnan(last.test_accuracy)


def test_overflow_in_the_update_is_divergence_not_a_warning():
    # The first update overflows theta itself; the next forward pass reports it.
    ds = small_blobs(n=200)
    cfg = TrainConfig(base_batch=64, fraction=1.0, epochs=3, base_lr=1e308, seed=6)
    model = Mlp.init([2, 8, 3], seed=7)
    with pytest.raises(TrainingDiverged, match="epoch 0, step 1") as exc:
        run_training(cfg, StrategyConfig(kind="random", fraction=1.0), ds, model)
    assert np.isnan(exc.value.records[-1].train_loss)


def test_overflow_on_the_side_thread_is_divergence_not_a_warning(side):
    # After the first update the weights are about 1e200, so at step 1 the
    # 512 x 512 layer's matmul overflows, half of it on the side thread, which
    # must run under run_training's silenced error state, not numpy's default.
    ds = small_blobs(n=800)  # 640 training rows: steps of 256, 256 and 128 rows
    cfg = TrainConfig(base_batch=256, fraction=1.0, epochs=2, base_lr=1e200, seed=6)
    with pytest.raises(TrainingDiverged, match="epoch 0, step 1"):
        run_training(cfg, StrategyConfig(kind="random"), ds, Mlp.init([2, 512, 512, 3], seed=7))
    assert side.calls > 0


def test_an_overflowing_gram_matrix_is_divergence():
    # Huge hidden activations keep the tape finite but overflow H @ H.T.
    ds = small_blobs(n=200)
    model = Mlp.init([2, 8, 3], seed=7)
    (W0, b0), (W1, _) = model.layers
    W0 *= 1e160
    b0 *= 1e160
    W1 *= 1e-155
    cfg = TrainConfig(base_batch=64, fraction=0.5, epochs=2, seed=6)
    with pytest.raises(TrainingDiverged, match="step 0: Gram matrix contains non-finite") as exc:
        run_training(cfg, StrategyConfig(kind="grad_match"), ds, model)
    (last,) = exc.value.records
    assert last.step == 0 and np.isnan(last.train_loss)


def test_training_diverged_pickles_with_its_records():
    # A --jobs worker's divergence reaches the pool's caller pickled.
    ds = small_blobs(n=200)
    cfg = TrainConfig(base_batch=64, fraction=1.0, epochs=3, base_lr=1e200, seed=6)
    with pytest.raises(TrainingDiverged) as exc:
        run_training(cfg, StrategyConfig(kind="random"), ds, Mlp.init([2, 8, 3], seed=7))
    copy = pickle.loads(pickle.dumps(exc.value))
    assert str(copy) == str(exc.value)
    np.testing.assert_equal(list(map(astuple, copy.records)),
                            list(map(astuple, exc.value.records)))  # NaN equals NaN


def test_metrics_csv_schema_and_roundtrip(tmp_path):
    ds = small_blobs(n=200)
    cfg = TrainConfig(base_batch=64, fraction=0.5, epochs=2, base_lr=0.05, seed=8)
    model = Mlp.init([2, 8, 3], seed=9)
    records = run_training(cfg, StrategyConfig(kind="random", fraction=0.5), ds, model)
    path = tmp_path / "metrics.csv"
    write_csv(path, METRICS_FIELDS, map(astuple, records))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == METRICS_FIELDS
    assert len(rows) == len(records) == cfg.epochs
    assert float(rows[-1]["test_accuracy"]) == records[-1].test_accuracy


def test_config_validation():
    with pytest.raises(DimensionMismatch):
        TrainConfig(fraction=0.0)
    with pytest.raises(ValueError):
        TrainConfig(milestones=(10, 10))
    with pytest.raises(ValueError):
        TrainConfig(lr_factor=0.0)
    with pytest.raises(ValueError):
        TrainConfig(label_noise=1.0)
    with pytest.raises(ValueError):
        TrainConfig(schedule="linear")
    with pytest.raises(ValueError, match="batch_mode"):
        TrainConfig(batch_mode="doubled")
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="base_batch"):
        TrainConfig(base_batch=0)
