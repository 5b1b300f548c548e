import csv
from dataclasses import astuple

import numpy as np
import pytest

import selbp.evalgrad
import selbp.trainer
from selbp.cli import write_csv
from selbp.data import DatasetDescriptor, synth_blobs
from selbp.errors import DimensionMismatch
from selbp.evalgrad import (
    GRAD_ERROR_FIELDS,
    full_dataset_gradient,
    gradient_error_experiment,
)
from selbp.model import Mlp, per_example_grads
from selbp.selection import (OmpConfig, StrategyConfig, omp_gram, select_grad_match,
                             select_loss_based, select_random)
from selbp.trainer import TrainConfig, cost_units, run_training


def toy_problem(seed=0, N=64, d=3, classes=3, hidden=8):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, d))
    y = rng.integers(0, classes, N)
    model = Mlp.init([d, hidden, classes], seed=seed)
    return model, X, y


def all_strategies():
    return {
        "random": StrategyConfig(kind="random"),
        "loss_based": StrategyConfig(kind="loss_based"),
        "grad_match": StrategyConfig(kind="grad_match"),
    }


def test_full_gradient_single_point():
    model, X, y = toy_problem(N=1)
    g = full_dataset_gradient(model, X, y)
    np.testing.assert_allclose(g, per_example_grads(model, X, y)[0], rtol=1e-14)


def test_full_gradient_duplication_invariant():
    model, X, y = toy_problem(N=20)
    g1 = full_dataset_gradient(model, X, y)
    g2 = full_dataset_gradient(model, np.tile(X, (2, 1)), np.tile(y, 2))
    np.testing.assert_allclose(g1, g2, rtol=1e-12, atol=1e-15)


def test_full_gradient_matches_per_example_mean(monkeypatch):
    model, X, y = toy_problem(N=256)
    monkeypatch.setattr(selbp.evalgrad, "CHUNK_ROWS", 100)
    g = full_dataset_gradient(model, X, y)
    mean = per_example_grads(model, X, y).mean(axis=0)
    assert np.abs(g - mean).max() <= 1e-12 * max(np.abs(mean).max(), 1.0)


def test_full_gradient_rejects_non_finite_activations(monkeypatch):
    model, X, y = toy_problem(N=40)
    monkeypatch.setattr(selbp.evalgrad, "CHUNK_ROWS", 32)
    X[33, 1] = np.nan  # in the second chunk
    with pytest.raises(ValueError, match="non-finite"):
        full_dataset_gradient(model, X, y)


def test_full_strategy_zero_error_on_single_batch_dataset():
    # When the dataset is exactly one minibatch, keeping everything is exact.
    model, X, y = toy_problem(N=32)
    samples = gradient_error_experiment(
        model, X, y, {"full": None}, num_batches=5, M=32, m=32, seed=1
    )
    assert all(s.squared_error < 1e-24 for s in samples)


def errors_by_strategy(samples):
    by = {}
    for s in samples:
        by.setdefault(s.strategy, []).append(s.squared_error)
    return by


def test_identity_subset_equals_plain_minibatch_error():
    # m = M: every strategy keeps the whole batch with unit weights, as the
    # trainer does, so its error equals the plain minibatch estimator's.
    model, X, y = toy_problem(N=128)
    strategies = {"full": None, **all_strategies()}
    samples = gradient_error_experiment(
        model, X, y, strategies, num_batches=10, M=32, m=32, seed=2
    )
    by = errors_by_strategy(samples)
    for name in all_strategies():
        assert by[name] == by["full"], name


def test_a_none_entry_under_any_name_keeps_the_whole_batch():
    # The reference is keyed by its None value, not by the name "full".
    model, X, y = toy_problem(N=128)
    full = gradient_error_experiment(model, X, y, {"full": None}, num_batches=4,
                                     M=32, m=8, seed=7)
    whole = gradient_error_experiment(model, X, y, {"whole": None}, num_batches=4,
                                      M=32, m=8, seed=7)
    assert [(s.batch_index, s.squared_error) for s in whole] == \
        [(s.batch_index, s.squared_error) for s in full]
    assert {s.strategy for s in whole} == {"whole"}


@pytest.mark.parametrize("batch_mode,base_batch", [("fixed", 64), ("scaled", 16)])
def test_loss_history_holds_eight_forward_batches(monkeypatch, batch_mode, base_batch):
    # Training and the experiment both rank losses against the latest 8 * M,
    # M the forward batch: 8 * 64 in both modes (scaled: 16 / 0.25 = 64 rows).
    select = selbp.trainer.select_loss_based
    maxlens = []

    def spy(losses, m, buffer, rng):
        maxlens.append(buffer.maxlen)
        return select(losses, m, buffer, rng)

    monkeypatch.setattr(selbp.trainer, "select_loss_based", spy)
    strategy = StrategyConfig(kind="loss_based", fraction=0.25, cdf_source="rolling_buffer")
    cfg = TrainConfig(base_batch=base_batch, fraction=0.25, batch_mode=batch_mode,
                      epochs=1, base_lr=0.05, seed=1)
    ds = synth_blobs(DatasetDescriptor(kind="blobs", n=200, classes=3, dim=3, seed=2))
    run_training(cfg, strategy, ds, Mlp.init([3, 8, 3], seed=3))
    trained = len(maxlens)
    model, X, y = toy_problem(N=128)
    gradient_error_experiment(model, X, y, {"loss_based": strategy}, num_batches=2,
                              M=64, m=16, seed=6)
    assert trained == 3 and len(maxlens) == 5  # batches of 64, 64 and 32; then 2
    assert set(maxlens) == {8 * 64}


def test_paired_batches_across_strategies():
    # Reordering the strategy dict must not change any strategy's errors:
    # each owns a private RNG stream keyed by name order-independent data.
    model, X, y = toy_problem(N=256)
    s1 = gradient_error_experiment(
        model, X, y, {"full": None, "random": StrategyConfig(kind="random")},
        num_batches=8, M=64, m=16, seed=3,
    )
    s2 = gradient_error_experiment(
        model, X, y, {"full": None}, num_batches=8, M=64, m=16, seed=3
    )
    full1 = [s.squared_error for s in s1 if s.strategy == "full"]
    full2 = [s.squared_error for s in s2 if s.strategy == "full"]
    np.testing.assert_array_equal(full1, full2)


def test_sample_counts_and_csv(tmp_path):
    model, X, y = toy_problem(N=200)
    samples = gradient_error_experiment(
        model, X, y, all_strategies(), num_batches=7, M=50, m=10, seed=4
    )
    counts = {}
    for s in samples:
        counts[s.strategy] = counts.get(s.strategy, 0) + 1
    assert counts == {"random": 7, "loss_based": 7, "grad_match": 7}

    path = tmp_path / "errors.csv"
    write_csv(path, GRAD_ERROR_FIELDS, map(astuple, samples))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["strategy", "batch_index", "squared_error"]
    assert len(rows) == 21
    per_strategy = {}
    for row in rows:
        per_strategy[row["strategy"]] = per_strategy.get(row["strategy"], 0) + 1
    assert all(v == 7 for v in per_strategy.values())


def test_experiment_deterministic():
    model, X, y = toy_problem(N=128)
    a = gradient_error_experiment(model, X, y, all_strategies(), 5, 32, 8, seed=5)
    b = gradient_error_experiment(model, X, y, all_strategies(), 5, 32, 8, seed=5)
    assert [s.squared_error for s in a] == [s.squared_error for s in b]


# Every function that takes a subset of m rows out of a forward batch of M,
# called as (M, m); all of them defer to selection.check_subset_size.
SUBSET_SIZE_SITES = {
    "select_random": lambda M, m: select_random(M, m, np.random.default_rng(0)),
    "select_loss_based": lambda M, m: select_loss_based(
        np.arange(M, dtype=float), m, None, np.random.default_rng(0)),
    "select_grad_match": lambda M, m: select_grad_match(np.eye(M), m, np.random.default_rng(0)),
    "omp_gram": lambda M, m: omp_gram(np.eye(M), np.ones(M), OmpConfig(max_atoms=m)),
    "cost_units": cost_units,
    "gradient_error_experiment": lambda M, m: gradient_error_experiment(
        *toy_problem(N=2 * M), {"full": None}, 1, M, m),
}


@pytest.mark.parametrize("site", SUBSET_SIZE_SITES)
@pytest.mark.parametrize("m,message", [(0, "subset size m must be >= 1"),
                                       (5, "m 5 exceeds batch size 4")],
                         ids=["m=0", "m=M+1"])
def test_every_subset_size_site_rejects_m_outside_one_to_M(site, m, message):
    with pytest.raises(DimensionMismatch, match=message):
        SUBSET_SIZE_SITES[site](4, m)


def test_experiment_checks_the_subset_size_before_the_full_gradient(monkeypatch):
    def full_pass(*args):
        raise AssertionError("the full-dataset pass ran before the size check")

    monkeypatch.setattr(selbp.evalgrad, "full_dataset_gradient", full_pass)
    model, X, y = toy_problem(N=64)
    with pytest.raises(DimensionMismatch, match="must be >= 1"):
        gradient_error_experiment(model, X, y, all_strategies(), 1, 32, 0)


def test_experiment_rejects_a_forward_batch_beyond_the_data():
    model, X, y = toy_problem(N=16)
    with pytest.raises(DimensionMismatch, match="M=32 exceeds the N=16 rows"):
        gradient_error_experiment(model, X, y, all_strategies(), 1, 32, 8)
