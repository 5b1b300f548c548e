import csv

import numpy as np

from selbp.evalgrad import (
    full_dataset_gradient,
    gradient_error_experiment,
    write_grad_error_csv,
)
from selbp.model import Mlp, per_example_grads
from selbp.selection import StrategyConfig


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


def test_full_gradient_matches_per_example_mean():
    model, X, y = toy_problem(N=256)
    g = full_dataset_gradient(model, X, y, chunk_size=100)
    mean = per_example_grads(model, X, y).mean(axis=0)
    assert np.abs(g - mean).max() <= 1e-12 * max(np.abs(mean).max(), 1.0)


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


def test_loss_buffer_capacity_is_honoured():
    model, X, y = toy_problem(N=128)

    def loss_based_errors(capacity):
        cfg = StrategyConfig(
            kind="loss_based", cdf_source="rolling_buffer", buffer_capacity=capacity
        )
        samples = gradient_error_experiment(
            model, X, y, {"loss_based": cfg}, num_batches=6, M=32, m=8, seed=6
        )
        return errors_by_strategy(samples)["loss_based"]

    default = loss_based_errors(None)
    assert loss_based_errors(8 * 32) == default
    assert loss_based_errors(4) != default


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
    write_grad_error_csv(samples, path)
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
