"""The benchmark's tracer (``bench/layers.py``) reads the arguments of every
call it wraps. A call whose arguments it cannot read is only timed, so its
per-layer metrics would read zero while the benchmark still runs; a change to
the package that renames what the tracer reads must update the tracer and
this test."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from selbp.data import DatasetDescriptor, build_dataset
from selbp.evalgrad import gradient_error_experiment
from selbp.model import Mlp
from selbp.selection import StrategyConfig
from selbp.trainer import TrainConfig, run_training

LAYERS_PY = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_reads_every_call_it_wraps(layers):
    ds = build_dataset(DatasetDescriptor(kind="blobs", n=200, seed=1))
    strategies = {
        "grad_match": StrategyConfig(kind="grad_match", fraction=0.25),
        "random": StrategyConfig(kind="random", fraction=1.0),
        "loss_based": StrategyConfig(kind="loss_based", fraction=0.25,
                                     cdf_source="rolling_buffer"),
    }
    with layers.Tracer(residual_every=1, capture_steps=True) as tracer:
        for seed, strategy in enumerate(strategies.values()):
            cfg = TrainConfig(base_batch=32, fraction=strategy.fraction, epochs=1,
                              base_lr=0.05, seed=seed)
            run_training(cfg, strategy, ds, Mlp.init([2, 8, 3], seed=seed))
        gradient_error_experiment(Mlp.init([2, 8, 3]), ds.X_train, ds.y_train,
                                  {"full": None, **strategies}, num_batches=2, M=32, m=8)
    assert tracer.absent == []
    assert tracer.unreadable == set()
    # Every layer is reached, so each one's reading above was exercised.
    assert [layer for layer, stats in tracer.stats.items() if stats.calls == 0] == []
    targets = layers.LAYERS["model.weighted_backward"]
    assert {target: len(tracer.step_samples.get(target, [])) for target in targets} \
        == dict.fromkeys(targets, 2)
