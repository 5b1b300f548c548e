"""Output checks, run outside the timed and traced passes.

Each check is one attempted operation; a failing check is a failed one. The
per-example gradients from ``selbp.model.per_example_grads`` are the oracle
for the weighted backward pass the trainer and the experiment use.
"""

import copy
import math

import numpy as np

from layers import Tracer

GRAD_RTOL = 1e-9
WEIGHT_RTOL = 1e-9
REPLAY_CHUNK = 16


def _replay_error(model, sample):
    """Relative max-abs gap between a recorded weighted gradient and the
    weighted mean of per-example gradients at the same parameters."""
    from selbp.model import per_example_grads

    model = copy.deepcopy(model)
    model.set_params(sample.params)
    est = np.zeros_like(sample.grad)
    for start in range(0, sample.indices.shape[0], REPLAY_CHUNK):
        idx = sample.indices[start : start + REPLAY_CHUNK]
        rows = per_example_grads(model, sample.X[idx], sample.y[idx])
        est += sample.weights[start : start + REPLAY_CHUNK] @ rows
    est /= sample.indices.shape[0]
    scale = max(float(np.abs(sample.grad).max()), np.finfo(float).tiny)
    return float(np.abs(est - sample.grad).max()) / scale


def _weights_ok(tracer, module):
    """Every selection handed to ``module``'s backward is non-negative and sums to |I|."""
    calls = [c for c in tracer.backward_calls if c.target.startswith(module)]
    bad = [c for c in calls if c.wmin < 0 or abs(c.wsum - c.size) > WEIGHT_RTOL * c.size]
    return bool(calls) and not bad, f"{len(bad)} of {len(calls)} selections off"


def _replay_checks(tracer, model, target):
    out = []
    for k, sample in enumerate(tracer.step_samples.get(target, [])):
        err = _replay_error(model, sample)
        out.append((f"{target} step sample {k} gradient", err <= GRAD_RTOL,
                    f"relative error {err:.1e}"))
    if not out:
        out.append((f"{target} gradient", False, "no step was captured"))
    return out


def check_training(run_training, cfg, strategy, dataset, model):
    """Train one epoch from ``model`` under the tracer and check its outputs."""
    start = copy.deepcopy(model)
    with Tracer(capture_steps=True) as tracer:
        records = run_training(cfg, strategy, dataset, model)
    trainer = [c for c in tracer.backward_calls if c.target == "selbp.trainer.weighted_backward"]
    rebuilt = 0.0
    for c in trainer:
        rebuilt += c.rows / 3 + c.size
    last = records[-1]
    out = _replay_checks(tracer, start, "selbp.trainer.weighted_backward")
    out.append(("cost_units_cum rebuilt from selection sizes",
                math.isclose(rebuilt, last.cost_units_cum, rel_tol=1e-12),
                f"rebuilt {rebuilt} vs reported {last.cost_units_cum}"))
    out.append(("backprop_points_cum equals selection sizes",
                sum(c.size for c in trainer) == last.backprop_points_cum,
                f"{sum(c.size for c in trainer)} vs {last.backprop_points_cum}"))
    out.append(("trainer selection weights", *_weights_ok(tracer, "selbp.trainer")))
    return out


def check_experiment(experiment, model, X, y, strategies, M, m, seed):
    """Run a two-batch gradient-error experiment under the tracer and check it."""
    with Tracer(capture_steps=True) as tracer:
        experiment(model, X, y, strategies, num_batches=2, M=M, m=m, seed=seed)
    out = _replay_checks(tracer, model, "selbp.evalgrad.weighted_backward")
    out.append(("experiment selection weights", *_weights_ok(tracer, "selbp.evalgrad")))
    return out


def check_metrics(metrics, floor, full_err=None):
    """Every end-to-end value is finite; accuracy clears the floor; with
    ``full_err`` the full forward batch must beat random subsets."""
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    out = [("metrics finite", not bad, f"non-finite: {bad}")]
    acc = metrics["test_acc"]
    out.append(("test_acc above floor", acc > floor, f"{acc:.4f} vs floor {floor}"))
    if full_err is not None:
        rand = metrics["grad_err.random"]
        out.append(("full-batch error below random's", full_err < rand,
                    f"full {full_err:.3e} vs random {rand:.3e}"))
    return out
