"""Two-pass training loop: forward M points, backprop a selected subset of m.

Epochs are counted by forward-pass coverage of the training set, so the
number of backpropagated points drops by the subsampling fraction. Cost is
accounted in abstract units where a forward pass costs 1/3 per example and
a forward+backward pass costs 1, giving M/3 + m per selective step against
M for a full-batch step.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch, TrainingDiverged
from .model import accuracy, forward_tape, gram_implicit, weighted_backward
from .selection import (Selection, check_subset_size, loss_history, select_grad_match,
                        select_loss_based, select_random)

SCHEDULES = ("constant", "step", "cosine")
BATCH_MODES = ("fixed", "scaled")


@dataclass
class TrainConfig:
    base_batch: int = 128
    fraction: float = 1.0
    batch_mode: str = "fixed"
    epochs: int = 20
    momentum: float = 0.9  # 0 gives plain SGD
    nesterov: bool = True
    weight_decay: float = 0.0
    schedule: str = "constant"
    milestones: tuple[int, ...] = ()
    decay_factor: float = 0.2
    base_lr: float = 0.1
    lr_factor: float = 1.0
    stretch_schedule: bool = False
    label_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.base_batch < 1:
            raise ValueError(f"base_batch must be >= 1, got {self.base_batch}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.fraction <= 1:
            raise DimensionMismatch(f"fraction must be in (0, 1], got {self.fraction}")
        if self.batch_mode not in BATCH_MODES:
            raise ValueError(f"unknown batch_mode {self.batch_mode!r}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        ms = tuple(self.milestones)
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("milestones must be strictly increasing")
        self.milestones = ms
        if not 0 < self.lr_factor <= 10:
            raise ValueError(f"lr_factor must be in (0, 10], got {self.lr_factor}")
        if not 0 <= self.label_noise < 1:
            raise ValueError(f"label_noise must be in [0, 1), got {self.label_noise}")
        if not self.base_lr > 0:
            raise ValueError(f"base_lr must be > 0, got {self.base_lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def total_epochs(self):
        """Epochs actually run; stretched by 1/lr_factor when enabled."""
        if self.stretch_schedule:
            return max(1, round(self.epochs / self.lr_factor))
        return self.epochs


@dataclass
class MetricsRecord:
    epoch: int
    step: int
    train_loss: float
    test_accuracy: float
    backprop_points_cum: int
    cost_units_cum: float
    selection_size_mean: float
    weight_max: float


METRICS_FIELDS = [f.name for f in fields(MetricsRecord)]


def subset_size(fraction, batch):
    """Rows to backprop out of a forward batch: round(fraction * batch), at least 1."""
    return max(1, round(fraction * batch))


def forward_batch(cfg):
    """Forward batch M; ``subset_size(fraction, rows)`` cuts each batch. Fixed
    mode keeps M at base_batch, rejecting a fraction whose subset rounds to 0
    rows; scaled mode inflates M so that the subset stays at base_batch."""
    if cfg.batch_mode == "scaled":
        return round(cfg.base_batch / cfg.fraction)
    if round(cfg.fraction * cfg.base_batch) < 1:
        raise DimensionMismatch(
            f"fraction {cfg.fraction} yields an empty subset for batch {cfg.base_batch}"
        )
    return cfg.base_batch


def cost_units(M, m):
    """Abstract cost of one selective step: forward M at 1/3 each, then m full."""
    check_subset_size(m, M)
    return M / 3 + m


def lr_at(cfg, epoch):
    """Learning rate at a (possibly fractional) epoch.

    The initial rate is lr_factor * base_lr; with stretch_schedule the step
    milestones and the cosine horizon scale by 1/lr_factor.
    """
    lr0 = cfg.lr_factor * cfg.base_lr
    stretch = 1.0 / cfg.lr_factor if cfg.stretch_schedule else 1.0
    if cfg.schedule == "constant":
        return lr0
    if cfg.schedule == "step":
        decays = sum(epoch >= ms * stretch for ms in cfg.milestones)
        return lr0 * cfg.decay_factor**decays
    horizon = cfg.epochs * stretch
    return 0.5 * lr0 * (1.0 + math.cos(math.pi * epoch / horizon))


def apply_label_noise(labels, fraction, num_classes, rng):
    """Redraw labels of floor(fraction * N) uniformly chosen training points;
    ``fraction`` is in [0, 1), as ``TrainConfig.label_noise`` checks."""
    labels = np.asarray(labels).copy()
    n_noisy = int(fraction * labels.shape[0])
    if n_noisy == 0:
        return labels
    idx = rng.choice(labels.shape[0], size=n_noisy, replace=False)
    labels[idx] = rng.integers(0, num_classes, size=n_noisy)
    return labels


def sgd_update(theta, velocity, grad, lr, momentum=0.0, nesterov=False):
    """One (Nesterov) momentum SGD step on ``theta`` and ``velocity`` in place;
    returns them. ``grad`` is only read.

    Momentum buffers are plain gradient accumulators; selection weights only
    shape the gradient estimate fed in here.
    """
    velocity *= momentum
    velocity += grad
    if nesterov and momentum > 0:
        theta -= lr * (grad + momentum * velocity)
    else:
        theta -= lr * velocity
    return theta, velocity


def select_subset(strategy, tape, m, buffer, rng):
    """The one strategy dispatch and the one reader of a StrategyConfig: ``m``
    rows of the tape's batch chosen by ``strategy.kind``, for training and for
    the gradient-error experiment alike. ``select_loss_based`` gets (and
    extends) ``buffer`` only when ``cdf_source`` is ``rolling_buffer``.

    At ``m >= M`` the step is full-batch: the identity selection, drawing no
    randomness and reading no strategy. The strategy functions are called by
    their names in this module, which is where the benchmark's tracer wraps them.
    """
    if m >= tape.M:
        return Selection(np.arange(tape.M), np.ones(tape.M))
    if strategy.kind == "random":
        return select_random(tape.M, m, rng)
    if strategy.kind == "loss_based":
        history = buffer if strategy.cdf_source == "rolling_buffer" else None
        return select_loss_based(tape.losses, m, history, rng)
    return select_grad_match(gram_implicit(tape), m, rng)


def run_training(cfg, strategy, dataset, model):
    """Train ``model`` in place; returns one MetricsRecord per epoch.

    Each epoch's steps and test evaluation run with overflow silenced: a
    non-finite value anywhere in them surfaces as a ``ValueError`` at the next
    forward pass (``BatchTape``'s check), Batch-OMP (``omp_gram``'s) or the test
    evaluation (``accuracy``'s), raised as :class:`TrainingDiverged` with the
    records so far plus a NaN diagnostic row. Raises :class:`DimensionMismatch`
    when scaled mode's forward batch exceeds the training set.
    """
    rng = np.random.default_rng(cfg.seed)
    X, y = dataset.X_train, dataset.y_train
    N = X.shape[0]
    M = forward_batch(cfg)
    if cfg.batch_mode == "scaled" and M > N:
        raise DimensionMismatch(
            f"scaled mode's forward batch M={M} exceeds the N={N} training rows"
        )
    y = apply_label_noise(y, cfg.label_noise, dataset.num_classes, rng)

    buffer = loss_history(M)
    theta = model.get_params()
    model.set_params(theta)  # the model now reads theta, which sgd_update moves
    velocity = np.zeros_like(theta)

    records = []
    step = 0
    backprop_cum = 0
    cost_cum = 0.0

    for epoch in range(cfg.total_epochs):
        lr = lr_at(cfg, epoch)
        perm = rng.permutation(N)
        loss_sum = 0.0
        sel_sizes = []
        weight_max = 0.0
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for start in range(0, N, M):
                    batch = perm[start : start + M]
                    Xb, yb = X[batch], y[batch]
                    Mb = batch.shape[0]
                    tape = forward_tape(model, Xb, yb)
                    loss_sum += tape.losses.sum()

                    sel = select_subset(strategy, tape, subset_size(cfg.fraction, Mb), buffer, rng)
                    grad = weighted_backward(model, Xb, yb, sel, tape=tape)
                    if cfg.weight_decay:
                        grad = grad + cfg.weight_decay * theta
                    sgd_update(theta, velocity, grad, lr, cfg.momentum, cfg.nesterov)

                    step += 1
                    backprop_cum += sel.size
                    cost_cum += cost_units(Mb, sel.size)
                    sel_sizes.append(sel.size)
                    weight_max = max(weight_max, float(sel.weights.max()))

                test_accuracy = accuracy(model, dataset.X_test, dataset.y_test)
        except ValueError as exc:  # one of the non-finite checks above
            nan = float("nan")
            records.append(MetricsRecord(epoch, step, nan, nan, backprop_cum, cost_cum, nan, nan))
            raise TrainingDiverged(f"non-finite values at epoch {epoch}, step {step}: {exc}",
                                   records) from exc
        records.append(
            MetricsRecord(
                epoch=epoch,
                step=step,
                train_loss=loss_sum / N,
                test_accuracy=test_accuracy,
                backprop_points_cum=backprop_cum,
                cost_units_cum=cost_cum,
                selection_size_mean=float(np.mean(sel_sizes)),
                weight_max=weight_max,
            )
        )
    return records
