"""Per-layer tracing from outside the package.

Each layer's public function is wrapped under the name its caller uses
(``selbp.trainer.weighted_backward``, ``selbp.selection.omp_gram``, ...), so
the package itself carries no instrumentation. A wrapper records one span per
call: wall time, self time (wall minus the wrapped calls made inside it) and
the rows it was handed. ``LAYERS`` is the one table of what gets wrapped; a
target that no longer exists is reported as absent instead of failing.
"""

import importlib
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

# Targets whose module is trainer or evalgrad are strategy dispatch calls;
# selbp.selection.select_random is only reached as grad_match's fallback.
LAYERS = {
    "model.forward_tape": ("selbp.trainer.forward_tape", "selbp.evalgrad.forward_tape"),
    "model.weighted_backward": (
        "selbp.trainer.weighted_backward",
        "selbp.evalgrad.weighted_backward",
    ),
    "model.accuracy": ("selbp.trainer.accuracy",),
    "model.params": ("selbp.model.Mlp.get_params", "selbp.model.Mlp.set_params"),
    "gram.gram_implicit": ("selbp.trainer.gram_implicit", "selbp.evalgrad.gram_implicit"),
    "omp.omp_gram": ("selbp.selection.omp_gram",),
    "selection.select_grad_match": (
        "selbp.trainer.select_grad_match",
        "selbp.evalgrad.select_grad_match",
    ),
    "selection.select_loss_based": (
        "selbp.trainer.select_loss_based",
        "selbp.evalgrad.select_loss_based",
    ),
    "selection.select_random": (
        "selbp.trainer.select_random",
        "selbp.evalgrad.select_random",
        "selbp.selection.select_random",
    ),
    "trainer.sgd_update": ("selbp.trainer.sgd_update",),
    "evalgrad.full_dataset_gradient": ("selbp.evalgrad.full_dataset_gradient",),
}
FALLBACK_TARGET = "selbp.selection.select_random"
DISPATCH_MODULES = ("selbp.trainer", "selbp.evalgrad")
RESIDUAL_CAP = 64  # matching-residual samples kept per trace
SELECT_LAYERS = (
    "selection.select_grad_match",
    "selection.select_loss_based",
    "selection.select_random",
)


BackwardCall = namedtuple("BackwardCall", "target rows size nnz wmin wsum")


def _rows(layer, args):
    """Rows (or parameters) a call was handed, read from its arguments."""
    first = args[0]
    if layer in ("model.forward_tape", "model.weighted_backward", "model.accuracy",
                 "evalgrad.full_dataset_gradient"):
        return args[1].shape[0]
    if layer == "model.params":
        return first.n_params
    if layer == "gram.gram_implicit":
        return first.M
    if layer in ("omp.omp_gram", "selection.select_grad_match"):
        return first.shape[0]
    if layer == "selection.select_loss_based":
        return len(first)
    if layer == "selection.select_random":
        return int(first)
    return int(np.size(first))  # trainer.sgd_update: parameters updated


def _resolve(target):
    """(owner object, attribute name) for a dotted target, or None if absent."""
    parts = target.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


@dataclass
class LayerStats:
    calls: int = 0
    wall: float = 0.0
    self_time: float = 0.0
    rows: int = 0
    durations: list = field(default_factory=list)


@dataclass
class StepSample:
    """What a correctness check needs to replay one weighted backward."""

    params: np.ndarray
    X: np.ndarray
    y: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    grad: np.ndarray


class Tracer:
    """Wraps the layer table while active and aggregates spans in memory.

    ``residual_every`` keeps every n-th strategy selection (with its batch's
    Gram inputs) for the matching-residual metric; ``capture_steps`` keeps the
    first and the latest weighted-backward call of each caller for replay.
    """

    def __init__(self, residual_every=0, capture_steps=False):
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self.absent = []
        self.unreadable = set()
        self.fallbacks = 0
        self.backward_calls = []
        self.selections = []  # weights of strategy dispatch results
        self.residual_samples = []  # (K or None, tape, indices, weights)
        self.omp_atoms = 0
        self.omp_short = 0
        self.gflop = 0.0
        self.root_wall = 0.0
        self.root_self = 0.0
        self.step_samples = {}
        self._residual_every = residual_every
        self._capture = capture_steps
        self._stack = []
        self._saved = []
        self._last_tape = None
        self._last_K = None

    def __enter__(self):
        for layer, targets in LAYERS.items():
            found = False
            for target in targets:
                where = _resolve(target)
                if where is None:
                    continue
                owner, name = where
                original = getattr(owner, name)
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, target, original))
                found = True
            if not found:
                self.absent.append(layer)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        return False

    def _wrap(self, layer, target, fn):
        stack = self._stack
        stats = self.stats[layer]

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                self_time = wall - stack.pop()
                if stack:
                    stack[-1] += wall
            stats.calls += 1
            stats.wall += wall
            stats.self_time += self_time
            stats.durations.append(wall)
            try:
                stats.rows += _rows(layer, args)
                self._observe(layer, target, args, result)
            except (AttributeError, IndexError, TypeError):
                # The function changed its arguments: time it, read nothing.
                self.unreadable.add(layer)
            return result

        return wrapper

    def _observe(self, layer, target, args, result):
        self.fallbacks += target == FALLBACK_TARGET
        if layer == "model.forward_tape":
            self._last_tape, self._last_K = result, None
        elif layer == "gram.gram_implicit":
            self._last_K = result
            M, D, C = result.shape[0], args[0].D, args[0].C
            self.gflop += (2.0 * M * M * (D + C) + 3.0 * M * M) / 1e9
        elif layer == "omp.omp_gram":
            self.omp_atoms += result.size
            self.omp_short += result.size < args[2].max_atoms
        elif layer == "model.weighted_backward":
            w = args[3].weights
            self.backward_calls.append(BackwardCall(
                target, args[1].shape[0], w.shape[0], int(np.count_nonzero(w)),
                float(w.min()), float(w.sum()),
            ))
            if self._capture:
                self._capture_step(target, args, result)
        if layer in SELECT_LAYERS and target.rsplit(".", 1)[0] in DISPATCH_MODULES:
            self.selections.append(result.weights)
            every = self._residual_every
            if (every and (len(self.selections) - 1) % every == 0
                    and len(self.residual_samples) < RESIDUAL_CAP):
                self.residual_samples.append(
                    (self._last_K, self._last_tape, result.indices, result.weights)
                )

    def _capture_step(self, target, args, grad):
        model, X, y, sel = args
        sample = StepSample(model.get_params().copy(), X, y, sel.indices,
                            sel.weights, grad)
        kept = self.step_samples.setdefault(target, [])
        if len(kept) < 2:
            kept.append(sample)
        else:
            kept[1] = sample

    def root(self, fn, *args, **kwargs):
        """Run one operation as the root span; returns its result."""
        t0 = time.perf_counter()
        self._stack.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            self.root_wall += wall
            self.root_self += wall - self._stack.pop()
