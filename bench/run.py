"""Workload benchmark for selective training.

Usage (from the repository root):

    python3 bench/run.py --workload large-gradmatch --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` beside this directory. Each workload
is a closed loop in this one process: the next training run (or experiment
call) starts when the previous one has finished. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced pass
over the same operations. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys

# BLAS threads are fixed before numpy loads: one thread keeps every timing
# independent of the other work on the machine and of nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LARGE_DATA = dict(kind="blobs", n=10000, classes=10, dim=64, separation=3.0)
LARGE_TRAIN = dict(base_batch=512, epochs=4, base_lr=0.003, label_noise=0.2)


@dataclass(frozen=True)
class Workload:
    name: str
    data: dict  # DatasetDescriptor fields; the seed comes from --seed
    hidden: tuple
    train: dict  # TrainConfig fields; fraction comes from the strategy
    strategy: dict  # StrategyConfig fields
    target: float  # test accuracy that time_to_target_s waits for
    floor: float  # lowest acceptable final test accuracy
    eval_batches: int  # minibatches per gradient_error_experiment call
    trainings_per_experiment: float  # untraced pass: training runs per experiment call
    traced: str  # the operation the workload is named for: "train" or "experiment"
    residual_every: int  # traced selections per matching-residual sample


WORKLOADS = {
    w.name: w
    for w in (
        Workload("large-sgd", LARGE_DATA, (512, 512), LARGE_TRAIN,
                 dict(kind="random", fraction=1.0), target=0.45, floor=0.5,
                 eval_batches=24, trainings_per_experiment=1, traced="train", residual_every=4),
        Workload("large-gradmatch", LARGE_DATA, (512, 512), LARGE_TRAIN,
                 dict(kind="grad_match", fraction=0.25), target=0.45, floor=0.5,
                 eval_batches=24, trainings_per_experiment=1, traced="train", residual_every=4),
        Workload("small-lossbuf",
                 dict(kind="two_moons", n=32000, noise=0.2), (32,),
                 dict(base_batch=128, epochs=4, base_lr=0.02),
                 dict(kind="loss_based", fraction=0.25, cdf_source="rolling_buffer"),
                 target=0.9, floor=0.95, eval_batches=256, trainings_per_experiment=4,
                 traced="train", residual_every=64),
        Workload("large-graderr", LARGE_DATA, (512, 512), LARGE_TRAIN,
                 dict(kind="random", fraction=1.0), target=0.45, floor=0.5,
                 eval_batches=24, trainings_per_experiment=0.2, traced="experiment",
                 residual_every=4),
    )
}
EVAL_FRACTION = 0.25  # m = M/4 in every gradient-error experiment

END_TO_END_UNITS = {
    "setup_s": "s", "epoch_s": "s", "time_to_target_s": "s", "test_acc": "ratio",
    "experiment_s": "s", "grad_err.random": "sq_norm", "grad_err.loss_based": "sq_norm",
    "grad_err.grad_match": "sq_norm", "peak_rss_mb": "MB",
}


def tiny(w):
    """A seconds-long version of a workload for the smoke test; it trains too
    little to reach any accuracy, so its floor is zero."""
    return replace(w, data={**w.data, "n": 800}, train={**w.train, "base_batch": 64,
                   "epochs": 2}, eval_batches=2, floor=0.0)


@dataclass
class TrainResult:
    wall: float
    epoch_times: list  # seconds since the start, one per epoch
    accuracies: list  # test accuracy, starting with the untrained model's
    records: list
    time_to_target: float | None = None


@dataclass
class Run:
    """One workload's data, model shape and the selbp entry points it calls."""

    w: Workload
    seed: int
    sel: object
    dataset: object = None
    sizes: list = field(default_factory=list)
    setup_times: list = field(default_factory=list)
    build_times: list = field(default_factory=list)

    def setup(self):
        """Synthesize the dataset from --seed and initialize the model; timed.

        Called once before the first operation and again after each one, so
        the set-up samples spread over the whole run.
        """
        sel = self.sel
        desc = sel.DatasetDescriptor(**self.w.data, seed=self.seed, split_seed=self.seed)
        t0 = time.perf_counter()
        ds = sel.build_dataset(desc)
        t1 = time.perf_counter()
        sizes = [ds.X_train.shape[1], *self.w.hidden, ds.num_classes]
        sel.Mlp.init(sizes, seed=0)
        t2 = time.perf_counter()
        self.build_times.append(t1 - t0)
        self.setup_times.append(t2 - t0)
        self.dataset, self.sizes = ds, sizes

    def train_config(self, op_seed, epochs=None):
        fields_ = dict(self.w.train, fraction=self.w.strategy["fraction"], seed=op_seed)
        if epochs is not None:
            fields_["epochs"] = epochs
        return self.sel.TrainConfig(**fields_)

    def model(self, op_seed):
        return self.sel.Mlp.init(self.sizes, seed=op_seed)

    def train(self, index, call=None, clock=None):
        """Train a fresh model once; training ``index`` uses ``index`` as its
        init and training seed, so only the data differs between --seeds."""
        sel, ds = self.sel, self.dataset
        model = self.model(index)
        acc0 = sel.model.accuracy(model, ds.X_test, ds.y_test)
        cfg = self.train_config(index)
        strategy = sel.StrategyConfig(**self.w.strategy)
        if clock is not None:
            clock.clear()
        t0 = time.perf_counter()
        if call is None:
            records = sel.run_training(cfg, strategy, ds, model)
        else:
            records = call(sel.run_training, cfg, strategy, ds, model)
        wall = time.perf_counter() - t0
        if clock is not None and len(clock) == len(records):
            times = [t - t0 for t in clock]
        else:  # the epoch clock did not fire once per epoch: assume even epochs
            times = [wall * (k + 1) / len(records) for k in range(len(records))]
        accs = [acc0] + [r.test_accuracy for r in records]
        res = TrainResult(wall, times, accs, records)
        res.time_to_target = crossing_time([0.0] + times, accs, self.w.target)
        return res

    def strategies(self):
        sc = self.sel.StrategyConfig
        cdf = self.w.strategy.get("cdf_source", "within_batch")
        return {
            "full": None,
            "random": sc(kind="random", fraction=EVAL_FRACTION),
            "loss_based": sc(kind="loss_based", fraction=EVAL_FRACTION, cdf_source=cdf),
            "grad_match": sc(kind="grad_match", fraction=EVAL_FRACTION),
        }

    def eval_sizes(self):
        M = self.w.train["base_batch"]
        return M, round(EVAL_FRACTION * M)

    def experiment(self, model, call=None):
        """One gradient_error_experiment call; (wall, mean squared error per strategy)."""
        ds = self.dataset
        M, m = self.eval_sizes()
        args = (model, ds.X_train, ds.y_train, self.strategies())
        kwargs = dict(num_batches=self.w.eval_batches, M=M, m=m, seed=self.seed)
        fn = self.sel.gradient_error_experiment
        t0 = time.perf_counter()
        samples = fn(*args, **kwargs) if call is None else call(fn, *args, **kwargs)
        wall = time.perf_counter() - t0
        errs = {}
        for s in samples:
            errs.setdefault(s.strategy, []).append(s.squared_error)
        return wall, {k: statistics.fmean(v) for k, v in errs.items()}


def crossing_time(times, accs, target):
    """Wall time at which test accuracy first reaches ``target``.

    Accuracy is read once per epoch; between two reads it is taken to move
    linearly, so the crossing is interpolated inside the epoch that made it.
    """
    for k in range(1, len(accs)):
        if accs[k] >= target > accs[k - 1]:
            share = (target - accs[k - 1]) / (accs[k] - accs[k - 1])
            return times[k - 1] + share * (times[k] - times[k - 1])
        if accs[k - 1] >= target:
            return times[k - 1]
    return None


class EpochClock(list):
    """One clock read per epoch, at the trainer's test-accuracy evaluation."""

    def __init__(self, trainer):
        super().__init__()
        self._trainer = trainer
        self._original = getattr(trainer, "accuracy", None)

    def __enter__(self):
        if self._original is not None:
            original = self._original

            def accuracy(*args, **kwargs):
                result = original(*args, **kwargs)
                self.append(time.perf_counter())
                return result

            self._trainer.accuracy = accuracy
        return self

    def __exit__(self, *exc):
        if self._original is not None:
            self._trainer.accuracy = self._original
        return False


def load_selbp():
    """The package from this checkout's ``src/``; never an installed copy."""
    if not (SRC / "selbp" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found at {SRC / 'selbp'}")
    sys.path.insert(0, str(SRC))
    import selbp
    import selbp.trainer

    if Path(selbp.__file__).resolve().parent != (SRC / "selbp").resolve():
        raise SystemExit(f"error: selbp imported from {selbp.__file__}, not {SRC}")
    return selbp


def environment(sel, seed):
    import numpy as np
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "selbp": sel.__version__,
        "data_seed": seed,
        "training_seeds": "0, 1, 2, ... (one per training run)",
    }


def git_sha():
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fits(seconds, started, walls):
    """Whether another operation of the mean duration so far still fits."""
    return time.perf_counter() - started + statistics.fmean(walls) <= seconds


def _next_op(w, n_train, n_exp):
    k = w.trainings_per_experiment
    return "experiment" if n_train >= k * (n_exp + 1) else "train"


def measure(run, seconds):
    """Untraced pass: end-to-end metrics plus the count of failed operations.

    Training runs and gradient-error experiments alternate in the workload's
    ratio until the time is up; each kind runs at least once. Every
    experiment uses the same fixed parameters (the initial model of training
    0), so its errors depend only on the seed.
    """
    w = run.w
    fixed = run.model(0)
    trainings, walls, errs = [], {"train": [], "experiment": []}, None
    started = time.perf_counter()
    with EpochClock(run.sel.trainer) as clock:
        while True:
            kind = _next_op(w, len(walls["train"]), len(walls["experiment"]))
            if walls[kind] and not _fits(seconds, started, walls[kind]):
                missing = [k for k, v in walls.items() if not v]
                if not missing:
                    break
                kind = missing[0]
            if kind == "train":
                trainings.append(run.train(len(trainings), clock=clock))
                walls[kind].append(trainings[-1].wall)
            else:
                wall, errs = run.experiment(fixed)
                walls[kind].append(wall)
            run.setup()

    epochs = [b - a for t in trainings for a, b in zip([0.0] + t.epoch_times, t.epoch_times)]
    metrics = {
        "setup_s": statistics.median(run.setup_times),
        "epoch_s": statistics.median(epochs),
        "time_to_target_s": statistics.median(
            t.wall if t.time_to_target is None else t.time_to_target for t in trainings),
        "test_acc": statistics.median(t.accuracies[-1] for t in trainings),
        "experiment_s": statistics.median(walls["experiment"]),
        "grad_err.random": errs["random"],
        "grad_err.loss_based": errs["loss_based"],
        "grad_err.grad_match": errs["grad_match"],
        "peak_rss_mb": peak_rss_mb(),
    }
    attempted = len(trainings) + len(walls["experiment"])
    failed = sum(t.time_to_target is None for t in trainings)
    return metrics, attempted, failed, errs["full"]


def _per_op(total, n):
    return total / n if n else 0.0


def trace(run, seconds):
    """Untraced then traced pass over the same operations; per-layer metrics."""
    from layers import LAYERS, Tracer

    w = run.w
    training = w.traced == "train"
    if training:
        def op(index, call=None):
            return run.train(index, call=call)
    else:
        fixed = run.model(0)

        def op(index, call=None):
            return run.experiment(fixed, call=call)

    walls = []
    started = time.perf_counter()
    while not walls or _fits(seconds / 2, started, walls):
        t0 = time.perf_counter()
        op(len(walls))
        walls.append(time.perf_counter() - t0)
        run.setup()
    n = len(walls)

    results = []
    with Tracer(residual_every=w.residual_every) as tr:
        t0 = time.perf_counter()
        for index in range(n):
            results.append(op(index, call=tr.root))
        traced_wall = time.perf_counter() - t0

    m = {}
    for layer in LAYERS:
        s = tr.stats[layer]
        m[f"{layer}.calls"] = _per_op(s.calls, n)
        m[f"{layer}.self_s"] = _per_op(s.self_time, n)
        m[f"{layer}.p50_ms"] = statistics.median(s.durations) * 1e3 if s.calls else 0.0
        m[f"{layer}.rows"] = _per_op(s.rows, n)

    fwd, bwd = tr.stats["model.forward_tape"], tr.stats["model.weighted_backward"]
    rows = sum(c.rows for c in tr.backward_calls)
    m["model.weighted_backward.useful_ratio"] = (
        sum(c.nnz for c in tr.backward_calls) / rows if rows else 0.0)
    fwd_row = fwd.self_time / fwd.rows if fwd.rows else 0.0
    bwd_row = bwd.self_time / bwd.rows if bwd.rows else 0.0
    m["model.bwd_fwd_ratio"] = bwd_row / fwd_row if fwd_row else 0.0
    m["gram.gram_implicit.gflop"] = _per_op(tr.gflop, n)

    omp = tr.stats["omp.omp_gram"]
    m["omp.atoms_mean"] = _per_op(tr.omp_atoms, omp.calls)
    m["omp.ms_per_atom"] = _per_op(omp.self_time * 1e3, tr.omp_atoms)
    m["omp.short_stops"] = _per_op(tr.omp_short, n)

    m.update(selection_metrics(tr, n))
    m["selection.fallbacks"] = _per_op(tr.fallbacks, n)

    cost = sum(r.records[-1].cost_units_cum for r in results) if training else 0.0
    m["trainer.loop_self_s"] = _per_op(tr.root_self, n) if training else 0.0
    m["trainer.cost_units"] = _per_op(cost, n)
    m["trainer.backprop_points"] = _per_op(
        sum(r.records[-1].backprop_points_cum for r in results), n) if training else 0.0
    modelled = cost * 3 * fwd_row
    m["trainer.measured_over_model"] = (
        (tr.root_wall - tr.stats["model.accuracy"].wall) / modelled if modelled else 0.0)
    m["evalgrad.loop_self_s"] = 0.0 if training else _per_op(tr.root_self, n)
    m["data.build_dataset.s"] = statistics.median(run.build_times)

    untraced = sum(walls)
    m["trace.overhead_s"] = (traced_wall - untraced) / n
    m["trace.overhead_share"] = (traced_wall - untraced) / untraced
    m["trace.uncovered_share"] = tr.root_self / tr.root_wall
    m["trace.absent_layers"] = float(len(tr.absent))
    m["trace.ops"] = float(n)
    for layer in tr.absent:
        print(f"absent layer: {layer} (none of {LAYERS[layer]} exists)", file=sys.stderr)
    for layer in sorted(tr.unreadable):
        print(f"layer {layer}: arguments not understood, only timed", file=sys.stderr)
    return m


def selection_metrics(tr, n):
    """Zero weights, useful share, effective sample size and matching residual
    of the selections the strategy dispatch returned."""
    import numpy as np

    sizes = sum(w.shape[0] for w in tr.selections)
    zero = sum(int(np.count_nonzero(w == 0)) for w in tr.selections)
    ess = [w.sum() ** 2 / (w @ w) / w.shape[0] for w in tr.selections if w @ w > 0]
    residuals = []
    for K, tape, idx, weights in tr.residual_samples:
        if K is None:
            PPt = tape.P @ tape.P.T
            K = (tape.H @ tape.H.T) * PPt + PPt
        t = K.mean(axis=1)
        t0 = t.mean()
        g = weights / idx.shape[0]
        resid = g @ K[np.ix_(idx, idx)] @ g - 2.0 * (g @ t[idx]) + t0
        residuals.append(resid / t0)
    return {
        "selection.zero_weight": _per_op(zero, n),
        "selection.useful_ratio": (sizes - zero) / sizes if sizes else 0.0,
        "selection.ess_mean": statistics.fmean(ess) if ess else 0.0,
        "selection.residual_rel": statistics.fmean(residuals) if residuals else 0.0,
    }


def run_checks(run, metrics=None, full_err=None):
    """Correctness checks outside the timed passes; (attempted, failures)."""
    import checks

    sel = run.sel
    if run.w.traced == "train":
        results = checks.check_training(
            sel.run_training, run.train_config(0, epochs=1),
            sel.StrategyConfig(**run.w.strategy), run.dataset, run.model(0))
    else:
        ds = run.dataset
        results = checks.check_experiment(
            sel.gradient_error_experiment, run.model(0), ds.X_train,
            ds.y_train, run.strategies(), *run.eval_sizes(), seed=run.seed)
    if metrics is not None:
        results += checks.check_metrics(metrics, run.w.floor, full_err)
    failures = [(name, detail) for name, ok, detail in results if not ok]
    for name, detail in failures:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    return len(results), len(failures)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink the workload to a few seconds (smoke test)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sel = load_selbp()
    w = WORKLOADS[args.workload]
    if args.tiny:
        w = tiny(w)
    run = Run(w, args.seed, sel)
    run.setup()

    if args.trace:
        metrics = trace(run, args.seconds)
        units = {k: unit_of(k) for k in metrics}
        attempted, failed = run_checks(run)
        correct = failed == 0
    else:
        metrics, ops, op_failed, full_err = measure(run, args.seconds)
        units = END_TO_END_UNITS
        if w.traced == "train":
            full_err = None  # the full-batch comparison is large-graderr's check
        attempted, failed = run_checks(run, metrics, full_err)
        correct = failed == 0
        attempted += ops
        failed += op_failed

    env = environment(sel, args.seed)
    print(json.dumps({"workload": args.workload, "env": env}))
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def unit_of(name):
    """Unit of a per-layer metric, read from its name."""
    last = name.rsplit(".", 1)[-1]
    if last in ("self_s", "s", "loop_self_s", "overhead_s"):
        return "s"
    if last in ("p50_ms", "ms_per_atom"):
        return "ms"
    if last == "gflop":
        return "GFLOP"
    if last in ("calls", "rows", "atoms_mean", "short_stops", "fallbacks", "zero_weight",
                "cost_units", "backprop_points", "absent_layers", "ops"):
        return "count"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
