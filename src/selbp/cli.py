"""Command-line entry point.

Subcommands:

* ``train``      — run the (strategy x fraction x seed) grid, one metrics CSV
                   per run plus a summary CSV.
* ``grad-error`` — the gradient-estimate-quality experiment at each grid
                   fraction's training ``M`` and ``m``; one CSV row per sample.
* ``selftest``   — print the checks of ``selbp.oracles.selftest``, one
                   ``[ok]``/``[FAIL]`` line each; exit 1 on a failure.
* ``synth-data`` — materialize a synthetic dataset as CSV.

Each data command builds its dataset once, before any output, and writes its
resolved ``config.cfg`` beside its results. Consumers are scripts and plotting
tools; everything is emitted as tidy CSV.
"""

import argparse
import csv
import logging
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import astuple, replace
from functools import partial
from itertools import product

from . import evalgrad
from .config import dump_config, load_config
from .data import build_dataset
from .errors import ParseError, SelbpError, TrainingDiverged
from .model import OPENBLAS_THREAD_VARS, Mlp
from .trainer import METRICS_FIELDS, forward_batch, run_training, subset_size

logger = logging.getLogger(__name__)

SUMMARY_FIELDS = ["strategy", "fraction", "seed", "max_test_accuracy", "cost_units_total"]

BLAS_THREAD_VARS = (*OPENBLAS_THREAD_VARS, "MKL_NUM_THREADS")


def write_csv(path, fields, rows):
    """Every result CSV: a header row of ``fields``, then ``rows`` in that order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerows(rows)


def _build_model(spec, dataset, seed):
    sizes = [dataset.X_train.shape[1], *spec.hidden, dataset.num_classes]
    return Mlp.init(sizes, activation=spec.activation, seed=seed)


def _run_cell(spec, dataset, kind, fraction, seed):
    """One grid cell: train a fresh model, write its metrics CSV, return its
    ``SUMMARY_FIELDS`` row. A diverged cell writes the records it has, then raises.
    Top-level so it pickles into worker processes."""
    model = _build_model(spec, dataset, seed)
    cfg = spec.train_config(fraction, seed)
    strategy = spec.strategy_config(kind)
    path = os.path.join(spec.out_dir, f"{kind}_rho{fraction}_seed{seed}.csv")
    try:
        records = run_training(cfg, strategy, dataset, model)
    except TrainingDiverged as exc:
        write_csv(path, METRICS_FIELDS, map(astuple, exc.records))
        raise
    write_csv(path, METRICS_FIELDS, map(astuple, records))
    return [kind, fraction, seed, max(r.test_accuracy for r in records),
            records[-1].cost_units_cum]


@contextmanager
def _worker_pool(jobs):
    """``jobs`` worker processes, each with one BLAS thread and, started by
    ``multiprocessing``, no side thread, so they use ``jobs`` cores. Spawned, not
    forked, each starts a fresh numpy under the thread variables, set only while the pool lives."""
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def cmd_train(spec, dataset, jobs):
    cells = list(product(spec.strategy_kinds, spec.fractions, spec.seeds))
    run = partial(_run_cell, spec, dataset)
    failures = 0
    rows = []
    with _worker_pool(jobs) if jobs > 1 else nullcontext() as pool:
        # Each cell's result: a worker's future, or the cell run here when called.
        results = [pool.submit(run, *c).result if pool else partial(run, *c) for c in cells]
        for cell, result in zip(cells, results):
            try:
                rows.append(result())
            except Exception as exc:  # a failed cell must not lose the grid's summary
                failures += 1
                logger.error("cell %s failed: %s", cell, exc,
                             exc_info=not isinstance(exc, SelbpError))
    write_csv(os.path.join(spec.out_dir, "summary.csv"), SUMMARY_FIELDS, rows)
    return 0 if failures == 0 else 1


def cmd_grad_error(spec, dataset, start_output):
    seed = spec.seeds[0]
    model = _build_model(spec, dataset, seed)
    strategies = {kind: spec.strategy_config(kind) for kind in spec.strategy_kinds}
    rows = []
    for fraction in spec.fractions:  # at the M and m of the fraction's training cells
        M = forward_batch(spec.train_config(fraction, seed))
        samples = evalgrad.gradient_error_experiment(
            model, dataset.X_train, dataset.y_train, strategies,
            num_batches=spec.eval_num_batches, M=M, m=subset_size(fraction, M), seed=seed)
        rows += ([fraction, *astuple(s)] for s in samples)
    start_output()  # only now: the experiment refuses sizes the data cannot meet
    write_csv(os.path.join(spec.out_dir, "grad_errors.csv"),
              ["fraction", *evalgrad.GRAD_ERROR_FIELDS], rows)
    return 0


def cmd_selftest():
    from . import oracles  # loaded here alone: no run needs the references

    results = oracles.selftest()
    for name, passed, detail in results:
        print(f"[{'ok' if passed else 'FAIL'}] {name}: {detail}")
    return 0 if all(passed for _, passed, _ in results) else 1


def cmd_synth_data(spec, dataset):
    path = os.path.join(spec.out_dir, f"{spec.dataset.kind}.csv")
    header = [f"x{i}" for i in range(dataset.X_train.shape[1])] + ["label"]
    rows = ([repr(float(v)) for v in x] + [int(label)]
            for X, y in ((dataset.X_train, dataset.y_train),
                         (dataset.X_test, dataset.y_test))
            for x, label in zip(X, y))
    write_csv(path, header, rows)
    print(f"wrote {path}")
    return 0


def _prepare(args):
    """The spec with ``--out`` and ``--seed`` applied, its dataset, and the
    function that makes the output directory and writes ``config.cfg``; this
    writes nothing, so input refused here leaves no output."""
    spec = load_config(args.config)
    seed = getattr(args, "seed", None)
    try:  # the spec's own checks, as for the same value in the file
        spec = replace(spec, out_dir=spec.out_dir if args.out is None else args.out,
                       seeds=spec.seeds if seed is None else (seed,))
    except ValueError as exc:
        raise ParseError(f"bad command-line value: {exc}") from exc
    resolved = dump_config(spec)
    dataset = build_dataset(spec.dataset)

    def start_output():
        os.makedirs(spec.out_dir, exist_ok=True)
        with open(os.path.join(spec.out_dir, "config.cfg"), "w", encoding="utf-8") as fh:
            fh.write(resolved)
    return spec, dataset, start_output


def _jobs(value):
    jobs = int(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = argparse.ArgumentParser(prog="selbp")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("train", "grad-error", "synth-data"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--out", default=None, help="override the output directory")
        if name != "synth-data":  # the data's seed is dataset.seed
            p.add_argument("--seed", type=int, default=None, help="restrict the seed grid")
        if name == "train":
            p.add_argument("--jobs", type=_jobs, default=1, help="parallel grid cells")

    sub.add_parser("selftest")

    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            return cmd_selftest()
        spec, dataset, start_output = _prepare(args)
        if args.command == "grad-error":
            return cmd_grad_error(spec, dataset, start_output)
        start_output()
        if args.command == "train":
            return cmd_train(spec, dataset, args.jobs)
        return cmd_synth_data(spec, dataset)
    except (SelbpError, OSError) as exc:  # a cell's own OSError fails that cell alone
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
