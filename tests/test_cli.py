import csv
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import selbp.cli
import selbp.oracles
from selbp.cli import BLAS_THREAD_VARS, main
from selbp.config import load_config, parse_config_text

SMALL_GRID = """
dataset.kind = blobs
dataset.n = 200
dataset.separation = 4.0
strategy.kinds = random, loss_based
train.epochs = 2
train.base_batch = 32
train.base_lr = 0.05
train.schedule = constant
grid.fractions = 0.5, 1.0
grid.seeds = 0, 1
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_summary_csv(path):
    """The rows of a ``summary.csv``, with its numbers parsed."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["fraction"] = float(row["fraction"])
        row["seed"] = int(row["seed"])
        row["max_test_accuracy"] = float(row["max_test_accuracy"])
        row["cost_units_total"] = float(row["cost_units_total"])
    return rows


def test_train_grid_cardinality(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_GRID)
    out = tmp_path / "runs"
    rc = main(["train", "--config", cfg, "--out", str(out)])
    assert rc == 0
    csvs = sorted(p for p in os.listdir(out) if p.endswith(".csv") and p != "summary.csv")
    assert len(csvs) == 2 * 2 * 2  # strategies x fractions x seeds
    assert "random_rho0.5_seed0.csv" in csvs
    rows = read_summary_csv(out / "summary.csv")
    assert len(rows) == 8
    assert {(r["strategy"], r["fraction"], r["seed"]) for r in rows} == {
        (k, f, s)
        for k in ("random", "loss_based")
        for f in (0.5, 1.0)
        for s in (0, 1)
    }


def test_summary_matches_metrics_files(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_GRID)
    out = tmp_path / "runs"
    main(["train", "--config", cfg, "--out", str(out)])
    for row in read_summary_csv(out / "summary.csv"):
        name = f"{row['strategy']}_rho{row['fraction']}_seed{row['seed']}.csv"
        with open(out / name, newline="") as fh:
            recs = list(csv.DictReader(fh))
        assert row["max_test_accuracy"] == max(float(r["test_accuracy"]) for r in recs)
        assert row["cost_units_total"] == float(recs[-1]["cost_units_cum"])


def test_seed_flag_restricts_grid(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_GRID)
    out = tmp_path / "runs"
    main(["train", "--config", cfg, "--out", str(out), "--seed", "3"])
    rows = read_summary_csv(out / "summary.csv")
    assert len(rows) == 4 and all(r["seed"] == 3 for r in rows)


def test_parallel_jobs_match_serial(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_GRID)
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    main(["train", "--config", cfg, "--out", str(out1)])
    main(["train", "--config", cfg, "--out", str(out2), "--jobs", "2"])
    r1 = sorted(map(tuple, (r.items() for r in read_summary_csv(out1 / "summary.csv"))))
    r2 = sorted(map(tuple, (r.items() for r in read_summary_csv(out2 / "summary.csv"))))
    assert r1 == r2


def test_a_jobs_worker_runs_no_side_thread(tmp_path, side):
    # At M = 256 the 512-wide layers' matmuls would use a side thread, and a
    # worker's one BLAS thread would leave it a CPU; this process runs one.
    text = SMALL_GRID.replace("train.base_batch = 32", "train.base_batch = 256")
    spec = load_config(write_cfg(tmp_path, text + "model.hidden = 512, 512\n"))
    spec.out_dir = str(tmp_path)
    dataset = selbp.cli.build_dataset(spec.dataset)
    with selbp.cli._worker_pool(1) as pool:
        row = pool.submit(selbp.cli._run_cell, spec, dataset, "random", 1.0, 0).result()
        assert pool.submit(threading.active_count).result() == 1
    assert row == selbp.cli._run_cell(spec, dataset, "random", 1.0, 0)
    assert side.calls > 0


def test_train_writes_its_resolved_config(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_GRID)
    out = tmp_path / "runs"
    main(["train", "--config", cfg, "--out", str(out), "--seed", "3"])
    spec = load_config(cfg)
    spec.out_dir, spec.seeds = str(out), (3,)
    assert parse_config_text((out / "config.cfg").read_text()) == spec


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_train_builds_the_dataset_once(tmp_path, monkeypatch, jobs):
    calls = []
    real = selbp.cli.build_dataset
    monkeypatch.setattr(selbp.cli, "build_dataset", lambda desc: calls.append(desc) or real(desc))
    cfg = write_cfg(tmp_path, SMALL_GRID)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs"), "--jobs", jobs]) == 0
    assert calls == [load_config(cfg).dataset]


BAD_DATASETS = {
    "missing": None,
    "non-numeric": b"x0,x1,label\n1.0,2.0,0\n1.5,x,1\n",
    "non-utf8": b"x0,x1,label\n1.0,2.0,0\n\xff,1.0,1\n",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", sorted(BAD_DATASETS))
def test_a_bad_dataset_is_one_error_line_and_no_output(tmp_path, capsys, case, jobs):
    data = tmp_path / "data.csv"
    if BAD_DATASETS[case] is not None:
        data.write_bytes(BAD_DATASETS[case])
    cfg = write_cfg(tmp_path, SMALL_GRID.replace("kind = blobs", f"kind = csv\ndataset.path = {data}"))
    out = tmp_path / "runs"
    assert main(["train", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert str(data) in err[0]  # the CSV's path, not the line of the --config file
    assert not out.exists()


def test_train_refuses_an_out_dir_its_config_cannot_name(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_GRID)
    out = tmp_path / "runs #1"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    assert "out.dir" in capsys.readouterr().err
    assert not out.exists()


def _blas_probe():
    """A worker's BLAS thread variables and, on Linux, its thread count after a
    product large enough for OpenBLAS to use its pool."""
    np.ones((256, 256)) @ np.ones((256, 256))
    threads = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None
    return [os.environ.get(var) for var in BLAS_THREAD_VARS], threads


@pytest.mark.parametrize("command", ["train", "grad-error"])
def test_a_negative_seed_flag_fails_before_any_output(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, SMALL_GRID)
    out = tmp_path / "runs"
    assert main([command, "--config", cfg, "--out", str(out), "--seed", "-1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "seeds" in err[0]
    assert not out.exists()


def test_jobs_workers_run_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    with selbp.cli._worker_pool(2) as pool:
        values, threads = pool.submit(_blas_probe).result()
    assert values == ["1"] * len(BLAS_THREAD_VARS)
    assert threads == (1 if sys.platform == "linux" else None)
    # The caller's environment is as it was.
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4" and "OMP_NUM_THREADS" not in os.environ


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_fails_at_parse(tmp_path, jobs):
    cfg = write_cfg(tmp_path, SMALL_GRID)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", cfg, "--out", str(tmp_path / "runs"), "--jobs", jobs])
    assert exc.value.code == 2
    assert not (tmp_path / "runs").exists()


def test_synth_data_has_no_seed_flag(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_GRID)
    with pytest.raises(SystemExit) as exc:
        main(["synth-data", "--config", cfg, "--seed", "3"])
    assert exc.value.code == 2


def test_grad_error_command(tmp_path):
    text = SMALL_GRID + "eval.num_batches = 5\neval.batch = 32\neval.subset = 8\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "ge"
    rc = main(["grad-error", "--config", cfg, "--out", str(out)])
    assert rc == 0
    with open(out / "grad_errors.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 5
    assert all(float(r["squared_error"]) >= 0 for r in rows)
    spec = replace(load_config(cfg), out_dir=str(out))
    assert parse_config_text((out / "config.cfg").read_text()) == spec


def test_grad_error_with_a_batch_beyond_the_data_leaves_no_output(tmp_path, capsys):
    # 200 rows at split 0.8 leave 160 for training, fewer than eval.batch.
    text = SMALL_GRID + "eval.num_batches = 5\neval.batch = 192\neval.subset = 8\n"
    out = tmp_path / "ge"
    assert main(["grad-error", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 1
    (err,) = capsys.readouterr().err.splitlines()
    assert err == "error: forward batch M=192 exceeds the N=160 rows"
    assert not out.exists()


def test_synth_data_command(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_GRID)
    out = tmp_path / "data"
    rc = main(["synth-data", "--config", cfg, "--out", str(out)])
    assert rc == 0
    with open(out / "blobs.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "x1", "label"]
    assert len(rows) == 201
    spec = replace(load_config(cfg), out_dir=str(out))
    assert parse_config_text((out / "config.cfg").read_text()) == spec


def test_selftest_command(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("[ok]") == 4 and "[FAIL]" not in out


def test_selftest_reports_a_wrong_gram(monkeypatch, capsys):
    right = selbp.oracles.gram_implicit
    monkeypatch.setattr(selbp.oracles, "gram_implicit", lambda tape: 1.001 * right(tape))
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    # Both checks that read gram_implicit catch it; the other two still pass.
    assert "[FAIL] gram implicit vs explicit" in out
    assert "[FAIL] last-layer proxy identity" in out and out.count("[ok]") == 2


def test_config_error_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "dataset.kind = blobs\n")  # missing strategy.kinds
    assert main(["train", "--config", cfg]) == 1
    assert "strategy.kinds" in capsys.readouterr().err


def test_a_missing_config_file_is_one_error_line(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "missing.cfg")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "missing.cfg" in err[0]


def test_deterministic_across_invocations(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_GRID)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["train", "--config", cfg, "--out", str(out1)])
    main(["train", "--config", cfg, "--out", str(out2)])
    f = "loss_based_rho0.5_seed1.csv"
    assert (out1 / f).read_text() == (out2 / f).read_text()


def test_diverged_cells_keep_their_metrics(tmp_path):
    # The first update overflows the parameters, so every cell diverges at step 2.
    cfg = write_cfg(tmp_path, SMALL_GRID.replace("base_lr = 0.05", "base_lr = 1e200"))
    out = tmp_path / "runs"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    for kind in ("random", "loss_based"):
        for fraction in (0.5, 1.0):
            for seed in (0, 1):
                with open(out / f"{kind}_rho{fraction}_seed{seed}.csv", newline="") as fh:
                    recs = list(csv.DictReader(fh))
                assert recs and np.isnan(float(recs[-1]["train_loss"]))
    assert read_summary_csv(out / "summary.csv") == []


def test_a_crashed_cell_does_not_lose_the_summary(tmp_path, monkeypatch, caplog):
    real = selbp.cli.run_training

    def crash_one_cell(cfg, strategy, dataset, model):
        if (strategy.kind, cfg.fraction, cfg.seed) == ("loss_based", 0.5, 1):
            raise RuntimeError("worker bug")
        return real(cfg, strategy, dataset, model)

    monkeypatch.setattr(selbp.cli, "run_training", crash_one_cell)
    cfg = write_cfg(tmp_path, SMALL_GRID)
    out = tmp_path / "runs"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    assert "cell ('loss_based', 0.5, 1) failed: worker bug" in caplog.text
    rows = read_summary_csv(out / "summary.csv")
    assert len(rows) == 7
    assert ("loss_based", 0.5, 1) not in {(r["strategy"], r["fraction"], r["seed"]) for r in rows}
    assert not (out / "loss_based_rho0.5_seed1.csv").exists()
