"""Acceptance suite: twelve binding checks, one printed verdict line each.

Each test prints ``[pass]``/``[FAIL] criterion NN`` with a short detail, then
asserts. Run with ``pytest -rA tests/test_acceptance.py`` to see every line.
"""

import time
from collections import Counter

import numpy as np
from scipy import stats

from selbp.config import parse_config_text
from selbp.data import DatasetDescriptor, synth_blobs
from selbp.evalgrad import gradient_error_experiment
from selbp.model import BatchTape, Mlp, forward_tape, gram_implicit
from selbp.oracles import gradient_check, gram_identity, omp_oracle, proxy_identity
from selbp.selection import OmpConfig, omp_gram, select_grad_match, select_loss_based
from selbp.trainer import (StrategyConfig, TrainConfig, apply_label_noise, cost_units,
                           run_training)


def report(num, desc, ok, detail=""):
    status = "pass" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num:2d}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def test_criterion_01_gram_identity():
    start = time.perf_counter()
    ok, detail = gram_identity(np.random.default_rng(101), 100)
    elapsed = time.perf_counter() - start
    report(
        1,
        "implicit vs explicit Gram on 100 random tapes",
        ok and elapsed < 5.0,
        f"{detail}, {elapsed:.2f}s",
    )


def test_criterion_02_end_to_end_proxy_identity():
    start = time.perf_counter()
    ok, detail = proxy_identity(np.random.default_rng(102), 1)
    elapsed = time.perf_counter() - start
    report(
        2,
        "real last-layer gradients and their Gram match the implicit proxy",
        ok and elapsed < 5.0,
        f"{detail}, {elapsed:.2f}s",
    )


def test_criterion_03_omp_oracle_equivalence():
    start = time.perf_counter()
    ok, detail = omp_oracle(np.random.default_rng(103), 200)
    elapsed = time.perf_counter() - start
    report(
        3,
        "Gram-OMP equals dense oracle with non-increasing objective",
        ok and elapsed < 10.0,
        f"{detail}, {elapsed:.2f}s",
    )


def test_criterion_04_full_support_and_duplicate_collapse():
    rng = np.random.default_rng(104)
    model = Mlp.init([3, 8, 3], seed=2)
    tape = forward_tape(model, rng.standard_normal((8, 3)), rng.integers(0, 3, 8))
    sel = select_grad_match(gram_implicit(tape), 8, rng)
    full_ok = sel.size == 8 and np.abs(sel.weights - 1.0).max() <= 1e-8

    X = np.tile(rng.standard_normal((1, 3)), (6, 1))
    y = np.full(6, 1)
    dup = select_grad_match(gram_implicit(forward_tape(model, X, y)), 3, rng)
    dup_ok = dup.indices.tolist() == [0] and dup.weights.tolist() == [1.0]
    report(
        4,
        "m=M recovers unit weights; duplicate batch collapses to one atom",
        full_ok and dup_ok,
        f"max |w-1| {np.abs(sel.weights - 1.0).max():.2e}; collapse {dup.indices.tolist()}",
    )


def test_criterion_05_gradient_correctness():
    ok, detail = gradient_check(Mlp.init([2, 16, 3], seed=5), np.random.default_rng(105), 10)
    report(5, "finite-difference and per-example-mean gradient checks", ok, detail)


def test_criterion_06_loss_based_statistics():
    rng = np.random.default_rng(106)
    M, m, n = 8, 2, 10_000

    losses = np.arange(1.0, 9.0)
    counts = np.zeros(M)
    for _ in range(n):
        counts[select_loss_based(losses, m, None, rng).indices] += 1
    rho, _ = stats.spearmanr(losses, counts)

    equal = np.full(M, 3.0)
    eq_counts = np.zeros(M)
    for _ in range(n):
        eq_counts[select_loss_based(equal, m, None, rng).indices] += 1
    _, pvalue = stats.chisquare(eq_counts, f_exp=np.full(M, n * m / M))

    sel = select_loss_based(losses, M, None, rng)
    select_all = np.array_equal(np.sort(sel.indices), np.arange(M))
    report(
        6,
        "loss-based inclusion monotone, uniform under ties, m=M selects all",
        rho > 0.95 and pvalue > 0.001 and select_all,
        f"spearman {rho:.3f}, chi2 p {pvalue:.3f}, select-all {select_all}",
    )


def test_criterion_07_cost_model():
    formula_ok = all(
        abs(cost_units(M, m) - (M / 3 + m)) < 1e-12
        for M, m in ((128, 64), (30, 20), (7, 7), (1, 1))
    )
    break_even = cost_units(96, 64) == 96.0
    headline = abs(cost_units(128, 64) - (128 / 3 + 64)) <= 1e-9
    report(
        7,
        "cost units M/3 + m with break-even at m = 2M/3",
        formula_ok and break_even and headline,
        f"cost(128,64) = {cost_units(128, 64):.6f}",
    )


def test_criterion_08_gradient_error_replication():
    start = time.perf_counter()
    desc = DatasetDescriptor(
        kind="blobs", n=2048, classes=3, dim=2, separation=4.0, split=0.999
    )
    strategies = {
        "random": StrategyConfig(kind="random"),
        "loss_based": StrategyConfig(kind="loss_based"),
        "grad_match": StrategyConfig(kind="grad_match"),
    }
    gm_wins = lb_above = 0
    details = []
    for seed in (0, 1, 2):
        ds = synth_blobs(desc)
        model = Mlp.init([2, 32, 3], seed=100 + seed, activation="tanh")
        samples = gradient_error_experiment(
            model, ds.X_train, ds.y_train, strategies,
            num_batches=200, M=128, m=32, seed=seed,
        )
        med = {}
        for s in samples:
            med.setdefault(s.strategy, []).append(s.squared_error)
        med = {k: float(np.median(v)) for k, v in med.items()}
        gm_wins += med["grad_match"] < med["random"]
        lb_above += med["loss_based"] > med["random"]
        details.append(
            f"seed {seed}: gm/r {med['grad_match'] / med['random']:.2f}, "
            f"lb/r {med['loss_based'] / med['random']:.2f}"
        )
    elapsed = time.perf_counter() - start
    report(
        8,
        "median error: grad_match < random (3/3), loss_based > random (>=2/3)",
        gm_wins == 3 and lb_above >= 2 and elapsed < 120.0,
        "; ".join(details) + f"; {elapsed:.1f}s",
    )


def test_criterion_09_training_protocol(plain_sgd_reference):
    start = time.perf_counter()
    desc = DatasetDescriptor(
        kind="blobs", n=3000, classes=3, dim=2, separation=4.0, split=0.8, seed=7
    )
    ds = synth_blobs(desc)

    cfg1 = TrainConfig(base_batch=128, fraction=1.0, epochs=3, base_lr=0.1,
                       schedule="constant", seed=0)
    m1 = Mlp.init([2, 32, 3], seed=0)
    run_training(cfg1, StrategyConfig(kind="random", fraction=1.0), ds, m1)
    m2 = Mlp.init([2, 32, 3], seed=0)
    ref = plain_sgd_reference(cfg1, ds, m2)
    bitwise = np.array_equal(m1.get_params(), ref)

    cells = Counter()  # (strategy, fraction) -> seeds run
    worst = 1.0
    for kind in ("random", "loss_based", "grad_match"):
        for frac in (0.1, 0.5):
            for seed in (0, 1, 2):
                cfg = TrainConfig(base_batch=128, fraction=frac, epochs=20,
                                  base_lr=0.1, schedule="constant", seed=seed)
                model = Mlp.init([2, 32, 3], seed=seed)
                records = run_training(
                    cfg, StrategyConfig(kind=kind, fraction=frac), ds, model
                )
                best = max(r.test_accuracy for r in records)
                worst = min(worst, best)
                cells[kind, frac] += 1
    shape_ok = len(cells) == 6 and set(cells.values()) == {3}
    elapsed = time.perf_counter() - start
    report(
        9,
        "rho=1 bit-identical to plain SGD; all 18 runs reach accuracy >= 0.95",
        bitwise and worst >= 0.95 and shape_ok and elapsed < 300.0,
        f"bitwise {bitwise}, worst max acc {worst:.3f}, "
        f"{len(cells)} (strategy, fraction) cells, {elapsed:.1f}s",
    )


def test_criterion_10_label_noise_path():
    N, C, frac = 1000, 5, 0.1
    y = np.arange(N) % C
    noisy = apply_label_noise(y, frac, C, np.random.default_rng(42))
    again = apply_label_noise(y, frac, C, np.random.default_rng(42))
    reproducible = np.array_equal(noisy, again)

    # Oracle: replay the RNG stream to recover exactly which indices were
    # redrawn (a redraw may coincide with the original label).
    rng = np.random.default_rng(42)
    idx = rng.choice(N, size=int(frac * N), replace=False)
    redrawn = rng.integers(0, C, size=idx.size)
    expected = y.copy()
    expected[idx] = redrawn
    exact = np.array_equal(noisy, expected) and idx.size == 100
    untouched_elsewhere = np.array_equal(np.delete(noisy, idx), np.delete(y, idx))

    # End to end: training with label noise never mutates the test labels.
    desc = DatasetDescriptor(kind="blobs", n=500, classes=3, dim=2, separation=4.0)
    ds = synth_blobs(desc)
    y_test_before = ds.y_test.copy()
    cfg = TrainConfig(base_batch=64, fraction=0.5, epochs=2, base_lr=0.05,
                      schedule="constant", label_noise=0.1, seed=3)
    model = Mlp.init([2, 8, 3], seed=3)
    run_training(cfg, StrategyConfig(kind="loss_based", fraction=0.5), ds, model)
    test_untouched = np.array_equal(ds.y_test, y_test_before)
    report(
        10,
        "exactly floor(0.1 N) indices redrawn, test set untouched, reproducible",
        exact and untouched_elsewhere and test_untouched and reproducible,
        f"redrawn {idx.size}/100, changed {(noisy != y).sum()}",
    )


def test_criterion_11_presets():
    base = "dataset.kind = blobs\nstrategy.kinds = random\npreset = "
    expectations = {
        "cifar_style": dict(
            momentum=0.9, nesterov=True,
            weight_decay=5e-4, epochs=200, base_lr=0.1, schedule="step",
            milestones=(60, 120, 160), decay_factor=0.2, base_batch=128,
        ),
        "svhn_style": dict(
            momentum=0.9, nesterov=True,
            weight_decay=5e-4, epochs=80, base_lr=0.01, schedule="cosine",
            milestones=(), decay_factor=0.2, base_batch=128,
        ),
        "imagenet32_style": dict(
            momentum=0.9, nesterov=False,
            weight_decay=5e-4, epochs=40, base_lr=0.01, schedule="step",
            milestones=(10, 20, 30), decay_factor=0.2, base_batch=128,
        ),
    }
    mismatches = []
    for name, fields in expectations.items():
        spec = parse_config_text(base + name + "\n")
        for attr, want in fields.items():
            got = getattr(spec.train, attr)
            if got != want:
                mismatches.append(f"{name}.{attr}: {got!r} != {want!r}")
    report(
        11,
        "presets emit the exact hyperparameter tuples, field by field",
        not mismatches,
        "; ".join(mismatches) or "27 fields verified",
    )


def test_criterion_12_selection_overhead():
    rng = np.random.default_rng(112)
    M, m, D, C = 512, 128, 128, 10
    tape = BatchTape(
        H=rng.standard_normal((M, D)),
        P=rng.standard_normal((M, C)),
        losses=np.abs(rng.standard_normal(M)),
    )
    best = np.inf
    for _ in range(5):
        start = time.perf_counter()
        K = gram_implicit(tape)
        omp_gram(K, K.mean(axis=1), OmpConfig(max_atoms=m))
        best = min(best, time.perf_counter() - start)
    report(
        12,
        "gram_implicit + omp_gram at M=512, m=128 completes in < 50 ms",
        best < 0.050,
        f"best of 5: {1e3 * best:.1f} ms",
    )
