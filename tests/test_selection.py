import numpy as np
import pytest
from scipy import stats

from selbp.errors import BadFraction, EmptySelection
from selbp.gram import BatchTape, gram_implicit, mean_correlations
from selbp.model import Mlp, forward_tape, weighted_backward
from selbp.omp import OmpConfig, Selection, omp_gram
from selbp.selection import (
    LossBuffer,
    StrategyConfig,
    empirical_cdf,
    normalize_weights,
    select_grad_match,
    select_loss_based,
    select_random,
)


def inclusion_freq(draws, M):
    counts = np.zeros(M)
    for sel in draws:
        counts[sel.indices] += 1
    return counts / len(draws)


def gumbel_top_m_freq(p, m, n_draws, rng):
    """Independent weighted-sampling oracle: Gumbel keys log p + G, top m."""
    M = len(p)
    counts = np.zeros(M)
    for _ in range(n_draws):
        keys = np.log(p) + rng.gumbel(size=M)
        counts[np.argpartition(-keys, m - 1)[:m]] += 1
    return counts / n_draws


# ---------------------------------------------------------------- random


def test_random_full_batch():
    rng = np.random.default_rng(0)
    sel = select_random(4, 4, rng)
    np.testing.assert_array_equal(np.sort(sel.indices), np.arange(4))
    np.testing.assert_array_equal(sel.weights, np.ones(4))


def test_random_frequencies_binomial_bound():
    rng = np.random.default_rng(1)
    freq = inclusion_freq([select_random(2, 1, rng) for _ in range(10_000)], 2)
    assert 0.47 <= freq[0] <= 0.53


def test_random_deterministic_given_seed():
    a = select_random(10, 3, np.random.default_rng(7))
    b = select_random(10, 3, np.random.default_rng(7))
    np.testing.assert_array_equal(a.indices, b.indices)


def test_random_rejects_empty_subset():
    with pytest.raises(BadFraction):
        select_random(4, 0, np.random.default_rng(0))


# ---------------------------------------------------------------- CDF


def test_cdf_single_max_element():
    np.testing.assert_array_equal(empirical_cdf([5.0], [5.0]), [1.0])


def test_cdf_distinct_sorted():
    np.testing.assert_allclose(
        empirical_cdf([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), [1 / 3, 2 / 3, 1.0]
    )


def test_cdf_ties_share_rank():
    np.testing.assert_array_equal(empirical_cdf([2.0, 2.0], [2.0, 2.0]), [1.0, 1.0])


# ---------------------------------------------------------------- loss-based


def test_loss_based_full_subset_takes_everything():
    rng = np.random.default_rng(2)
    losses = rng.standard_normal(8) ** 2
    cfg = StrategyConfig(kind="loss_based")
    sel = select_loss_based(losses, 8, cfg, None, rng)
    np.testing.assert_array_equal(sel.indices, np.arange(8))


def test_loss_based_matches_independent_sampler():
    # One extreme loss among M=64, m=16: compare inclusion frequencies
    # against an independently coded Gumbel top-m sampler on the same keys.
    M, m, n = 64, 16, 10_000
    losses = np.zeros(M)
    losses[-1] = 10.0
    cfg = StrategyConfig(kind="loss_based")
    rng = np.random.default_rng(3)
    freq = inclusion_freq(
        [select_loss_based(losses, m, cfg, None, rng) for _ in range(n)], M
    )
    p = empirical_cdf(losses, losses) ** (M / m)
    oracle = gumbel_top_m_freq(p, m, n, np.random.default_rng(4))
    # 3-sigma Monte Carlo bound on the difference of two binomial proportions
    sigma = np.sqrt(2 * 0.3 * 0.7 / n)
    assert np.abs(freq - oracle).max() < 3 * sigma + 0.01
    assert freq[-1] > freq[:-1].mean()  # the max-loss point is favored


def test_loss_based_monotone_in_loss():
    M, m, n = 8, 2, 10_000
    losses = np.arange(1.0, 9.0)
    cfg = StrategyConfig(kind="loss_based")
    rng = np.random.default_rng(5)
    freq = inclusion_freq(
        [select_loss_based(losses, m, cfg, None, rng) for _ in range(n)], M
    )
    rho, _ = stats.spearmanr(losses, freq)
    assert rho > 0.95
    assert (np.diff(freq) >= -0.01).all()


def test_loss_based_uniform_under_equal_losses():
    M, m, n = 8, 2, 10_000
    losses = np.full(M, 3.0)
    cfg = StrategyConfig(kind="loss_based")
    rng = np.random.default_rng(6)
    counts = inclusion_freq(
        [select_loss_based(losses, m, cfg, None, rng) for _ in range(n)], M
    ) * n
    _, pvalue = stats.chisquare(counts, f_exp=np.full(M, n * m / M))
    assert pvalue > 0.001


def test_loss_based_rolling_buffer_fills_and_is_used():
    cfg = StrategyConfig(kind="loss_based", cdf_source="rolling_buffer")
    buffer = LossBuffer(16)
    rng = np.random.default_rng(7)
    first = np.array([1.0, 2.0, 3.0, 4.0])
    select_loss_based(first, 2, cfg, buffer, rng)
    np.testing.assert_array_equal(buffer.values(), first)
    # Second batch ranks against the buffered reference, not itself.
    second = np.array([0.5, 10.0, 0.1, 0.2])
    cdf_vs_buffer = empirical_cdf(second, first)
    assert cdf_vs_buffer[1] == 1.0 and cdf_vs_buffer[2] == 0.0
    select_loss_based(second, 2, cfg, buffer, rng)
    assert len(buffer) == 8


def test_loss_buffer_evicts_fifo():
    buf = LossBuffer(3)
    buf.extend([1.0, 2.0])
    buf.extend([3.0, 4.0])
    np.testing.assert_array_equal(buf.values(), [2.0, 3.0, 4.0])


def test_loss_based_deterministic_given_seed():
    losses = np.array([0.1, 5.0, 2.0, 0.4, 1.0])
    cfg = StrategyConfig(kind="loss_based")
    a = select_loss_based(losses, 2, cfg, None, np.random.default_rng(8))
    b = select_loss_based(losses, 2, cfg, None, np.random.default_rng(8))
    np.testing.assert_array_equal(a.indices, b.indices)


# ---------------------------------------------------------------- grad match


def identical_batch_gram(M=6):
    rng = np.random.default_rng(9)
    model = Mlp.init([2, 8, 3], seed=1)
    X = np.tile(rng.standard_normal((1, 2)), (M, 1))
    y = np.full(M, 1)
    return gram_implicit(forward_tape(model, X, y))


def test_grad_match_collapses_duplicates():
    K = identical_batch_gram()
    sel = select_grad_match(K, 3, StrategyConfig(kind="grad_match"), np.random.default_rng(0))
    np.testing.assert_array_equal(sel.indices, [0])
    np.testing.assert_array_equal(sel.weights, [1.0])


def test_normalize_weights_example():
    np.testing.assert_allclose(normalize_weights([0.2, 0.6], 2), [0.5, 1.5])


def test_normalize_weights_clips_then_normalizes():
    out = normalize_weights([-0.5, 1.0, 1.0], 3)
    np.testing.assert_allclose(out, [0.0, 1.5, 1.5])
    assert out.sum() == 3.0
    with pytest.raises(EmptySelection):
        normalize_weights([-1.0, -2.0], 2)


def test_grad_match_full_support_unit_weights():
    rng = np.random.default_rng(10)
    model = Mlp.init([3, 8, 3], seed=2)
    tape = forward_tape(model, rng.standard_normal((8, 3)), rng.integers(0, 3, 8))
    K = gram_implicit(tape)
    sel = select_grad_match(K, 8, StrategyConfig(kind="grad_match"), rng)
    assert sel.size == 8
    np.testing.assert_allclose(sel.weights, np.ones(8), atol=1e-8)


def test_grad_match_falls_back_to_random_on_zero_gram():
    K = np.zeros((6, 6))
    sel = select_grad_match(K, 2, StrategyConfig(kind="grad_match"), np.random.default_rng(11))
    assert sel.size == 2
    np.testing.assert_array_equal(sel.weights, np.ones(2))


def test_grad_match_pad_to_m():
    K = identical_batch_gram()
    cfg = StrategyConfig(kind="grad_match", pad_to_m=True)
    sel = select_grad_match(K, 3, cfg, np.random.default_rng(12))
    assert sel.size == 3
    assert len(np.unique(sel.indices)) == 3


def test_grad_match_drops_atoms_clipped_to_zero():
    # A batch whose OMP solution at m=8 holds one negative weight.
    rng = np.random.default_rng(30)
    model = Mlp.init([4, 8, 3], seed=30)
    X = rng.standard_normal((16, 4))
    y = rng.integers(0, 3, 16)
    K = gram_implicit(forward_tape(model, X, y))
    raw = omp_gram(K, mean_correlations(K), OmpConfig(max_atoms=8))
    assert (raw.weights < 0).sum() == 1

    sel = select_grad_match(K, 8, StrategyConfig(kind="grad_match"), rng)
    assert sel.size == 7
    assert (sel.weights > 0).all()
    assert abs(sel.weights.sum() - sel.size) < 1e-12
    kept = Selection(raw.indices, normalize_weights(raw.weights, raw.size))
    np.testing.assert_array_equal(sel.indices, raw.indices[raw.weights > 0])
    np.testing.assert_allclose(
        weighted_backward(model, X, y, sel),
        weighted_backward(model, X, y, kept),
        rtol=1e-12, atol=1e-15,
    )


def test_grad_match_contracts():
    rng = np.random.default_rng(13)
    for _ in range(10):
        M = int(rng.integers(4, 20))
        tape = BatchTape(
            H=rng.standard_normal((M, 5)),
            P=rng.standard_normal((M, 3)),
            losses=np.zeros(M),
        )
        K = gram_implicit(tape)
        m = int(rng.integers(1, M + 1))
        sel = select_grad_match(K, m, StrategyConfig(kind="grad_match"), rng)
        assert sel.size <= m
        assert len(np.unique(sel.indices)) == sel.size
        assert (sel.indices < M).all()
        assert (sel.weights >= 0).all()
        assert abs(sel.weights.sum() - sel.size) < 1e-12


def test_strategy_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(kind="magic")
    with pytest.raises(BadFraction):
        StrategyConfig(kind="random", fraction=0.0)
    with pytest.raises(ValueError):
        StrategyConfig(kind="loss_based", cdf_source="global")
