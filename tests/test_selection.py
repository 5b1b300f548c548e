from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import selbp.selection
from selbp.errors import DimensionMismatch
from selbp.model import BatchTape, Mlp, forward_tape, gram_implicit, weighted_backward
from selbp.selection import (
    OmpConfig,
    Selection,
    empirical_cdf,
    omp_gram,
    select_grad_match,
    select_loss_based,
    select_random,
)
from selbp.trainer import StrategyConfig, loss_history, select_subset

ROLLING = StrategyConfig(kind="loss_based", cdf_source="rolling_buffer")


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


def loss_tape(losses):
    """A hand-built tape carrying only what loss_based reads, the losses."""
    M = len(losses)
    return BatchTape(H=np.zeros((M, 1)), P=np.zeros((M, 1)), losses=losses)


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
    with pytest.raises(DimensionMismatch):
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
    sel = select_loss_based(losses, 8, None, rng)
    np.testing.assert_array_equal(sel.indices, np.arange(8))


def test_loss_based_matches_independent_sampler():
    # One extreme loss among M=64, m=16: compare inclusion frequencies
    # against an independently coded Gumbel top-m sampler on the same keys.
    M, m, n = 64, 16, 10_000
    losses = np.zeros(M)
    losses[-1] = 10.0
    rng = np.random.default_rng(3)
    freq = inclusion_freq(
        [select_loss_based(losses, m, None, rng) for _ in range(n)], M
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
    rng = np.random.default_rng(5)
    freq = inclusion_freq(
        [select_loss_based(losses, m, None, rng) for _ in range(n)], M
    )
    rho, _ = stats.spearmanr(losses, freq)
    assert rho > 0.95
    assert (np.diff(freq) >= -0.01).all()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    levels=st.lists(st.integers(0, 5), min_size=1, max_size=40),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_loss_based_inclusion_monotone_in_loss_property(levels, data, seed):
    # Same draws, higher loss: a selected row's key can only fall and every
    # other row's can only rise, so the row stays selected. Small integer
    # levels make ties common.
    losses = np.array(levels, dtype=np.float64)
    M = losses.shape[0]
    m = data.draw(st.integers(1, M), label="m")
    before = select_loss_based(losses, m, None, np.random.default_rng(seed))
    row = data.draw(st.sampled_from(before.indices.tolist()), label="row")
    raised = losses.copy()
    raised[row] += data.draw(st.floats(1e-6, 10.0), label="raise")
    after = select_loss_based(raised, m, None, np.random.default_rng(seed))
    assert row in after.indices


def test_loss_based_uniform_under_equal_losses():
    M, m, n = 8, 2, 10_000
    losses = np.full(M, 3.0)
    rng = np.random.default_rng(6)
    counts = inclusion_freq(
        [select_loss_based(losses, m, None, rng) for _ in range(n)], M
    ) * n
    _, pvalue = stats.chisquare(counts, f_exp=np.full(M, n * m / M))
    assert pvalue > 0.001


def test_loss_based_rolling_buffer_fills_and_is_used():
    history = deque(maxlen=16)
    rng = np.random.default_rng(7)
    first = np.array([1.0, 2.0, 3.0, 4.0])
    select_subset(ROLLING, loss_tape(first), 2, history, rng)
    np.testing.assert_array_equal(np.array(history), first)
    # Second batch ranks against the buffered reference, not itself.
    second = np.array([0.5, 10.0, 0.1, 0.2])
    cdf_vs_buffer = empirical_cdf(second, first)
    assert cdf_vs_buffer[1] == 1.0 and cdf_vs_buffer[2] == 0.0
    sel = select_subset(ROLLING, loss_tape(second), 2, history, np.random.default_rng(8))
    against = select_loss_based(second, 2, first, np.random.default_rng(8))
    np.testing.assert_array_equal(sel.indices, against.indices)
    assert len(history) == 8


def test_loss_buffer_evicts_fifo():
    history = deque(maxlen=3)
    rng = np.random.default_rng(10)
    select_subset(ROLLING, loss_tape([1.0, 2.0]), 1, history, rng)
    select_subset(ROLLING, loss_tape([3.0, 4.0]), 1, history, rng)
    np.testing.assert_array_equal(np.array(history), [2.0, 3.0, 4.0])


def test_loss_based_batch_below_the_buffer_ranks_within_itself():
    # Every loss lies below the whole buffer, so none has a positive keep
    # probability against it: the batch is ranked within itself instead.
    history = deque([5.0, 6.0, 7.0, 8.0], maxlen=32)
    losses = np.array([1.0, 2.0, 3.0, 4.0])
    sel = select_subset(ROLLING, loss_tape(losses), 1, history, np.random.default_rng(11))
    within = select_loss_based(losses, 1, None, np.random.default_rng(11))
    assert sel.size == 1
    np.testing.assert_array_equal(sel.indices, within.indices)
    np.testing.assert_array_equal(np.array(history), [5.0, 6.0, 7.0, 8.0, *losses])


def test_loss_based_only_reads_its_reference():
    # The same reference as a deque, a list and an array ranks alike, and
    # select_loss_based leaves the deque and the losses as they were. An
    # empty reference of any kind ranks the batch within itself, as None does.
    losses = np.linspace(0.1, 1.6, 16)
    reference = deque([0.5, 0.9, 1.2], maxlen=8)
    picks = [select_loss_based(losses, 4, ref, np.random.default_rng(14)).indices
             for ref in (reference, list(reference), np.array(reference))]
    for indices in picks[1:]:
        np.testing.assert_array_equal(indices, picks[0])
    assert list(reference) == [0.5, 0.9, 1.2]
    np.testing.assert_array_equal(losses, np.linspace(0.1, 1.6, 16))
    within = select_loss_based(losses, 4, None, np.random.default_rng(15)).indices
    for empty in (deque(), [], np.array([])):
        sel = select_loss_based(losses, 4, empty, np.random.default_rng(15))
        np.testing.assert_array_equal(sel.indices, within)


def test_loss_based_fills_zero_probability_rows_by_their_draws():
    # Only rows 3 and 11 have a positive keep probability against the reference;
    # the other two of m = 4 are the zero-probability rows with the smallest
    # Exp(1) draws, so they are uniform at random and not numpy's partition order.
    losses = np.linspace(0.1, 1.6, 16)
    losses[[3, 11]] = [6.0, 7.0]
    sel = select_loss_based(losses, 4, [5.0, 8.0], np.random.default_rng(13))
    draws = np.random.default_rng(13).exponential(size=16)
    zero = np.setdiff1d(np.arange(16), [3, 11])
    fill = zero[np.argsort(draws[zero])[:2]]
    np.testing.assert_array_equal(sel.indices, np.sort([3, 11, *fill]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    history=st.lists(st.floats(-1e6, 1e6), max_size=40),
    batch=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
    below=st.booleans(),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_loss_based_rolling_buffer_property(history, batch, below, data, seed):
    losses = np.array(batch)
    if below and history:  # shift the batch wholly below the buffer
        losses += min(history) - losses.max() - 1.0
    M = losses.shape[0]
    m = data.draw(st.integers(1, M), label="m")
    buffer = loss_history(M)
    buffer.extend(history)
    # At m = M the step is full-batch and leaves the history untouched.
    expected_buffer = [*buffer, *losses][-8 * M:] if m < M else list(buffer)
    sel = select_subset(ROLLING, loss_tape(losses), m, buffer, np.random.default_rng(seed))
    assert sel.size == m and np.unique(sel.indices).size == m
    assert 0 <= sel.indices.min() and sel.indices.max() < M
    np.testing.assert_array_equal(sel.weights, np.ones(m))
    np.testing.assert_array_equal(np.array(buffer), expected_buffer)
    if below and history:
        within = select_loss_based(losses, m, None, np.random.default_rng(seed))
        np.testing.assert_array_equal(sel.indices, within.indices)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_loss_based_rejects_non_finite_losses(bad):
    with pytest.raises(ValueError, match="non-finite"):
        select_loss_based(np.array([1.0, bad, 2.0]), 1, None, np.random.default_rng(0))


def test_loss_based_deterministic_given_seed():
    losses = np.array([0.1, 5.0, 2.0, 0.4, 1.0])
    a = select_loss_based(losses, 2, None, np.random.default_rng(8))
    b = select_loss_based(losses, 2, None, np.random.default_rng(8))
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
    sel = select_grad_match(K, 3, np.random.default_rng(0))
    np.testing.assert_array_equal(sel.indices, [0])
    np.testing.assert_array_equal(sel.weights, [1.0])


def test_grad_match_full_support_unit_weights():
    rng = np.random.default_rng(10)
    model = Mlp.init([3, 8, 3], seed=2)
    tape = forward_tape(model, rng.standard_normal((8, 3)), rng.integers(0, 3, 8))
    K = gram_implicit(tape)
    sel = select_grad_match(K, 8, rng)
    assert sel.size == 8
    np.testing.assert_allclose(sel.weights, np.ones(8), atol=1e-8)


def test_grad_match_falls_back_to_random_on_zero_gram(monkeypatch):
    K = np.zeros((6, 6))
    sel = select_grad_match(K, 2, np.random.default_rng(11))
    assert sel.size == 2
    np.testing.assert_array_equal(sel.weights, np.ones(2))

    # Atoms found, but no weight positive: nothing is left to backprop.
    monkeypatch.setattr(selbp.selection, "omp_gram",
                        lambda K, t, cfg: Selection([0, 1], [-1.0, 0.0]))
    sel = select_grad_match(np.eye(6), 2, np.random.default_rng(11))
    assert sel.size == 2
    np.testing.assert_array_equal(sel.weights, np.ones(2))


def test_grad_match_refuses_a_gram_with_inf_and_minus_inf_in_one_row_without_a_warning():
    # The row mean of (inf, -inf) is NaN; under filterwarnings = error a
    # RuntimeWarning from taking it would be the exception instead.
    K = np.eye(4)
    K[0, 1] = np.inf
    K[0, 3] = K[2, 3] = -np.inf
    with pytest.raises(ValueError, match="Gram matrix contains non-finite entries"):
        select_grad_match(K, 2, np.random.default_rng(12))


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3,), ()])
def test_grad_match_rejects_a_non_square_gram(shape):
    with pytest.raises(DimensionMismatch):
        select_grad_match(np.ones(shape), 1, np.random.default_rng(12))


def test_grad_match_drops_atoms_clipped_to_zero():
    # A batch whose OMP solution at m=8 holds one negative weight.
    rng = np.random.default_rng(30)
    model = Mlp.init([4, 8, 3], seed=30)
    X = rng.standard_normal((16, 4))
    y = rng.integers(0, 3, 16)
    tape = forward_tape(model, X, y)
    K = gram_implicit(tape)
    raw = omp_gram(K, K.mean(axis=1), OmpConfig(max_atoms=8))
    assert (raw.weights < 0).sum() == 1

    sel = select_grad_match(K, 8, rng)
    assert sel.size == 7
    assert (sel.weights > 0).all()
    assert abs(sel.weights.sum() - sel.size) < 1e-12
    # The positive OMP weights, rescaled to sum to the 7 kept atoms.
    positive = raw.weights > 0
    np.testing.assert_array_equal(sel.indices, raw.indices[positive])
    np.testing.assert_allclose(
        sel.weights, 7 * raw.weights[positive] / raw.weights[positive].sum(), rtol=1e-15
    )
    # The negative atom clipped to zero and kept changes nothing.
    clipped = np.maximum(raw.weights, 0.0)
    kept = Selection(raw.indices, raw.size * clipped / clipped.sum())
    np.testing.assert_allclose(
        weighted_backward(model, X, y, sel, tape=tape),
        weighted_backward(model, X, y, kept, tape=tape),
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
        sel = select_grad_match(K, m, rng)
        assert sel.size <= m
        assert len(np.unique(sel.indices)) == sel.size
        assert (sel.indices < M).all()
        assert (sel.weights >= 0).all()
        assert abs(sel.weights.sum() - sel.size) < 1e-12


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    activation=st.sampled_from(["relu", "tanh"]),
    seed=st.integers(0, 2**32 - 1),
    sizes=st.integers(8, 64).flatmap(lambda M: st.tuples(st.just(M), st.integers(1, M))),
)
def test_grad_match_weights_on_a_real_gram_property(activation, seed, sizes):
    M, m = sizes
    rng = np.random.default_rng(seed)
    model = Mlp.init([4, 10, 3], activation=activation, seed=seed)
    K = gram_implicit(forward_tape(model, rng.standard_normal((M, 4)), rng.integers(0, 3, M)))

    sel = select_grad_match(K, m, rng)
    assert 1 <= sel.size <= m
    assert len(np.unique(sel.indices)) == sel.size
    assert (sel.indices < M).all()
    assert (sel.weights > 0).all()
    assert abs(sel.weights.sum() - sel.size) <= 1e-12 * sel.size
    # The kept atoms are OMP's positive-weight atoms, in the order OMP took them.
    raw = omp_gram(K, K.mean(axis=1), OmpConfig(max_atoms=m))
    np.testing.assert_array_equal(sel.indices, raw.indices[raw.weights > 0])


def test_strategy_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(kind="magic")
    with pytest.raises(DimensionMismatch):
        StrategyConfig(kind="random", fraction=0.0)
    with pytest.raises(ValueError):
        StrategyConfig(kind="loss_based", cdf_source="global")
