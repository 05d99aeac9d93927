"""Block invariance of the batched engine.

A trial's five sweep metrics and its superiority predicate must be
bit-identical whether it is evaluated alone, in its own cell's block, in a
block that mixes cells of other alpha and P_r, or through the pooled run at
any worker count, including at the extremes P_r = 0, alpha = 0, 80 dB,
K = 1 and M_r = 1.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import marcsim.harness as harness_mod
from marcsim import ChannelBlock, ScenarioConfig, sample_channel, trial_rng

N_TRIALS = 5
ALPHAS = (0.0, 0.1, 1.0)
RELAY_POWERS = (0.0, 10.0, 1e8)  # none, 10 dB and 80 dB


def _cells(K, M_r):
    base = ScenarioConfig(K=K, M_r=M_r, P_max=10.0, seed=21)
    return [replace(base, alpha=a, P_r=p) for a in ALPHAS for p in RELAY_POWERS]


def _evaluate(evaluate, draws):
    values, why = evaluate(ChannelBlock.stack(draws), 1e-8)
    assert not any(why), why
    return np.asarray(values)


def _alone_and_in_blocks(evaluate, scens):
    """Every trial's values evaluated alone, then in its own cell's block,
    in one block of all cells and in one block of all cells shuffled."""
    draws = [[sample_channel(s, trial_rng(s.seed, t)) for t in range(N_TRIALS)] for s in scens]
    flat = [c for cell in draws for c in cell]
    alone = np.array([_evaluate(evaluate, [c])[0] for c in flat])
    order = np.random.default_rng(0).permutation(len(flat))
    shuffled = np.empty_like(alone)
    shuffled[order] = _evaluate(evaluate, [flat[i] for i in order])
    own_cell = np.concatenate([_evaluate(evaluate, cell) for cell in draws])
    return alone, (own_cell, _evaluate(evaluate, flat), shuffled)


@pytest.mark.parametrize("K, M_r", [(10, 4), (3, 2), (1, 1), (1, 3), (6, 1)])
@pytest.mark.parametrize("table", ["_sweep_block", "_prob_block"])
def test_trial_values_do_not_depend_on_the_block(K, M_r, table):
    alone, blocks = _alone_and_in_blocks(getattr(harness_mod, table), _cells(K, M_r))
    for values in blocks:
        assert values.dtype == alone.dtype and np.array_equal(values, alone)


@pytest.mark.parametrize("table", ["_sweep_block", "_prob_block"])
def test_trial_values_do_not_depend_on_the_worker_count(table):
    evaluate = getattr(harness_mod, table)
    scens = _cells(10, 4)
    alone, _ = _alone_and_in_blocks(evaluate, scens)
    for workers in (1, 2, 3):
        per_cell = harness_mod._run_cells(partial(evaluate, epsilon=1e-8), scens, N_TRIALS, workers)
        assert np.array_equal([value for cell in per_cell for value, _ in cell], alone), workers
        assert all(retries == 0 for cell in per_cell for _, retries in cell)


def test_blocks_are_capped_and_span_cells(monkeypatch):
    # one block per run at one worker, up to the coefficient cap; a block
    # holds trials of several cells
    spans = []
    real = harness_mod._trial_block

    def recorded(evaluate, scens, n_trials, lo, hi):
        spans.append((lo, hi))
        return real(evaluate, scens, n_trials, lo, hi)

    monkeypatch.setattr(harness_mod, "_trial_block", recorded)
    evaluate = partial(harness_mod._prob_block, epsilon=1e-8)
    harness_mod._run_cells(evaluate, _cells(3, 2), N_TRIALS, 1)
    assert spans == [(0, 9 * N_TRIALS)]
    spans.clear()
    monkeypatch.setattr(harness_mod, "_BLOCK_ENTRIES", 3 * 2 * 7)
    harness_mod._run_cells(evaluate, _cells(3, 2), N_TRIALS, 1)
    assert spans[0] == (0, 7) and spans[-1][1] == 9 * N_TRIALS and len(spans) == 7
