"""Block invariance of the batched engine.

A trial's five sweep metrics and its superiority predicate must be
bit-identical whether it is evaluated alone, in its own cell's block, in a
block that mixes cells of other alpha and P_r, or through the pooled run at
any worker count, including at the extremes P_r = 0, alpha = 0, 80 dB,
K = 1 and M_r = 1. A block lists trials across cells, and each trial's
substream in it is drawn once for all of the trial's adjacent cells, and
its aggregates are built once and scaled to every cell; in a sweep block a
trial's adjacent cells of one alpha also share one build of the eigenpairs.
"""

import tracemalloc
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest

import marcsim.channel as channel_mod
import marcsim.harness as harness_mod
import marcsim.joint as joint_mod
from marcsim import (
    ChannelRealization, RelayMatrix, ScenarioConfig, SweepConfig, effective_channel,
    estimate_superiority_probability, quadratic_form, relay_tx_power, run_sweep, sample_channel,
    single_user_relay_matrix, sum_rate_closed, sum_rate_logdet, trial_rng,
)
from marcsim.channel import compute_aggregates, sample_block
from marcsim.errors import NumericalError, ValidationError
from marcsim.harness import db_to_linear
from marcsim.numerics import dominant_eigenvalue
from marcsim.tdma import block_asymptotic, kkt_slackness

from conftest import scaled_block

N_TRIALS = 5
ALPHAS = (0.0, 0.1, 1.0)
RELAY_POWERS = (0.0, 10.0, 1e8)  # none, 10 dB and 80 dB


def _table(scens):
    """The block evaluators' arguments for the cells scens, of one K, M_r and
    seed: the base scenario, scens[0], and the (3, cells) array of the cells'
    alpha, P_max and P_r."""
    return scens[0], np.array([[s.alpha, s.P_max, s.P_r] for s in scens]).T.copy()


def _cells(K, M_r):
    base = ScenarioConfig(K=K, M_r=M_r, P_max=10.0, seed=21)
    return _table([replace(base, alpha=a, P_r=p) for a in ALPHAS for p in RELAY_POWERS])


def _evaluate(evaluate, table, items):
    """The values of the (cell, trial) items of the table's cells, evaluated
    as one block."""
    cells, trials = map(np.array, zip(*items))
    values, why = evaluate(*table, trials, cells)
    assert not why, why
    return np.asarray(values)


def _item(evaluate, table, i):
    """The values of item i of the flat (trial, cell) list evaluated alone."""
    n = table[1].shape[1]
    return evaluate(*table, np.array([i // n]), np.array([i % n]))[0][0]


def _alone_and_in_blocks(evaluate, table):
    """Every trial's values evaluated alone, then in its own cell's block,
    in one block of all cells, cell by cell, trial by trial and shuffled."""
    draws = [[(c, t) for t in range(N_TRIALS)] for c in range(table[1].shape[1])]
    flat = [d for cell in draws for d in cell]
    alone = np.array([_evaluate(evaluate, table, [d])[0] for d in flat])
    trial_major, shuffled = np.empty_like(alone), np.empty_like(alone)
    order = sorted(range(len(flat)), key=lambda i: flat[i][1])
    trial_major[order] = _evaluate(evaluate, table, [flat[i] for i in order])
    order = np.random.default_rng(0).permutation(len(flat))
    shuffled[order] = _evaluate(evaluate, table, [flat[i] for i in order])
    own_cell = np.concatenate([_evaluate(evaluate, table, cell) for cell in draws])
    return alone, (own_cell, _evaluate(evaluate, table, flat), trial_major, shuffled)


@pytest.mark.parametrize("K, M_r", [(10, 4), (3, 2), (1, 1), (1, 3), (6, 1)])
@pytest.mark.parametrize("table", ["_sweep_block", "_prob_block"])
def test_trial_values_do_not_depend_on_the_block(K, M_r, table):
    alone, blocks = _alone_and_in_blocks(getattr(harness_mod, table), _cells(K, M_r))
    for values in blocks:
        assert values.dtype == alone.dtype and np.array_equal(values, alone)


def test_a_sweep_shares_a_realization_only_within_one_p_max():
    # cells of one alpha and three P_r at P_max 1, then the same at P_max 10:
    # a trial's adjacent cells of another P_max are another realization
    base, powers = _cells(3, 2)
    table = _table([replace(base, alpha=a, P_max=p_max, P_r=p_r)
                    for p_max in (1.0, 10.0) for a, _, p_r in powers.T[:3]])
    alone, blocks = _alone_and_in_blocks(harness_mod._sweep_block, table)
    for values in blocks:
        assert np.array_equal(values, alone)


def _kernel_values(c, F, x, A, v, gain, k, tau) -> dict:
    """The values of every per-F kernel on c, a realization or a block, with
    its relay matrices F, quadratic-form pairs (x, A), beamformer directions
    v and gains, user k for the single-user matrix, and slot durations tau
    for the slackness."""
    bf, alone = RelayMatrix.beamformer(c, v, gain), single_user_relay_matrix(c, k)
    return {
        "relay_tx_power": relay_tx_power(F, c),
        "effective_channel": effective_channel(F, c),
        "sum_rate_logdet": sum_rate_logdet(F, c),
        "sum_rate_closed": sum_rate_closed(F, c),
        "quadratic_form": quadratic_form(x, A),
        "beamformer": bf.F,
        "beamformer power": bf.tx_power,
        "single_user_relay_matrix": alone.F,
        "single-user power": alone.tx_power,
        "kkt_slackness": kkt_slackness(c, tau),
    }


@pytest.mark.parametrize("K, M_r", [(1, 1), (3, 2), (10, 4), (50, 8)])
def test_stacked_kernels_equal_their_per_realization_calls(K, M_r):
    # Every per-F kernel on a block with a stack of F, row for row bit for
    # bit its call on the row's realization and matrix, over draws at
    # alpha = 0 and 1, P_r = 0 and 80 dB, with h = 0 in one row, h_r = 0 for
    # one user in another and a zero F in a third; every other row's slots
    # park all users but the last.
    scens = [ScenarioConfig(K=K, M_r=M_r, P_max=10.0, P_r=p_r, alpha=a, seed=4)
             for a in (0.0, 1.0) for p_r in (0.0, 10.0, 1e8)]
    blk = scaled_block(scens * 2, range(12))
    h_r, h = blk.h_r.copy(), blk.h.copy()
    h[1], h_r[2, K // 2] = 0.0, 0.0
    blk = replace(blk, h_r=h_r, h=h)
    rng = np.random.default_rng(K * M_r)
    F, v, x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
               for shape in ((12, M_r, M_r), (12, M_r), (12, M_r)))
    F[3] = 0.0
    gain = rng.uniform(0.0, 3.0, 12)
    tau = rng.uniform(0.1, 1.0, (12, K))
    tau[::2, :-1] = 0.0
    agg = compute_aggregates(blk)
    A = agg.R + agg.W
    stacked = _kernel_values(blk, F, x, A, v, gain, K // 2, tau)
    for i in range(12):
        c = ChannelRealization(h_r=blk.h_r[i], h_d=blk.h_d[i], h=blk.h[i], P=blk.P[i],
                               P_r=float(blk.P_r[i]))
        for name, want in _kernel_values(c, F[i], x[i], A[i], v[i], gain[i], K // 2,
                                         tau[i]).items():
            got = np.asarray(stacked[name][i])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (name, i)
    # h = 0 and h_r = 0 leave no relayed path and no beamformer
    assert np.all(stacked["effective_channel"][1, :, 0] == 0)
    assert stacked["effective_channel"][2, K // 2, 0] == 0
    assert np.all(stacked["beamformer"][1] == 0)
    assert np.all(stacked["single_user_relay_matrix"][[1, 2]] == 0)


@pytest.mark.parametrize("K, M_r", [(1, 1), (10, 4), (6, 1)])
def test_a_trials_cells_share_one_aggregate_build_per_trial(monkeypatch, K, M_r):
    # Trial-major blocks, as _trial_block builds them: items 0-12 and 13-44 of
    # 9 cells, so the edge splits trial 1's run of alpha = 0.1 (items 12-14).
    # Every item's values are its values alone; the aggregates take one row
    # per trial of each block, and the one eigen-solve of each block, of the
    # stack [R, R + W], one row of each per (trial, alpha).
    table, cells = _cells(K, M_r), 9
    alone = [_item(harness_mod._sweep_block, table, i) for i in range(N_TRIALS * cells)]
    rows = {"aggregates": [], "eigenpairs": []}
    real_agg = harness_mod.compute_aggregates
    monkeypatch.setattr(harness_mod, "compute_aggregates",
                        lambda c: rows["aggregates"].append(len(c.P)) or real_agg(c))
    real_eig = joint_mod.dominant_eigenpair
    monkeypatch.setattr(joint_mod, "dominant_eigenpair",
                        lambda A: rows["eigenpairs"].append(A.shape[:-2]) or real_eig(A))
    first = harness_mod._trial_block(harness_mod._sweep_block, *table, 0, 13)
    second = harness_mod._trial_block(harness_mod._sweep_block, *table, 13, N_TRIALS * cells)
    # items 0-12 hold trials 0-1 and items 13-44 1-4, and (trial, alpha) runs
    # 5 and 11
    assert rows == {"aggregates": [2, 4], "eigenpairs": [(2, 5), (2, 11)]}
    values = np.concatenate([first, second])
    for i, got in enumerate(values):
        assert got.tobytes() == alone[i].tobytes(), (K, M_r, i)


@pytest.mark.parametrize("table", ["_sweep_block", "_prob_block"])
def test_each_pass_draws_each_trial_once(count_draws, table):
    # The blocks of items 0-12 and 13-44 of 9 cells, trial-major as
    # _trial_block lists them: each block draws each trial of its items once.
    cells_table, cells = _cells(3, 2), 9
    real = getattr(harness_mod, table)
    passes = []

    def counted(base, powers, trials, cells):
        drawn = len(count_draws)
        values, why = real(base, powers, trials, cells)
        passes.append((len(trials), len(count_draws) - drawn))
        return values, why

    harness_mod._trial_block(counted, *cells_table, 0, 13)
    harness_mod._trial_block(counted, *cells_table, 13, N_TRIALS * cells)
    assert passes == [(13, 2), (32, 4)]


def test_the_scaled_predicate_equals_the_per_item_one():
    # _prob_block forms each draw's superiority index mu once, from its
    # aggregates at unit alpha and P_max, and compares alpha^2 P_max mu with 1
    # in each of its cells. Outside near-ties, |lambda_max(R + W) - tr R| <=
    # 1e-10 tr R, its predicate is the one of the aggregates built at each
    # item's own alpha and P_max.
    compared = items = 0
    for K, M_r in ((1, 1), (1, 8), (2, 1), (5, 3), (10, 4), (50, 1), (50, 8), (100, 2),
                   (100, 8)):
        base = ScenarioConfig(K=K, M_r=M_r, seed=13)
        cells = [replace(base, alpha=a, P_max=db_to_linear(db))
                 for a in (0.0, 1e-6, 1e-3, 0.1, 1.0, 1e6)
                 for db in (-40.0, -20.0, 0.0, 20.0, 40.0, 80.0)]
        item = np.arange(20 * len(cells))
        cfgs, trials = [cells[i % len(cells)] for i in item], item // len(cells)
        wins, why = harness_mod._prob_block(*_table(cells), trials, item % len(cells))
        agg = compute_aggregates(scaled_block(cfgs, trials))
        lam, tr_R = dominant_eigenvalue(agg.R + agg.W), agg.nr.sum(axis=-1)
        clear = np.abs(lam - tr_R) > 1e-10 * tr_R
        assert not why
        assert np.array_equal(wins[clear], block_asymptotic(agg).joint_wins[clear]), (K, M_r)
        compared, items = compared + clear.sum(), items + len(item)
    assert compared >= 0.5 * items, (compared, items)


def _assert_worker_count_free(evaluate, table):
    """The pooled run of the table's cells at 1, 2 and 3 workers gives each
    trial's values alone."""
    alone, _ = _alone_and_in_blocks(evaluate, table)
    for workers in (1, 2, 3):
        values = harness_mod._run_cells(evaluate, *table, N_TRIALS, workers)
        assert values.shape == (table[1].shape[1], N_TRIALS, *alone.shape[1:]), workers
        assert np.array_equal(values.reshape(alone.shape), alone), workers


@pytest.mark.parametrize("table", ["_sweep_block", "_prob_block"])
def test_trial_values_do_not_depend_on_the_worker_count(table, pin_cpu_count, any_run_forks):
    pin_cpu_count(3)
    evaluate = getattr(harness_mod, table)
    _assert_worker_count_free(evaluate, _cells(10, 4))
    # one cell of 1,024 trials at K=2, M_r=4: one block, then blocks of 512
    # and 342, whose stacked matrix products must not change a trial's values
    one_cell = _table([ScenarioConfig(K=2, M_r=4, P_max=10.0, P_r=10.0, seed=5)])
    whole = harness_mod._run_cells(evaluate, *one_cell, 1024, 1)
    for workers in (2, 3):
        values = harness_mod._run_cells(evaluate, *one_cell, 1024, workers)
        assert np.array_equal(values, whole), workers


def test_k16_sweep_values_do_not_depend_on_the_worker_count(pin_cpu_count, any_run_forks):
    # at K = 16 the slot optimizer's sums over users span two of numpy's
    # 8-wide pairwise blocks, so their order must not follow the block size
    pin_cpu_count(3)
    _assert_worker_count_free(harness_mod._sweep_block, _cells(16, 4))


def test_blocks_are_capped_and_span_cells(monkeypatch, inline_pool, pin_cpu_count):
    # 45 trials are too little work for a second process: one block of the
    # whole run, computed here, at any W
    pin_cpu_count(3)
    spans = []
    real = harness_mod._trial_block

    def recorded(evaluate, base, powers, lo, hi):
        spans.append((lo, hi))
        return real(evaluate, base, powers, lo, hi)

    monkeypatch.setattr(harness_mod, "_trial_block", recorded)
    evaluate = harness_mod._prob_block
    items = 9 * N_TRIALS
    for workers in (1, 2, 3):
        spans.clear()
        harness_mod._run_cells(evaluate, *_cells(3, 2), N_TRIALS, workers)
        assert spans == [(0, items)], workers
    assert inline_pool == []
    # with a process paid for by any trial: one block per worker, of
    # ceil(trials / workers) trials, up to the byte budget; a block holds
    # trials of several cells
    monkeypatch.setattr(harness_mod, "_MIN_PROCESS_WORK", 1)
    for workers, ends in ((1, [0, items]), (2, [0, 23, items]), (3, [0, 15, 30, items])):
        spans.clear()
        harness_mod._run_cells(evaluate, *_cells(3, 2), N_TRIALS, workers)
        assert spans == list(zip(ends, ends[1:])), workers
    # a budget of 7 trials: each of the W groups gets as few blocks as keep
    # them within it, 7, 4 or 3, and all of those blocks split the run evenly
    monkeypatch.setattr(harness_mod, "_BLOCK_BYTES", 7 * harness_mod._trial_bytes(3, 2))
    for workers, size in ((1, 7), (2, 6), (3, 5)):
        spans.clear()
        harness_mod._run_cells(evaluate, *_cells(3, 2), N_TRIALS, workers)
        assert spans == [(lo, min(lo + size, items)) for lo in range(0, items, size)], workers
    assert inline_pool == [1, 2, 1, 2]


@pytest.mark.parametrize("table", ["_sweep_block", "_prob_block"])
def test_blocks_stay_within_the_byte_budget(monkeypatch, table):
    # Two full blocks of a run at each shape of a small grid, with the
    # extremes and the benchmark shapes: a block's traced peak per trial lies
    # within a fixed band of _trial_bytes, and no block's peak passes 1.6
    # times the budget.
    evaluate = getattr(harness_mod, table)
    peaks = []
    real = harness_mod._trial_block

    def traced(evaluate, base, powers, lo, hi):
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        out = real(evaluate, base, powers, lo, hi)
        peaks.append((tracemalloc.get_traced_memory()[1] - held, hi - lo))
        return out

    monkeypatch.setattr(harness_mod, "_trial_block", traced)
    tracemalloc.start()
    try:
        for K, M_r in ((1, 1), (3, 2), (10, 4), (50, 1), (1, 8), (50, 8)):
            scen = _table([ScenarioConfig(K=K, M_r=M_r, P_max=10.0, P_r=10.0, seed=3)])
            fit = harness_mod._trial_bytes(K, M_r)
            size = harness_mod._BLOCK_BYTES // fit
            harness_mod._run_cells(evaluate, *scen, 2, 1)  # first use: not counted
            peaks.clear()
            harness_mod._run_cells(evaluate, *scen, 2 * size, 1)
            assert [n for _, n in peaks] == [size, size], (K, M_r)
            for peak, n in peaks:
                assert 0.4 <= peak / (n * fit) <= 1.5, (K, M_r, peak / n)
                assert peak <= 1.6 * harness_mod._BLOCK_BYTES, (K, M_r, peak)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("table", ["_sweep_block", "_prob_block"])
def test_a_block_returns_one_array(monkeypatch, inline_pool, pin_cpu_count, any_run_forks, table,
                                   workers):
    pin_cpu_count(2)
    returned = []
    real = harness_mod._trial_block

    def recorded(evaluate, base, powers, lo, hi):
        returned.append((hi - lo, real(evaluate, base, powers, lo, hi)))
        return returned[-1][1]

    monkeypatch.setattr(harness_mod, "_trial_block", recorded)
    harness_mod._run_cells(getattr(harness_mod, table), *_cells(3, 2), N_TRIALS, workers)
    assert len(returned) == workers
    for size, values in returned:
        assert isinstance(values, np.ndarray) and len(values) == size
    assert inline_pool == [1] * (workers - 1)


@pytest.mark.parametrize("table", ["_sweep_block", "_prob_block"])
def test_a_failed_block_names_its_lowest_failing_item(table):
    # items 12..16, trial 1 of cells 3-7: rows 3 and 1 fail, row 3 with a
    # one-character message. The block is evaluated once, and the error
    # names row 1's item, trial 1 of cell 4, its cell's alpha, P_max and P_r
    # and its message whole.
    passes = []

    def failing(*draws):
        values, why = getattr(harness_mod, table)(*draws)
        passes.append(len(values))
        return values, {**why, 3: "x", 1: "a longer reason, with: punctuation"}

    with pytest.raises(NumericalError) as err:
        harness_mod._trial_block(failing, *_cells(3, 2), 12, 17)
    assert passes == [5]
    assert str(err.value) == ("trial 1 of cell alpha=0.1, P_max=10, P_r=10: "
                              "a longer reason, with: punctuation")


@pytest.fixture
def count_draws(monkeypatch):
    """Counts the substream draws sample_block makes."""
    draws = []
    real = channel_mod._draw
    monkeypatch.setattr(channel_mod, "_draw", lambda *a: draws.append(1) or real(*a))
    return draws


def test_a_block_matches_sample_channel_row_for_row(count_draws):
    # each seed's shuffled trials, whatever the scenario's alpha
    # and powers: one draw per row, every row the realization sample_channel
    # makes from the trial's own stream at alpha = P_max = P_r = 1
    base = ScenarioConfig(K=4, M_r=3, alpha=0.3, P_max=10.0, P_r=1e8, seed=0)
    order = np.random.default_rng(3).permutation(12)
    for seed in (21, 2**32 + 5):
        count_draws.clear()
        blk = sample_block(replace(base, seed=seed), order)
        assert len(count_draws) == len(order)
        unit = replace(base, seed=seed, alpha=1.0, P_max=1.0, P_r=1.0)
        for i, t in enumerate(order):
            want = sample_channel(unit, trial_rng(seed, t))
            for name in ("h_r", "h_d", "h", "P", "P_r"):
                assert np.asarray(getattr(blk, name)[i]).tobytes() == np.asarray(
                    getattr(want, name)).tobytes(), (name, seed, t)
    # each (seed, t) key under several alpha, P_max and P_r, in a shuffled
    # block of two seeds, unit draws scaled per item as the tests'
    # scaled_block does: every row the realization sample_channel makes
    cfgs = [replace(base, seed=seed, alpha=a, P_max=p_max, P_r=p_r)
            for seed in (21, 2**32 + 5) for a in (0.0, 0.3, 1.0)
            for p_max, p_r in ((1.0, 0.0), (10.0, 1e8))]
    pairs = [(cfg, t) for cfg in cfgs for t in range(6)]
    order = np.random.default_rng(3).permutation(len(pairs))
    pairs = [pairs[i] for i in order]
    count_draws.clear()
    blk = scaled_block([cfg for cfg, _ in pairs], [t for _, t in pairs])
    assert len(count_draws) == len(pairs)
    for i, (cfg, t) in enumerate(pairs):
        want = sample_channel(cfg, trial_rng(cfg.seed, t))
        for name in ("h_r", "h_d", "h", "P"):
            got, ref = getattr(blk, name)[i], getattr(want, name)
            assert got.dtype == ref.dtype and got.shape == ref.shape, name
            assert got.tobytes() == ref.tobytes(), (name, cfg, t)
            # a realization is frozen; a block's arrays are writeable, as at
            # one draw per row, not read-only broadcasts of a shared draw
            assert not ref.flags.writeable and getattr(blk, name).flags.writeable, name
        assert blk.P_r[i] == want.P_r


def test_overflowing_direct_links_raise_among_shared_keys(count_draws):
    # the draw of trial 0 at K=50, M_r=8, seed 0 overflows at alpha = 1e308
    ok = ScenarioConfig(K=50, M_r=8, alpha=1.0, seed=0)
    for big, raises in ((1e308, True), (1e307, False)):
        cfgs = [ok, replace(ok, alpha=big), ok, replace(ok, alpha=big, P_r=0.0)]
        if raises:
            with pytest.raises(ValidationError, match="^h_d has non-finite entries$"):
                scaled_block(cfgs, [0, 0, 1, 1])
        else:
            assert np.isfinite(scaled_block(cfgs, [0, 0, 1, 1]).h_d).all()
    assert len(count_draws) == 2 * 4  # one draw per item
    # _prob_block draws at unit alpha and P_max and scales each item: it
    # raises the message that drawing at the items' own alpha and P_max and
    # building their aggregates raises first
    for big in (1e308, 1e200):
        cfgs = [ok, replace(ok, alpha=1e200, P_max=3.0), replace(ok, alpha=big)]
        with pytest.raises(ValidationError) as want:
            compute_aggregates(scaled_block(cfgs, [0, 1, 1]))
        with pytest.raises(ValidationError) as got:
            harness_mod._prob_block(*_table(cfgs), np.array([0, 1, 1]), np.arange(3))
        assert str(got.value) == str(want.value), big
    assert str(want.value).startswith("channel SNRs overflow a float: s = inf, tr R = ")


@pytest.mark.parametrize("workers", [1, 2])
def test_multi_cell_tables_equal_their_one_cell_runs(pin_cpu_count, any_run_forks, workers):
    pin_cpu_count(2)
    base = ScenarioConfig(K=3, M_r=2, P_max=10.0, P_r=10.0, seed=17)
    alphas, grid = (0.1, 1.0, 0.0, -0.0), (0.0, 20.0, 80.0)
    # each table's row order; -0.0 sorts as 0.0, so its rows follow those of 0.0
    for run, order in ((run_sweep, attrgetter("alpha", "pr_db", "metric")),
                       (estimate_superiority_probability, attrgetter("alpha", "pmax_db"))):
        whole = run(SweepConfig(base, grid, alphas, n_trials=7), workers=workers)
        alone = [run(SweepConfig(base, (db,), (a,), n_trials=7), workers=workers)
                 for a in alphas for db in grid]
        expected = tuple(sorted((row for cell in alone for row in cell.rows), key=order))
        assert whole.rows == expected, run.__name__
        assert repr(whole.rows) == repr(expected), run.__name__  # and -0.0 stays -0.0


@pytest.mark.parametrize("failing_cells", [[4], [4, 6]])
def test_a_failed_item_stops_the_run(monkeypatch, count_draws, failing_cells):
    # trial 2 fails in some cells: the run draws each trial once and stops,
    # naming the trial's lowest failing cell and its message
    table, cells = _cells(3, 2), 9
    calls = []
    real = harness_mod.sample_block

    def recorded(scen, trials):
        calls.append((scen, list(trials)))
        return real(scen, trials)

    def flaky(*draws):
        values, why = harness_mod._sweep_block(*draws)
        return values, {**why, **{2 * cells + c: f"injected failure {c}" for c in failing_cells}}

    monkeypatch.setattr(harness_mod, "sample_block", recorded)
    with pytest.raises(NumericalError) as err:
        harness_mod._run_cells(flaky, *table, N_TRIALS, 1)
    assert str(err.value) == "trial 2 of cell alpha=0.1, P_max=10, P_r=10: injected failure 4"
    assert calls == [(table[0], list(range(N_TRIALS)))]
    assert len(count_draws) == N_TRIALS
