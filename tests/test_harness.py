import importlib
import importlib.util
import math
import multiprocessing
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import marcsim.harness as harness_mod
import marcsim.joint as joint_mod
import marcsim.tdma as tdma_mod
from marcsim import (
    ChannelBlock,
    ChannelRealization,
    ScenarioConfig,
    SweepConfig,
    estimate_superiority_probability,
    evaluate_realization,
    invariant_suite,
    run_sweep,
    sample_block,
    sample_channel,
    trial_rng,
)
from marcsim.cli import main
from marcsim.errors import NumericalError, ValidationError
from marcsim.harness import METRICS


def small_cfg(**kw):
    base = ScenarioConfig(
        K=kw.pop("K", 3),
        M_r=kw.pop("M_r", 2),
        P_max=kw.pop("P_max", 10.0),
        P_r=kw.pop("P_r", 10.0),
        alpha=1.0,
        seed=kw.pop("seed", 123),
    )
    defaults = dict(
        base=base,
        grid_db=(0.0, 10.0),
        alpha_values=(0.5, 1.0),
        n_trials=8,
    )
    defaults.update(kw)
    return SweepConfig(**defaults)


def test_evaluate_single_user_coincidence(scalar_ones_channel):
    m = evaluate_realization(scalar_ones_channel)
    assert m.tdma.sum_rate == pytest.approx(np.log2(7 / 3), abs=1e-12)
    assert m.bounds.r_lower == pytest.approx(np.log2(7 / 3), abs=1e-12)


def test_evaluate_zero_relay_power(make_channel):
    from marcsim import compute_aggregates

    c = make_channel(seed=5, K=3, P_r=0.0)
    m = evaluate_realization(c)
    agg = compute_aggregates(c)
    assert m.bounds.r_lower == pytest.approx(np.log2(1 + agg.s))
    assert m.bounds.r_lower <= m.bounds.r_up_min + 1e-9


def test_evaluate_record_invariants(make_channel):
    for seed in range(10):
        c = make_channel(seed=seed, K=4, M_r=2)
        m = evaluate_realization(c)
        assert m.bounds.r_lower <= m.bounds.r_up_min + 1e-9
        assert m.bounds.r_up_min == pytest.approx(min(m.bounds.r_up1, m.bounds.r_up2))
        assert m.tdma.kkt_spread <= 1e-8
        # the eval JSON's superiority predicate is the asymptotic comparison's
        assert m.to_json_dict()["joint_beats_tdma_asymptotic"] is bool(m.asymptotic.joint_wins)


def test_sweep_single_trial_equals_direct_evaluation():
    cfg = small_cfg(n_trials=1, alpha_values=(1.0,), grid_db=(10.0,))
    result = run_sweep(cfg)
    from dataclasses import replace

    scen = replace(cfg.base, alpha=1.0, P_r=10.0)
    c = sample_channel(scen, trial_rng(cfg.base.seed, 0))
    m = evaluate_realization(c)
    direct = dict(zip(METRICS, (m.bounds.r_lower, m.bounds.r_up1, m.bounds.r_up2,
                                m.bounds.r_up_min, m.tdma.sum_rate)))
    for row in result.rows:
        assert row.mean == pytest.approx(direct[row.metric], abs=1e-14)
        assert row.stderr == 0.0


def test_sweep_deterministic_and_worker_invariant(any_run_forks):
    cfg = small_cfg()
    csv1 = run_sweep(cfg, workers=1).to_csv()
    csv2 = run_sweep(cfg, workers=1).to_csv()
    csv3 = run_sweep(cfg, workers=2).to_csv()
    assert csv1 == csv2
    assert csv1 == csv3


@pytest.mark.parametrize("n_trials", [2, 9, 129])
def test_table_statistics_equal_the_per_cell_reductions(n_trials):
    # the tables reduce all cells at once; each row must equal its own cell's
    # reductions over that cell's trials, bit for bit
    cfg = small_cfg(n_trials=n_trials)
    rows = {(r.alpha, r.pr_db, r.metric): r for r in run_sweep(cfg).rows}
    cells, values = harness_mod._run_table(cfg, "P_r", harness_mod._sweep_block, 1)
    for (alpha, pr_db), cell in zip(cells, values):
        for m, vals in zip(METRICS, cell.T):
            row = rows[alpha, pr_db, m]
            assert row.mean == float(vals.mean())
            assert row.stderr == float(vals.std(ddof=1) / np.sqrt(n_trials))
    probs = estimate_superiority_probability(cfg).rows
    cells, wins = harness_mod._run_table(cfg, "P_max", harness_mod._prob_block, 1)
    assert [(r.alpha, r.pmax_db) for r in probs] == cells
    assert [r.probability for r in probs] == [int(w.sum()) / n_trials for w in wins]


def test_sweep_rows_complete_and_ordered():
    cfg = small_cfg()
    result = run_sweep(cfg)
    assert len(result.rows) == 2 * 2 * len(METRICS)
    lines = result.to_csv().splitlines()
    assert lines[0] == "alpha,pr_db,metric,mean,stderr,n_trials,seed"
    keys = [tuple(line.split(",")[:3]) for line in lines[1:]]
    parsed = [(float(a), float(p), m) for a, p, m in keys]
    assert parsed == sorted(parsed)


def test_rows_in_csv_order_for_unsorted_grids():
    # cells run in sorted (alpha, dB) order, so the grid order given is moot
    # and to_csv writes the rows as they are
    for run in (run_sweep, estimate_superiority_probability):
        ordered = run(small_cfg(n_trials=3))
        shuffled = run(small_cfg(n_trials=3, alpha_values=(1.0, 0.5), grid_db=(10.0, 0.0)))
        assert shuffled == ordered
        keys = [(r.alpha, r.pr_db, r.metric) if run is run_sweep else (r.alpha, r.pmax_db)
                for r in ordered.rows]
        assert keys == sorted(keys)
    # a repeated alpha repeats its cell; its rows interleave by metric
    keys = [(r.alpha, r.pr_db, r.metric)
            for r in run_sweep(small_cfg(n_trials=2, alpha_values=(1.0, 0.5, 1.0))).rows]
    assert keys == sorted(keys)


def test_one_result_class_writes_both_tables():
    assert harness_mod.SweepResult is harness_mod.ProbResult
    assert harness_mod.SweepResult(rows=()).to_csv() == ""


def test_csv_rows_format_each_field_alone():
    # every row is written by one template; each field must read as it would
    # formatted alone, floats at 10 significant digits, -0.0, inf and nan too
    rows = tuple(harness_mod.SweepRow(alpha=a, pr_db=-0.0, metric="r_lower", mean=m,
                                      stderr=np.float64(s), n_trials=3, seed=-1)
                 for a, m, s in ((0.1, -0.0, 1 / 3), (1.0, np.inf, np.nan),
                                 (1e-300, -np.inf, 12345678901.5), (0.5, np.nan, 0.0)))
    lines = harness_mod.SweepResult(rows=rows).to_csv().splitlines()
    assert lines[0] == "alpha,pr_db,metric,mean,stderr,n_trials,seed"
    for r, line in zip(rows, lines[1:]):
        assert line == ",".join(format(float(v), ".10g") if isinstance(v, float) else str(v)
                                for v in r._asdict().values())
    assert lines[1:3] == ["0.1,-0,r_lower,-0,0.3333333333,3,-1", "1,-0,r_lower,inf,nan,3,-1"]
    # a row reads as its class and fields, keyword by keyword
    row = harness_mod.SweepRow(0.1, -0.0, "r_lower", -0.0, 1 / 3, 3, -1)
    assert repr(row) == ("SweepRow(alpha=0.1, pr_db=-0.0, metric='r_lower', mean=-0.0, "
                         "stderr=0.3333333333333333, n_trials=3, seed=-1)")


def test_sweep_aggregated_bound_ordering():
    cfg = small_cfg(n_trials=20)
    rows = {(r.alpha, r.pr_db, r.metric): r.mean for r in run_sweep(cfg).rows}
    for alpha in cfg.alpha_values:
        for pr in cfg.grid_db:
            assert rows[(alpha, pr, "joint_lower")] <= rows[(alpha, pr, "joint_up_min")] + 1e-9


def test_sweep_raises_on_a_failed_trial(monkeypatch, capsys, tmp_path):
    # a slot failure of trial 1 stops the sweep, and the CLI exits 2 with
    # the trial, the cell and the message, and writes no CSV
    real = harness_mod.block_slots

    def flaky(*args):
        alloc, why = real(*args)
        return alloc, {**why, 1: "injected failure"}

    monkeypatch.setattr(harness_mod, "block_slots", flaky)
    cfg = small_cfg(alpha_values=(1.0,), grid_db=(10.0,), n_trials=3)
    with pytest.raises(NumericalError, match="^trial 1 of cell alpha=1, P_max=10, P_r=10: "
                                             "injected failure$"):
        run_sweep(cfg)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--trials", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("numerical failure: trial 1 of cell alpha=1, P_max=10, "
                                       "P_r=10: injected failure\n")
    assert not out.exists()


def test_no_direct_links_tdma_dominates_at_high_relay_power():
    # with absent direct links the asymptotic comparison always favors TDMA,
    # which must show in the 40 dB cell means
    base = ScenarioConfig(K=5, M_r=2, P_max=10.0, P_r=1.0, alpha=0.0, seed=31)
    cfg = SweepConfig(base=base, grid_db=(40.0,), alpha_values=(0.0,), n_trials=60)
    rows = {r.metric: r.mean for r in run_sweep(cfg).rows}
    assert rows["tdma_sum_rate"] >= rows["joint_lower"]


def test_up2_mean_gap_small_at_top_of_grid():
    base = ScenarioConfig(K=5, M_r=2, P_max=10.0, P_r=1.0, alpha=1.0, seed=37)
    cfg = SweepConfig(base=base, grid_db=(40.0,), alpha_values=(1.0,), n_trials=100)
    rows = {r.metric: r.mean for r in run_sweep(cfg).rows}
    assert rows["joint_up2"] - rows["joint_lower"] <= 0.05


def test_probability_zero_without_direct_links():
    base = ScenarioConfig(K=5, M_r=2, P_max=10.0, P_r=10.0, alpha=0.0, seed=7)
    cfg = SweepConfig(base=base, grid_db=(10.0,), alpha_values=(0.0,), n_trials=200)
    result = estimate_superiority_probability(cfg)
    (row,) = result.rows
    assert row.probability == 0.0
    assert row.stderr == 0.0


def test_probability_zero_single_user():
    base = ScenarioConfig(K=1, M_r=3, P_max=10.0, P_r=10.0, alpha=1.0, seed=7)
    cfg = SweepConfig(base=base, grid_db=(0.0, 10.0), alpha_values=(1.0,), n_trials=200)
    result = estimate_superiority_probability(cfg)
    assert all(r.probability == 0.0 for r in result.rows)


def test_probability_csv_schema_and_determinism():
    base = ScenarioConfig(K=4, M_r=2, P_max=10.0, P_r=10.0, alpha=1.0, seed=3)
    cfg = SweepConfig(base=base, grid_db=(0.0, 10.0), alpha_values=(0.3, 1.0), n_trials=50)
    r1 = estimate_superiority_probability(cfg, workers=1)
    r2 = estimate_superiority_probability(cfg, workers=2)
    assert r1.to_csv() == r2.to_csv()
    lines = r1.to_csv().splitlines()
    assert lines[0] == "alpha,pmax_db,probability,stderr,n_trials,seed"
    assert len(lines) == 1 + 2 * 2


def test_sweep_config_validation():
    base = ScenarioConfig()
    with pytest.raises(ValidationError):
        SweepConfig(base=base, grid_db=(10.0,), n_trials=0)
    with pytest.raises(ValidationError, match="n_trials"):
        SweepConfig(base=base, grid_db=(10.0,), n_trials=2**32)
    with pytest.raises(ValidationError):
        SweepConfig(base=base, grid_db=(10.0,), alpha_values=())
    with pytest.raises(ValidationError):
        SweepConfig(base=base, grid_db=())
    # the swept power has no default: no table falls back to the base's
    with pytest.raises(TypeError):
        SweepConfig(base=base)


@pytest.mark.parametrize("alphas, grid, sweep_message, prob_message", [
    ((0.5, -1.0), (0.0, 10.0), "P_r and alpha must be nonnegative", None),
    ((0.5, math.inf), (0.0, 10.0), "alpha must be finite, got inf", None),
    ((0.5,), (0.0, math.nan), "P_r must be finite, got nan", "P_max must be finite, got nan"),
    ((0.5,), (0.0, 4000.0), "4000.0 dB overflows a float", None),
    ((0.5,), (0.0, -4000.0), None, "P_max must be positive, got 0.0"),  # P_max 0, P_r 0 is fine
])
def test_an_invalid_cell_raises_before_any_draw(monkeypatch, alphas, grid, sweep_message,
                                                prob_message):
    # each table checks its cells' scenarios before it draws a trial
    def no_draw(*args):
        raise AssertionError("drew a trial")

    monkeypatch.setattr(harness_mod, "sample_block", no_draw)
    cfg = small_cfg(alpha_values=alphas, grid_db=grid, n_trials=2)
    for run, message in ((run_sweep, sweep_message),
                         (estimate_superiority_probability, prob_message or sweep_message)):
        if message is None:
            continue
        with pytest.raises(ValidationError) as err:
            run(cfg)
        assert str(err.value) == message, run.__name__


def test_each_table_reads_one_swept_power():
    # grid_db sets the swept power of every cell; the base scenario's P_r is
    # read by no table, and its P_max only by the sweep, as a fixed axis
    sweep = run_sweep(small_cfg(n_trials=3)).to_csv()
    assert run_sweep(small_cfg(n_trials=3, P_r=1e4)).to_csv() == sweep
    assert run_sweep(small_cfg(n_trials=3, P_max=1.0)).to_csv() != sweep
    prob = estimate_superiority_probability(small_cfg(n_trials=3)).to_csv()
    for kw in (dict(P_max=1e3), dict(P_r=1e4), dict(P_max=1.0, P_r=0.0)):
        assert estimate_superiority_probability(small_cfg(n_trials=3, **kw)).to_csv() == prob


def test_invariant_suite_clean_on_random_scenarios():
    scen = ScenarioConfig(K=4, M_r=3, P_max=10.0, P_r=10.0, alpha=1.0, seed=11)
    outcomes = invariant_suite(scen, n_trials=30)
    failed = [o for o in outcomes if not o.passed]
    assert not failed, f"invariant failures: {failed}"
    assert {o.name for o in outcomes} >= {
        "aggregates_identity",
        "rate_formula_equivalence",
        "bound_ordering",
        "tdma_kkt_spread",
        "tdma_slackness",
        "tdma_rates_logdet",
        "asymptotic_predicate",
    }


@pytest.mark.parametrize("alpha, P_max, P_r", [(0.3, 10.0, 10.0), (0.0, 1e8, 0.0), (1.0, 1.0, 1e8)])
def test_check_evaluates_the_sampled_channels(monkeypatch, alpha, P_max, P_r):
    # the block check evaluates is, row for row and bit for bit, the
    # realizations sample_channel draws from trial_rng(seed, t)
    seen = []
    real = harness_mod.compute_aggregates
    monkeypatch.setattr(harness_mod, "compute_aggregates", lambda c: seen.append(c) or real(c))
    scen = ScenarioConfig(K=5, M_r=3, P_max=P_max, P_r=P_r, alpha=alpha, seed=2**32 + 7)
    assert all(o.passed for o in invariant_suite(scen, n_trials=25))
    (blk,) = seen
    for t in range(25):
        want = sample_channel(scen, trial_rng(scen.seed, t))
        for name in ("h_r", "h_d", "h", "P", "P_r"):
            got, ref = np.asarray(getattr(blk, name)[t]), np.asarray(getattr(want, name))
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (name, t)


@pytest.mark.parametrize("scale", [1.0, 1e-3])
def test_check_rejects_a_planted_wrong_allocation(monkeypatch, scale):
    # The channel of tests/test_tdma.py's PLANTED SNRs (d and hp scaled), with
    # user 1 parked by a slot optimizer that reports no failure, and the
    # rates of its parked slots: the slackness row must fail, also where the
    # absolute 1e-8 bits cannot see it.
    c = ChannelRealization(h_r=np.sqrt([[0.615], [5.02e11]]), h_d=np.sqrt([2.43e-6 * scale, 0.0]),
                           h=np.sqrt([1.14e-7 * scale]), P=[1.0, 1.0], P_r=1.0)

    drawn = []

    def planted(scen, trials):  # c in every row, at alpha = P_max = P_r = 1
        drawn.append(len(trials))
        return ChannelBlock(*(np.array([getattr(c, name)] * len(trials))
                              for name in ("h_r", "h_d", "h", "P", "P_r")))

    monkeypatch.setattr(harness_mod, "sample_block", planted)

    def parks_user_1(d, nr, hp):
        _, why = tdma_mod.block_slots(d, nr, hp)
        assert not why
        tau = np.tile([1.0, 0.0], (len(d), 1))
        return tdma_mod._checked_allocation(d.T, nr.T, hp, tau.T)[0], why

    monkeypatch.setattr(harness_mod, "block_slots", parks_user_1)
    scen = ScenarioConfig(K=2, M_r=1, P_max=1.0, P_r=1.0)
    outcomes = {o.name: o for o in invariant_suite(scen, n_trials=2)}
    assert drawn == [2]  # the check evaluated the planted channel
    assert not outcomes["tdma_slackness"].passed
    assert [name for name, o in outcomes.items() if not o.passed] == ["tdma_slackness"]


def test_check_chunks_change_no_outcome(monkeypatch):
    # trials drawn chunk by chunk, each row's worst value the largest over
    # the chunks: the outcomes of one block of every trial, bit for bit
    scen = ScenarioConfig(K=4, M_r=3, P_max=10.0, P_r=10.0, alpha=0.5, seed=11)
    drawn, real = [], harness_mod.sample_block
    monkeypatch.setattr(harness_mod, "sample_block",
                        lambda scen, trials: drawn.append(trials) or real(scen, trials))
    whole = invariant_suite(scen, n_trials=25)
    assert drawn == [range(25)]
    drawn.clear()
    monkeypatch.setattr(harness_mod, "_BLOCK_BYTES", 7 * harness_mod._check_bytes(4, 3))
    assert invariant_suite(scen, n_trials=25) == whole
    assert drawn == [range(lo, min(lo + 7, 25)) for lo in range(0, 25, 7)]


def test_check_stays_within_the_byte_budget():
    # 400 trials at K=50, M_r=8 held every trial's work at once, 117 MiB;
    # 4,000 at K=2, M_r=8 held every trial's probes at once, 14.4 MiB
    for K, n_trials in ((50, 400), (2, 4000)):
        scen = ScenarioConfig(K=K, M_r=8, seed=3)
        tracemalloc.start()
        try:
            assert all(o.passed for o in invariant_suite(scen, n_trials=n_trials))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * harness_mod._BLOCK_BYTES, (K, peak)


def test_check_rejects_slot_rates_off_their_logdet_reference(monkeypatch):
    # a slot optimizer that reports every rate 1e-9 too high, with passing
    # KKT gaps: only the log-det slot-rate row sees it
    def inflated(d, nr, hp):
        alloc, why = tdma_mod.block_slots(d, nr, hp)
        return replace(alloc, per_user_rate=alloc.per_user_rate * (1.0 + 1e-9)), why

    monkeypatch.setattr(harness_mod, "block_slots", inflated)
    scen = ScenarioConfig(K=4, M_r=3, P_max=10.0, P_r=10.0, alpha=0.5, seed=11)
    outcomes = {o.name: o for o in invariant_suite(scen, n_trials=10)}
    assert [name for name, o in outcomes.items() if not o.passed] == ["tdma_rates_logdet"]
    assert 0.99e-9 < outcomes["tdma_rates_logdet"].worst < 1.01e-9


def test_check_names_the_failing_trial(monkeypatch, capsys):
    # a slot failure planted on row 2 of the second chunk of 7 trials stops
    # the suite with trial 9, the scenario's cell and the message, as the
    # tables name a failure; the CLI exits 2 with that one stderr line
    real, calls = harness_mod.block_slots, []

    def flaky(*args):
        alloc, why = real(*args)
        calls.append(args)
        return alloc, ({**why, 2: "injected failure"} if len(calls) == 2 else why)

    monkeypatch.setattr(harness_mod, "block_slots", flaky)
    monkeypatch.setattr(harness_mod, "_BLOCK_BYTES", 7 * harness_mod._check_bytes(4, 3))
    scen = ScenarioConfig(K=4, M_r=3, P_max=10.0, P_r=10.0, alpha=0.5, seed=11)
    message = "trial 9 of cell alpha=0.5, P_max=10, P_r=10: injected failure"
    with pytest.raises(NumericalError, match=f"^{message}$"):
        invariant_suite(scen, n_trials=20)
    calls.clear()
    argv = ["check", "--users", "4", "--antennas", "3", "--alpha", "0.5", "--trials", "20",
            "--seed", "11"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"numerical failure: {message}\n" and not captured.out


def test_check_fails_a_row_with_a_nan(monkeypatch, capsys):
    # one slot rate planted as NaN: its row fails with worst NaN, as a NaN
    # compares false with every threshold, and the row prints worst=nan
    def planted(d, nr, hp):
        alloc, why = tdma_mod.block_slots(d, nr, hp)
        rates = alloc.per_user_rate.copy()
        rates[0, np.argmax(alloc.tau[0])] = np.nan
        return replace(alloc, per_user_rate=rates), why

    monkeypatch.setattr(harness_mod, "block_slots", planted)
    scen = ScenarioConfig(K=4, M_r=3, P_max=10.0, P_r=10.0, alpha=0.5, seed=11)
    outcomes = {o.name: o for o in invariant_suite(scen, n_trials=10)}
    assert [name for name, o in outcomes.items() if not o.passed] == ["tdma_rates_logdet"]
    assert math.isnan(outcomes["tdma_rates_logdet"].worst)
    argv = ["check", "--users", "4", "--antennas", "3", "--trials", "10", "--seed", "11"]
    assert main(argv) == 2  # a failed invariant
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1 and "tdma_rates_logdet" in failed[0], failed
    assert " worst=nan " in failed[0], failed


def _count_trials(counts, monkeypatch, modules, names):
    """Count the trials each named function is called on: a block counts its
    trials, a stack its matrices, over every leading axis, and a single
    matrix or realization one."""
    for mod in modules:
        for name in names:
            if hasattr(mod, name):

                def counted(*args, _real=getattr(mod, name), _name=name):
                    x = args[0]
                    counts[_name] += (len(x.P) if isinstance(x, ChannelBlock)
                                      else int(np.prod(np.shape(x)[:-2])))
                    return _real(*args)

                monkeypatch.setattr(mod, name, counted)


def test_each_trial_builds_aggregates_once(monkeypatch):
    # a sweep trial needs one aggregate build for all its cells and, in each
    # alpha, the eigenpairs of R and of R + W, two matrices of one stack; a
    # superiority trial one build and one superiority index, whose top
    # eigenvalue is one row, for all its (alpha, P_max) cells
    counts = Counter()
    _count_trials(counts, monkeypatch, (harness_mod, joint_mod, tdma_mod),
                  ("compute_aggregates", "dominant_eigenpair", "dominant_eigenvalue"))
    cfg = small_cfg(alpha_values=(0.5, 1.0), grid_db=(10.0,), n_trials=5)
    run_sweep(cfg)
    assert counts == {"compute_aggregates": 5, "dominant_eigenpair": 20}
    counts.clear()
    cfg = small_cfg(alpha_values=(0.1, 0.5, 1.0), grid_db=(0.0, 10.0, 40.0), n_trials=5)
    estimate_superiority_probability(cfg)
    assert counts == {"compute_aggregates": 5, "dominant_eigenvalue": 5}


def test_check_builds_aggregates_at_most_twice_per_trial(monkeypatch):
    # one build for the block the kernels evaluate, and one more of the same
    # block inside sum_rate_closed, the independent closed form
    counts = Counter()
    _count_trials(counts, monkeypatch, (harness_mod, joint_mod, tdma_mod), ("compute_aggregates",))
    scen = ScenarioConfig(K=10, M_r=4, seed=3)
    assert all(o.passed for o in invariant_suite(scen, n_trials=20))
    assert counts == {"compute_aggregates": 2 * 20}


def test_benchmark_trace_bindings_resolve():
    # perfbench/invoke.py traces layers by rebinding these module attributes;
    # a binding that no longer exists would break its --trace 1 split
    path = Path(__file__).resolve().parents[1] / "perfbench" / "invoke.py"
    spec = importlib.util.spec_from_file_location("perfbench_invoke", path)
    invoke = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(invoke)
    assert invoke.WRAPPED
    for module_name, attr, _, _ in invoke.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)


def test_workers_below_one_rejected():
    cfg = small_cfg(n_trials=2)
    for workers in (0, -3):
        with pytest.raises(ValidationError):
            run_sweep(cfg, workers=workers)
        with pytest.raises(ValidationError):
            estimate_superiority_probability(cfg, workers=workers)


def test_pool_size_capped_by_blocks(inline_pool, pin_cpu_count, any_run_forks):
    pin_cpu_count(64)
    cfg = small_cfg(alpha_values=(1.0,), grid_db=(10.0,), n_trials=3)
    assert run_sweep(cfg, workers=64).to_csv() == run_sweep(cfg).to_csv()
    cfg = small_cfg(n_trials=3, grid_db=(0.0,))
    assert estimate_superiority_probability(cfg, workers=64).to_csv() == (
        estimate_superiority_probability(cfg).to_csv()
    )
    # 1 cell and then 2 cells of 3 trials: one block per trial, and a pool
    # process for each block after the first, which this process computes
    assert inline_pool == [2, 5]


def test_pool_size_capped_by_cpu_count(inline_pool, pin_cpu_count, any_run_forks):
    # a pool starts all its processes at once, so a huge W must not reach it
    pin_cpu_count(3)
    cfg = small_cfg(n_trials=4)
    for run in (run_sweep, estimate_superiority_probability):
        assert run(cfg, workers=10**6).to_csv() == run(cfg, workers=1).to_csv()
    assert inline_pool == [2, 2]


def _recorded_pool_starts(monkeypatch) -> list:
    """The max_workers of each pool the harness starts through its binding."""
    starts = []
    real = harness_mod.ProcessPoolExecutor

    def counted(max_workers):
        starts.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", counted)
    return starts


def test_one_pool_per_run(monkeypatch, pin_cpu_count, any_run_forks):
    pin_cpu_count(2)
    starts = _recorded_pool_starts(monkeypatch)
    cfg = small_cfg(n_trials=3)
    for workers, expected in ((1, []), (2, [1])):
        starts.clear()
        run_sweep(cfg, workers=workers)
        assert starts == expected
        starts.clear()
        estimate_superiority_probability(cfg, workers=workers)
        assert starts == expected


@pytest.mark.parametrize("run", [run_sweep, estimate_superiority_probability])
def test_pool_starts_only_when_each_process_gets_its_work(monkeypatch, pin_cpu_count, run):
    # four cells at K = 3, M_r = 2, a trial weighing sqrt(6): below twice
    # _MIN_PROCESS_WORK a run stays in this process at any W; from there on
    # W = 2 and W = 3 start one pool of one process, as a third would get
    # too little work. The CSV is the same at any W.
    pin_cpu_count(3)
    starts = _recorded_pool_starts(monkeypatch)
    fork_from = math.ceil(2 * harness_mod._MIN_PROCESS_WORK / math.sqrt(3 * 2) / 4)
    for n_trials, pools in ((fork_from - 1, []), (fork_from, [1])):
        cfg = small_cfg(n_trials=n_trials)
        serial = run(cfg, workers=1).to_csv()
        for workers in (2, 3):
            starts.clear()
            assert run(cfg, workers=workers).to_csv() == serial, (n_trials, workers)
            assert starts == pools, (n_trials, workers)


# The real block evaluators, looked up by name, so that a stand-in is a
# partial of module-level functions and a string, which pool tasks can pickle.
_REAL_EVALUATORS = {name: getattr(harness_mod, name) for name in ("_sweep_block", "_prob_block")}


def _fail_on_weak_first_link(name, base, powers, trials, cells):
    # deterministic in the draw, so forked workers fail on the same items,
    # each with a message of its own
    values, why = _REAL_EVALUATORS[name](base, powers, trials, cells)
    link = np.abs(sample_block(base, trials).h_r[:, 0, 0])
    return values, {**why, **{i: f"weak first link {link[i]:.17g}"
                              for i in np.flatnonzero(link < 0.5).tolist()}}


def _always_fail(name, *draws):
    values, why = _REAL_EVALUATORS[name](*draws)
    return values, {**why, **dict.fromkeys(range(len(values)), "injected failure")}


_REAL_TRIAL_BLOCK = harness_mod._trial_block


def _recorded_block(spans, fail_from, evaluate, base, powers, lo, hi):
    # a sweep's draws of items from fail_from on always fail; the spans a
    # process evaluated land in its own copy of spans
    if lo >= fail_from:
        evaluate = partial(_always_fail, "_sweep_block")
    result = _REAL_TRIAL_BLOCK(evaluate, base, powers, lo, hi)
    spans.append((lo, hi))
    return result


_needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit the injected failure",
)


@_needs_fork
@pytest.mark.parametrize("n_trials", [1, 7])
def test_output_and_failures_worker_invariant(monkeypatch, capsys, tmp_path, any_run_forks,
                                              n_trials):
    # Items whose first link is below 0.5 fail: trials 5-8 of seed 123. With
    # one trial the CSV, and with seven the exit code 2, no CSV and stderr
    # naming trial 5's first cell and its message, are the same at any W;
    # at W = 2 that item is in the pool's group.
    for name in ("_sweep_block", "_prob_block"):
        monkeypatch.setattr(harness_mod, name, partial(_fail_on_weak_first_link, name))
    for command, power, cell in (("sweep", "--pr-db", "P_max=10, P_r=1"),
                                 ("prob", "--pmax-db", "P_max=1, P_r=10")):
        runs = []
        for workers in (1, 2, 3):
            out = tmp_path / f"{command}-{workers}.csv"
            code = main([command, "--seed", "123", "--alpha", "0.5", "--alpha", "1", power,
                         "0:10:10", "--trials", str(n_trials), "--workers", str(workers),
                         "--out", str(out)])
            runs.append((code, capsys.readouterr().err, out.read_text() if out.exists() else None))
        code, err, csv = runs[0]
        if n_trials == 1:
            assert code == 0 and err == "" and csv, command
        else:
            assert code == 2 and csv is None, command
            assert err.startswith(f"numerical failure: trial 5 of cell alpha=0.5, {cell}: "
                                  "weak first link 0.10"), err
        assert runs == runs[:1] * 3, command


@_needs_fork
def test_failures_raise_through_pool(monkeypatch, any_run_forks):
    monkeypatch.setattr(harness_mod, "_sweep_block", partial(_always_fail, "_sweep_block"))
    cfg = small_cfg(alpha_values=(1.0,), grid_db=(10.0,), n_trials=2)
    with pytest.raises(NumericalError,
                       match="^trial 0 of cell alpha=1, P_max=10, P_r=10: injected failure$"):
        run_sweep(cfg, workers=2)


@_needs_fork
def test_this_process_computes_the_first_group(monkeypatch, pin_cpu_count, any_run_forks):
    # at W = 2 the blocks form two contiguous groups: this process evaluates
    # the first and the pool's one process the second
    pin_cpu_count(2)
    spans = []
    monkeypatch.setattr(harness_mod, "_trial_block", partial(_recorded_block, spans, np.inf))
    base = ScenarioConfig(K=3, M_r=2, seed=4)
    powers = np.array([[0.1, 0.5, 1.0], [base.P_max] * 3, [base.P_r] * 3])
    harness_mod._run_cells(harness_mod._prob_block, base, powers, 5, 2)
    assert spans == [(0, 8)]
    # 15 items in blocks of 2: eight blocks, four to a group
    monkeypatch.setattr(harness_mod, "_BLOCK_BYTES", 2 * harness_mod._trial_bytes(3, 2))
    spans.clear()
    harness_mod._run_cells(harness_mod._prob_block, base, powers, 5, 2)
    assert spans == [(0, 2), (2, 4), (4, 6), (6, 8)]


@_needs_fork
def test_failures_in_the_pool_raise_after_the_first_group(monkeypatch, pin_cpu_count,
                                                          any_run_forks):
    # 4 cells of 3 trials in blocks [0, 6) and [6, 12): only the pool's
    # group fails, and its first item, trial 1 of the third cell, is named
    pin_cpu_count(2)
    spans = []
    monkeypatch.setattr(harness_mod, "_trial_block", partial(_recorded_block, spans, 6))
    with pytest.raises(NumericalError,
                       match="^trial 1 of cell alpha=1, P_max=10, P_r=1: injected failure$"):
        run_sweep(small_cfg(n_trials=3), workers=2)
    assert spans == [(0, 6)]
