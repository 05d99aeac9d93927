import importlib
import importlib.util
import math
import multiprocessing
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
    sample_channel,
    trial_rng,
)
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
    assert m.metric_values()["joint_lower"] <= m.metric_values()["joint_up_min"] + 1e-9


def test_evaluate_record_invariants(make_channel):
    for seed in range(10):
        c = make_channel(seed=seed, K=4, M_r=2)
        m = evaluate_realization(c)
        vals = m.metric_values()
        assert vals["joint_lower"] <= vals["joint_up_min"] + 1e-9
        assert vals["joint_up_min"] == pytest.approx(
            min(vals["joint_up1"], vals["joint_up2"])
        )
        assert m.tdma.kkt_spread <= 1e-8
        # the eval JSON's superiority predicate is the asymptotic comparison's
        assert m.to_json_dict()["joint_beats_tdma_asymptotic"] is bool(m.asymptotic.joint_wins)


def test_sweep_single_trial_equals_direct_evaluation():
    cfg = small_cfg(n_trials=1, alpha_values=(1.0,), grid_db=(10.0,))
    result = run_sweep(cfg)
    from dataclasses import replace

    scen = replace(cfg.base, alpha=1.0, P_r=10.0)
    c = sample_channel(scen, trial_rng(cfg.base.seed, 0))
    direct = evaluate_realization(c).metric_values()
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
    cells, values, _ = harness_mod._run_table(cfg, "P_r", harness_mod._sweep_block, 1)
    for (alpha, pr_db), cell in zip(cells, values):
        for m, vals in zip(METRICS, cell.T):
            row = rows[alpha, pr_db, m]
            assert row.mean == float(vals.mean())
            assert row.stderr == float(vals.std(ddof=1) / np.sqrt(n_trials))
    probs = estimate_superiority_probability(cfg).rows
    cells, wins, _ = harness_mod._run_table(cfg, "P_max", harness_mod._prob_block, 1)
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


def test_sweep_aggregated_bound_ordering():
    cfg = small_cfg(n_trials=20)
    rows = {(r.alpha, r.pr_db, r.metric): r.mean for r in run_sweep(cfg).rows}
    for alpha in cfg.alpha_values:
        for pr in cfg.grid_db:
            assert rows[(alpha, pr, "joint_lower")] <= rows[(alpha, pr, "joint_up_min")] + 1e-9


def test_sweep_resamples_failed_trials(monkeypatch):
    real = harness_mod.block_slots
    calls = {"n": 0}

    def flaky(*args):
        calls["n"] += 1
        alloc, why = real(*args)
        if calls["n"] == 1:
            why[0] = "injected failure"
        return alloc, why

    monkeypatch.setattr(harness_mod, "block_slots", flaky)
    cfg = small_cfg(alpha_values=(1.0,), grid_db=(10.0,), n_trials=3)
    result = run_sweep(cfg)
    assert result.resampled_trials == 1
    assert len(result.rows) == len(METRICS)


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
        "asymptotic_predicate",
    }


@pytest.mark.parametrize("scale", [1.0, 1e-3])
def test_check_rejects_a_planted_wrong_allocation(monkeypatch, scale):
    # The channel of tests/test_tdma.py's PLANTED SNRs (d and hp scaled), with
    # user 1 parked by a slot optimizer that reports no failure: the
    # slackness row must fail, also where the absolute 1e-8 bits cannot see it.
    c = ChannelRealization(h_r=np.sqrt([[0.615], [5.02e11]]), h_d=np.sqrt([2.43e-6 * scale, 0.0]),
                           h=np.sqrt([1.14e-7 * scale]), P=[1.0, 1.0], P_r=1.0)
    monkeypatch.setattr(harness_mod, "sample_channel", lambda scen, rng: c)

    def parks_user_1(d, nr, hp):
        alloc, why = tdma_mod.block_slots(d, nr, hp)
        assert not any(why)
        return replace(alloc, tau=np.tile([1.0, 0.0], (len(d), 1))), why

    monkeypatch.setattr(harness_mod, "block_slots", parks_user_1)
    outcomes = {o.name: o for o in invariant_suite(ScenarioConfig(K=2, M_r=1), n_trials=2)}
    assert not outcomes["tdma_slackness"].passed
    assert [name for name, o in outcomes.items() if not o.passed] == ["tdma_slackness"]


def _count_trials(counts, monkeypatch, modules, names):
    """Count the trials each named function is called on: a stack or a block
    counts its leading axis, a single matrix or realization one."""
    for mod in modules:
        for name in names:
            if hasattr(mod, name):

                def counted(*args, _real=getattr(mod, name), _name=name):
                    x = args[0]
                    stacked = isinstance(x, ChannelBlock) or getattr(x, "ndim", 0) == 3
                    counts[_name] += len(x.P) if isinstance(x, ChannelBlock) else (
                        len(x) if stacked else 1)
                    return _real(*args)

                monkeypatch.setattr(mod, name, counted)


def test_each_trial_builds_aggregates_once(monkeypatch):
    # a sweep trial needs one aggregate build and the eigenpairs of R and
    # R + W; a superiority trial one build and the top eigenvalue of R + W
    counts = Counter()
    _count_trials(counts, monkeypatch, (harness_mod, joint_mod, tdma_mod),
                  ("compute_aggregates", "dominant_eigenpair", "dominant_eigenvalue"))
    cfg = small_cfg(alpha_values=(1.0,), grid_db=(10.0,), n_trials=5)
    assert run_sweep(cfg).resampled_trials == 0
    assert counts == {"compute_aggregates": 5, "dominant_eigenpair": 10}
    counts.clear()
    cfg = small_cfg(alpha_values=(1.0,), grid_db=(10.0,), n_trials=5)
    assert estimate_superiority_probability(cfg).resampled_trials == 0
    assert counts == {"compute_aggregates": 5, "dominant_eigenvalue": 5}


def test_check_builds_aggregates_at_most_twice_per_trial(monkeypatch):
    # one build for the block the kernels evaluate, and one per trial inside
    # sum_rate_closed, the independent closed form
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


def _fail_on_weak_first_link(name, blk):
    # deterministic in the draw, so forked workers resample the same trials
    values, why = _REAL_EVALUATORS[name](blk)
    return values, np.where(np.abs(blk.h_r[:, 0, 0]) < 1.0, "injected failure", why)


def _always_fail(name, blk):
    values, why = _REAL_EVALUATORS[name](blk)
    return values, np.full(len(why), "injected failure")


_REAL_TRIAL_BLOCK = harness_mod._trial_block


def _recorded_block(spans, fail_from, evaluate, scens, n_trials, lo, hi):
    # a sweep's draws of items from fail_from on always fail; the spans a
    # process evaluated land in its own copy of spans
    if lo >= fail_from:
        evaluate = partial(_always_fail, "_sweep_block")
    result = _REAL_TRIAL_BLOCK(evaluate, scens, n_trials, lo, hi)
    spans.append((lo, hi))
    return result


_needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit the injected failure",
)


@_needs_fork
@pytest.mark.parametrize("n_trials", [1, 7])
def test_output_and_resamples_worker_invariant(monkeypatch, any_run_forks, n_trials):
    for name in ("_sweep_block", "_prob_block"):
        monkeypatch.setattr(harness_mod, name, partial(_fail_on_weak_first_link, name))
    cfg = small_cfg(n_trials=n_trials)
    for run in (run_sweep, estimate_superiority_probability):
        results = [run(cfg, workers=w) for w in (1, 2, 3)]
        assert results[0].resampled_trials > 0
        for r in results[1:]:
            assert r.to_csv() == results[0].to_csv()
            assert r.resampled_trials == results[0].resampled_trials


@_needs_fork
def test_exhausted_resamples_raise_through_pool(monkeypatch, any_run_forks):
    monkeypatch.setattr(harness_mod, "_sweep_block", partial(_always_fail, "_sweep_block"))
    cfg = small_cfg(alpha_values=(1.0,), grid_db=(10.0,), n_trials=2)
    with pytest.raises(NumericalError, match="after 100 resamples"):
        run_sweep(cfg, workers=2)


@_needs_fork
def test_this_process_computes_the_first_group(monkeypatch, pin_cpu_count, any_run_forks):
    # at W = 2 the blocks form two contiguous groups: this process evaluates
    # the first and the pool's one process the second
    pin_cpu_count(2)
    spans = []
    monkeypatch.setattr(harness_mod, "_trial_block", partial(_recorded_block, spans, np.inf))
    scens = [ScenarioConfig(K=3, M_r=2, alpha=a, seed=4) for a in (0.1, 0.5, 1.0)]
    harness_mod._run_cells(harness_mod._prob_block, scens, 5, 2)
    assert spans == [(0, 8)]
    # 15 items in blocks of 2: eight blocks, four to a group
    monkeypatch.setattr(harness_mod, "_BLOCK_BYTES", 2 * harness_mod._trial_bytes(3, 2))
    spans.clear()
    harness_mod._run_cells(harness_mod._prob_block, scens, 5, 2)
    assert spans == [(0, 2), (2, 4), (4, 6), (6, 8)]


@_needs_fork
def test_exhausted_resamples_in_the_pool_raise_after_the_first_group(monkeypatch, pin_cpu_count,
                                                                     any_run_forks):
    # 4 cells of 3 trials in blocks [0, 6) and [6, 12): only the pool's group fails
    pin_cpu_count(2)
    spans = []
    monkeypatch.setattr(harness_mod, "_trial_block", partial(_recorded_block, spans, 6))
    with pytest.raises(NumericalError, match="after 100 resamples"):
        run_sweep(small_cfg(n_trials=3), workers=2)
    assert spans == [(0, 6)]
