import numpy as np
import pytest

import marcsim.harness as harness_mod
from marcsim import (
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
        P_r=10.0,
        alpha=1.0,
        seed=kw.pop("seed", 123),
    )
    defaults = dict(
        base=base,
        alpha_values=(0.5, 1.0),
        pr_grid_db=(0.0, 10.0),
        n_trials=8,
        epsilon=1e-8,
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
        assert m.joint_beats_tdma == m.asymptotic.joint_wins


def test_sweep_single_trial_equals_direct_evaluation():
    cfg = small_cfg(n_trials=1, alpha_values=(1.0,), pr_grid_db=(10.0,))
    result = run_sweep(cfg)
    from dataclasses import replace

    scen = replace(cfg.base, alpha=1.0, P_r=10.0)
    c = sample_channel(scen, trial_rng(cfg.base.seed, 0))
    direct = evaluate_realization(c, cfg.epsilon).metric_values()
    for row in result.rows:
        assert row.mean == pytest.approx(direct[row.metric], abs=1e-14)
        assert row.stderr == 0.0


def test_sweep_deterministic_and_worker_invariant():
    cfg = small_cfg()
    csv1 = run_sweep(cfg, workers=1).to_csv()
    csv2 = run_sweep(cfg, workers=1).to_csv()
    csv3 = run_sweep(cfg, workers=2).to_csv()
    assert csv1 == csv2
    assert csv1 == csv3


def test_sweep_rows_complete_and_ordered():
    cfg = small_cfg()
    result = run_sweep(cfg)
    assert len(result.rows) == 2 * 2 * len(METRICS)
    lines = result.to_csv().splitlines()
    assert lines[0] == "alpha,pr_db,metric,mean,stderr,n_trials,seed"
    keys = [tuple(line.split(",")[:3]) for line in lines[1:]]
    parsed = [(float(a), float(p), m) for a, p, m in keys]
    assert parsed == sorted(parsed)


def test_sweep_aggregated_bound_ordering():
    cfg = small_cfg(n_trials=20)
    rows = {(r.alpha, r.pr_db, r.metric): r.mean for r in run_sweep(cfg).rows}
    for alpha in cfg.alpha_values:
        for pr in cfg.pr_grid_db:
            assert rows[(alpha, pr, "joint_lower")] <= rows[(alpha, pr, "joint_up_min")] + 1e-9


def test_sweep_resamples_failed_trials(monkeypatch):
    real = harness_mod.evaluate_realization
    calls = {"n": 0}

    def flaky(c, epsilon=1e-8):
        calls["n"] += 1
        if calls["n"] == 1:
            raise NumericalError("injected failure")
        return real(c, epsilon)

    monkeypatch.setattr(harness_mod, "evaluate_realization", flaky)
    cfg = small_cfg(alpha_values=(1.0,), pr_grid_db=(10.0,), n_trials=3)
    result = run_sweep(cfg)
    assert result.resampled_trials == 1
    assert len(result.rows) == len(METRICS)


def test_no_direct_links_tdma_dominates_at_high_relay_power():
    # with absent direct links the asymptotic comparison always favors TDMA,
    # which must show in the 40 dB cell means
    base = ScenarioConfig(K=5, M_r=2, P_max=10.0, P_r=1.0, alpha=0.0, seed=31)
    cfg = SweepConfig(base=base, alpha_values=(0.0,), pr_grid_db=(40.0,), n_trials=60)
    rows = {r.metric: r.mean for r in run_sweep(cfg).rows}
    assert rows["tdma_sum_rate"] >= rows["joint_lower"]


def test_up2_mean_gap_small_at_top_of_grid():
    base = ScenarioConfig(K=5, M_r=2, P_max=10.0, P_r=1.0, alpha=1.0, seed=37)
    cfg = SweepConfig(base=base, alpha_values=(1.0,), pr_grid_db=(40.0,), n_trials=100)
    rows = {r.metric: r.mean for r in run_sweep(cfg).rows}
    assert rows["joint_up2"] - rows["joint_lower"] <= 0.05


def test_probability_zero_without_direct_links():
    base = ScenarioConfig(K=5, M_r=2, P_max=10.0, P_r=10.0, alpha=0.0, seed=7)
    cfg = SweepConfig(base=base, alpha_values=(0.0,), pr_grid_db=(0.0,),
                      n_trials=200, pmax_grid_db=(10.0,))
    result = estimate_superiority_probability(cfg)
    (row,) = result.rows
    assert row.probability == 0.0
    assert row.stderr == 0.0


def test_probability_zero_single_user():
    base = ScenarioConfig(K=1, M_r=3, P_max=10.0, P_r=10.0, alpha=1.0, seed=7)
    cfg = SweepConfig(base=base, alpha_values=(1.0,), pr_grid_db=(0.0,),
                      n_trials=200, pmax_grid_db=(0.0, 10.0))
    result = estimate_superiority_probability(cfg)
    assert all(r.probability == 0.0 for r in result.rows)


def test_probability_csv_schema_and_determinism():
    base = ScenarioConfig(K=4, M_r=2, P_max=10.0, P_r=10.0, alpha=1.0, seed=3)
    cfg = SweepConfig(base=base, alpha_values=(0.3, 1.0), pr_grid_db=(0.0,),
                      n_trials=50, pmax_grid_db=(0.0, 10.0))
    r1 = estimate_superiority_probability(cfg, workers=1)
    r2 = estimate_superiority_probability(cfg, workers=2)
    assert r1.to_csv() == r2.to_csv()
    lines = r1.to_csv().splitlines()
    assert lines[0] == "alpha,pmax_db,probability,stderr,n_trials,seed"
    assert len(lines) == 1 + 2 * 2


def test_sweep_config_validation():
    base = ScenarioConfig()
    with pytest.raises(ValidationError):
        SweepConfig(base=base, n_trials=0)
    with pytest.raises(ValidationError):
        SweepConfig(base=base, alpha_values=())
    with pytest.raises(ValidationError):
        SweepConfig(base=base, epsilon=-1.0)


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
