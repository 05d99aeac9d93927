"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Expected wall time is a
few minutes; the stated per-criterion runtime limits are asserted.
"""

import time

import numpy as np

from marcsim import (
    ChannelRealization,
    ScenarioConfig,
    SweepConfig,
    asymptotic_allocation,
    compute_aggregates,
    estimate_superiority_probability,
    lower_bound,
    optimize_slots,
    run_sweep,
    sample_channel,
    sum_rate_closed,
    sum_rate_logdet,
    trial_rng,
    user_rate,
    user_rate_derivative,
)
from marcsim.joint import block_bounds
from marcsim.tdma import block_asymptotic

from conftest import scaled_block

K_MIX = (1, 2, 3, 5, 10)
MR_MIX = (1, 2, 4)


def _cfg(seed, K, M_r, alpha=1.0, P_max=10.0, P_r=10.0):
    return ScenarioConfig(K=K, M_r=M_r, P_max=P_max, P_r=P_r, alpha=alpha, seed=seed)


def _mk(seed, K, M_r, alpha=1.0, P_max=10.0, P_r=10.0, trial=0):
    return sample_channel(_cfg(seed, K, M_r, alpha, P_max, P_r), trial_rng(seed, trial))


def _block_bounds(cfgs, trials):
    """The bounds of the draws _mk makes for (scenario, trial) pairs of one
    (K, M_r), evaluated as one block. No draw may fail a check, as
    lower_bound raises on any failure."""
    blk = scaled_block(cfgs, trials)
    b, _, why = block_bounds(blk.P_r, compute_aggregates(blk))
    assert not why, why
    return b


def _block_asymptotic(cfg, trials):
    """The asymptotic comparison of the draws _mk makes of cfg for the given
    trials, evaluated as one block."""
    return block_asymptotic(compute_aggregates(scaled_block([cfg] * len(trials), trials)))


def _report(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} -- {detail}"
    print(line)
    assert ok, line


def test_criterion_01_formula_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    n = 10_000
    max_rate_gap = 0.0
    max_identity_gap = 0.0
    for r in range(15):  # the draws i = r mod 15 share (K, M_r)
        trials = range(r, n, 15)
        K, M_r = K_MIX[r % 5], MR_MIX[r % 3]
        blk = scaled_block([_cfg(1, K, M_r)] * len(trials), trials)
        agg = compute_aggregates(blk)
        scale = np.maximum(1.0, np.maximum(np.abs(agg.W).max(axis=(1, 2)),
                                           np.abs(agg.T).max(axis=(1, 2))))
        gap = np.abs(agg.s[:, None, None] * agg.R - agg.T - agg.W).max(axis=(1, 2)) / scale
        max_identity_gap = max(max_identity_gap, gap.max())
        F = rng.standard_normal((len(trials), M_r, M_r)) + 1j * rng.standard_normal(
            (len(trials), M_r, M_r))
        r1, r2 = sum_rate_logdet(F, blk), sum_rate_closed(F, blk)
        max_rate_gap = max(max_rate_gap, (np.abs(r1 - r2) / np.maximum(1.0, r1)).max())
    elapsed = time.monotonic() - t0
    ok = max_rate_gap <= 1e-10 and max_identity_gap <= 1e-10 and elapsed < 30.0
    _report(
        1,
        "formula equivalence",
        ok,
        f"max rate gap {max_rate_gap:.2e}, max identity gap {max_identity_gap:.2e} "
        f"(n={n}, {elapsed:.1f}s < 30s)",
    )


def test_criterion_02_bound_ordering():
    n = 10_000
    pr_mix = (0.0, 1.0, 10.0, 1000.0)
    alpha_mix = (0.0, 0.1, 1.0)
    excess = []
    for r in range(15):  # the draws i = r mod 15 share (K, M_r)
        trials = range(r, n, 15)
        b = _block_bounds([_cfg(2, K_MIX[i % 5], MR_MIX[i % 3], alpha=alpha_mix[i % 3],
                                P_r=pr_mix[i % 4]) for i in trials], trials)
        excess.append(b.r_lower - np.minimum(b.r_up1, b.r_up2))
    excess = np.concatenate(excess)
    violations = int(np.sum(excess > 1e-9))
    _report(
        2,
        "bound ordering",
        violations == 0,
        f"{violations} violations beyond 1e-9 over {n} draws (worst excess {excess.max():.2e})",
    )


def test_criterion_03_high_relay_power_tightness():
    n = 1000
    pr = 10.0**8  # 80 dB over the unit noise
    b = _block_bounds([_cfg(3, 10, 4, P_r=pr)] * n, range(n))
    worst = max(0.0, float(np.max(b.r_up2 - b.r_lower)))
    _report(
        3,
        "80 dB tightness of the power-unconstrained bound",
        worst <= 1e-4,
        f"max |up2 - lower| = {worst:.2e} <= 1e-4 over {n} instances",
    )


def _grid_points(c, t1, t2=None):
    """Sum rate on the grid of slots t1 (K=2), or on the square t1 x t2 of the
    first two users' slots (K=3), where points off the simplex read -inf."""
    if c.K == 2:
        return user_rate(c, 0, t1) + user_rate(c, 1, 1.0 - t1)
    t3 = np.clip(1.0 - t1[:, None] - t2[None, :], 0.0, 1.0)
    # users 0 and 1 each depend on one axis: rate them there and broadcast
    tot = (user_rate(c, 0, t1)[:, None] + user_rate(c, 1, t2)[None, :]) + user_rate(c, 2, t3)
    tot[t1[:, None] + t2[None, :] > 1.0 + 1e-12] = -np.inf
    return tot


def _grid_search(c, step=1e-3):
    """Maximum sum rate on a coarse brute-force simplex grid."""
    t = np.arange(0.0, 1.0 + step / 2, step)
    return float(_grid_points(c, t, t).max())


def _refined_grid_search(c, center, width=2e-3, step=1e-6):
    """Brute-force re-scan of a small simplex patch around `center`."""
    axes = [
        np.clip(np.arange(ci - width, ci + width + step / 2, step), 0.0, 1.0)
        for ci in np.atleast_1d(center)[: max(1, c.K - 1)]
    ]
    return float(_grid_points(c, *axes).max())


def test_criterion_04_slot_optimizer_vs_brute_force():
    # A correct optimizer can sit ABOVE the step-1e-3 grid maximum when an
    # optimal slot is shorter than the step, so the coarse-grid check is
    # one-sided (alg >= grid - 1e-4); a locally refined brute force
    # (step 1e-6) then confirms two-sided agreement.
    t0 = time.monotonic()
    eps = 1e-8
    worst_below_grid = 0.0
    worst_refined_gap = 0.0
    worst_spread = 0.0
    n_per_k = 100
    for K in (2, 3):
        for i in range(n_per_k):
            c = _mk(seed=4, K=K, M_r=MR_MIX[i % 3], trial=i)
            alloc = optimize_slots(c)
            coarse = _grid_search(c)
            worst_below_grid = max(worst_below_grid, coarse - alloc.sum_rate)
            center = alloc.tau[: K - 1] if K > 1 else alloc.tau
            refined = max(coarse, _refined_grid_search(c, center, step=2e-6))
            worst_refined_gap = max(worst_refined_gap, abs(alloc.sum_rate - refined))
            worst_spread = max(worst_spread, alloc.kkt_spread)
    elapsed = time.monotonic() - t0
    ok = (
        worst_below_grid <= 1e-4
        and worst_refined_gap <= 1e-4
        and worst_spread <= eps
        and elapsed < 120.0
    )
    _report(
        4,
        "iterative slot optimizer matches simplex grid search",
        ok,
        f"max (grid - alg) = {worst_below_grid:.2e} <= 1e-4, max |alg - refined "
        f"grid| = {worst_refined_gap:.2e} <= 1e-4, max KKT spread "
        f"{worst_spread:.2e} <= {eps} (200 instances, {elapsed:.1f}s < 120s)",
    )


def test_criterion_05_derivative_matches_finite_differences():
    # 1e-5 relative with a 1e-14 absolute floor: the central-difference
    # oracle at step 1e-6*tau carries ~1e-16 cancellation noise, so the
    # relative test is only posed for derivatives the oracle can resolve
    # (everything above ~1e-9 bits per unit time).
    rng = np.random.default_rng(5)
    n = 10_000
    worst = 0.0
    floor = 1e-14
    for i in range(n):
        K = K_MIX[i % 5]
        c = _mk(seed=5, K=K, M_r=MR_MIX[i % 3], alpha=(0.1, 0.5, 1.0)[i % 3], trial=i)
        k = int(rng.integers(0, K))
        tau = float(rng.uniform(1e-3, 0.999))
        h = 1e-6 * tau
        fd = (user_rate(c, k, tau + h) - user_rate(c, k, tau - h)) / (2 * h)
        an = user_rate_derivative(c, k, tau)
        excess = abs(an - fd) - floor
        worst = max(worst, excess / max(abs(fd), abs(an), 1e-12))
    _report(
        5,
        "analytic slot derivative vs central differences",
        worst <= 1e-5,
        f"max relative deviation {worst:.2e} <= 1e-5 over {n} (instance, tau) "
        f"pairs (abs floor {floor:g})",
    )


def test_criterion_06_asymptotic_superiority_consistency():
    n = 10_000
    disagreements = false_at_alpha0 = 0
    for r in range(15):  # the draws i = r mod 15 share (K, M_r) and alpha
        trials = range(r, n, 15)
        K, M_r = K_MIX[r % 5], MR_MIX[r % 3]
        res = _block_asymptotic(_cfg(6, K, M_r, alpha=(0.1, 0.3, 1.0)[r % 3]), trials)
        gap = res.joint_rate_inf - res.rate_inf
        # |gap| <= 1e-9 counts as "no strict winner" and must read False
        disagreements += int(np.sum(res.joint_wins != (gap > 1e-9)))
        false_at_alpha0 += int(np.sum(~_block_asymptotic(_cfg(60, K, M_r, alpha=0.0),
                                                          trials).joint_wins))

    worst_tau = worst_spread = 0.0
    pr = 10.0**8
    for i in range(100):
        c = _mk(seed=61, K=(2, 3, 5)[i % 3], M_r=4, P_r=pr, trial=i)
        alloc = optimize_slots(c)
        res = asymptotic_allocation(c)
        worst_tau = max(worst_tau, float(np.max(np.abs(alloc.tau - res.tau_inf))))
        worst_spread = max(worst_spread, alloc.kkt_spread)

    ok = (disagreements == 0 and false_at_alpha0 == n and worst_tau <= 1e-3
          and worst_spread <= 1e-10)
    _report(
        6,
        "asymptotic superiority test consistency",
        ok,
        f"{disagreements} predicate/rate disagreements over {n}; predicate false "
        f"in {false_at_alpha0}/{n} draws at alpha=0; max |tau - tau_inf| at 80 dB "
        f"= {worst_tau:.2e} <= 1e-3 with KKT spread {worst_spread:.2e} <= 1e-10",
    )


def test_criterion_07_single_user_schemes_coincide():
    n = 1000
    worst = 0.0
    for i in range(n):
        c = _mk(seed=7, K=1, M_r=MR_MIX[i % 3], trial=i)
        gap = abs(user_rate(c, 0, 1.0) - lower_bound(c).r_lower)
        worst = max(worst, gap)
    ones = ChannelRealization(h_r=[[1.0]], h_d=[1.0], h=[1.0], P=[1.0], P_r=1.0)
    hand = abs(user_rate(ones, 0, 1.0) - np.log2(7 / 3))
    hand_joint = abs(lower_bound(ones).r_lower - np.log2(7 / 3))
    ok = worst <= 1e-9 and hand <= 1e-12 and hand_joint <= 1e-12
    _report(
        7,
        "single-user TDMA/joint coincidence",
        ok,
        f"max |tdma - joint_lower| = {worst:.2e} <= 1e-9 over {n} draws; "
        f"all-ones case off log2(7/3) by {max(hand, hand_joint):.2e}",
    )


_PR_GRID = (0.0, 10.0, 20.0, 30.0, 40.0)
_criterion8_cache: dict = {}


def _criterion8_rows():
    """Shared 1000-trial sweep for criteria 8a-8c (deterministic, cached)."""
    if "rows" not in _criterion8_cache:
        t0 = time.monotonic()
        base = ScenarioConfig(K=10, M_r=4, P_max=10.0, P_r=1.0, alpha=1.0, seed=8)
        cfg = SweepConfig(
            base=base,
            grid_db=_PR_GRID,
            alpha_values=(0.1, 1.0),
            n_trials=1000,
        )
        rows = {(r.alpha, r.pr_db, r.metric): r.mean for r in run_sweep(cfg).rows}
        _criterion8_cache["rows"] = rows
        _criterion8_cache["elapsed"] = time.monotonic() - t0
    return _criterion8_cache["rows"], _criterion8_cache["elapsed"]


def test_criterion_08a_joint_beats_tdma_at_strong_direct_links():
    rows, elapsed = _criterion8_rows()
    margins = {
        pr: rows[(1.0, pr, "joint_lower")] - rows[(1.0, pr, "tdma_sum_rate")]
        for pr in _PR_GRID
    }
    ok = all(m > 0 for m in margins.values()) and elapsed < 600.0
    _report(
        8,
        "(a) joint lower bound above TDMA at alpha=1 on the whole grid",
        ok,
        "margins " + ", ".join(f"{pr:g}dB:+{m:.2f}" for pr, m in margins.items())
        + f" bits (sweep {elapsed:.0f}s < 600s)",
    )


def test_criterion_08b_tdma_wins_at_weak_direct_links_high_power():
    rows, _ = _criterion8_rows()
    margin = rows[(0.1, 40.0, "tdma_sum_rate")] - rows[(0.1, 40.0, "joint_lower")]
    _report(
        8,
        "(b) TDMA above joint lower bound at alpha=0.1, 40 dB",
        margin > 0,
        f"margin +{margin:.3f} bits",
    )


def test_criterion_08c_bound_gap_small_everywhere():
    rows, _ = _criterion8_rows()
    gaps = {
        (a, pr): rows[(a, pr, "joint_up_min")] - rows[(a, pr, "joint_lower")]
        for a in (0.1, 1.0)
        for pr in _PR_GRID
    }
    max_gap = max(gaps.values())
    gap_table = ", ".join(
        f"(a={a:g},{pr:g}dB)={g:.3f}" for (a, pr), g in sorted(gaps.items())
    )
    _report(
        8,
        "(c) mean gap joint lower vs min upper bound <= 0.1 bits per cell",
        max_gap <= 0.1,
        f"max mean gap {max_gap:.3f} [{gap_table}]",
    )


def test_criterion_09_superiority_probability_trends():
    base = ScenarioConfig(K=10, M_r=4, P_max=10.0, P_r=1.0, alpha=1.0, seed=9)
    cfg = SweepConfig(
        base=base,
        grid_db=(0.0, 10.0, 20.0),
        alpha_values=(0.1, 0.3, 1.0),
        n_trials=1000,
    )
    rows = {
        (r.alpha, r.pmax_db): (r.probability, r.stderr)
        for r in estimate_superiority_probability(cfg).rows
    }
    monotone = True
    detail = []
    for pmax in (0.0, 10.0, 20.0):
        ps = [rows[(a, pmax)] for a in (0.1, 0.3, 1.0)]
        detail.append(f"pmax={pmax:g}dB: " + "/".join(f"{p:.3f}" for p, _ in ps))
        for (p1, s1), (p2, s2) in zip(ps, ps[1:]):
            monotone &= p2 >= p1 - 3 * np.hypot(s1, s2)
    for a in (0.1, 0.3, 1.0):
        ps = [rows[(a, pm)] for pm in (0.0, 10.0, 20.0)]
        for (p1, s1), (p2, s2) in zip(ps, ps[1:]):
            monotone &= p2 >= p1 - 3 * np.hypot(s1, s2)
    _report(
        9,
        "superiority probability grows with alpha and P_max",
        monotone,
        "; ".join(detail),
    )


def test_criterion_10_sweep_determinism(any_run_forks):
    base = ScenarioConfig(K=3, M_r=2, P_max=10.0, P_r=1.0, alpha=1.0, seed=10)
    cfg = SweepConfig(
        base=base,
        grid_db=(0.0, 10.0),
        alpha_values=(0.5, 1.0),
        n_trials=50,
    )
    csvs = [run_sweep(cfg, workers=w).to_csv() for w in (1, 2, 3)]
    csvs.append(run_sweep(cfg, workers=1).to_csv())
    identical = all(s == csvs[0] for s in csvs[1:])
    _report(
        10,
        "byte-identical sweeps for any worker count",
        identical,
        f"{len(csvs)} runs (workers 1/2/3/1) produced "
        f"{'identical' if identical else 'DIFFERING'} CSV bytes",
    )
