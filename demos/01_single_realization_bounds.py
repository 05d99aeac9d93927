"""Walk through one channel realization: aggregates, sum-rate formulas and
the joint-relaying bounds, including how the bounds tighten as the relay
power budget grows.
"""

from dataclasses import replace

import numpy as np

from marcsim import (
    ScenarioConfig,
    compute_aggregates,
    lower_bound,
    sample_channel,
    sum_rate_closed,
    sum_rate_logdet,
    trial_rng,
)

cfg = ScenarioConfig(K=4, M_r=3, P_max=10.0, P_r=10.0, alpha=1.0, seed=7)
c = sample_channel(cfg, trial_rng(cfg.seed, 0))

print(f"One realization with K={c.K} users and M_r={c.M_r} relay antennas")
print(f"per-user powers P = {np.round(c.P, 3)}")

agg = compute_aggregates(c)
print(f"\ndirect-link SNR sum s = {agg.s:.4f}")
print(f"relay covariance R has trace {np.trace(agg.R).real:.3f}")
print(f"identity check: max|s*R - T - W| = {np.max(np.abs(agg.s*agg.R - agg.T - agg.W)):.2e}")

# any relay matrix has the same rate under both formulas
rng = np.random.default_rng(1)
F = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
print(f"\nrandom F: log-det rate  {sum_rate_logdet(F, c):.6f} bits/use")
print(f"          closed form   {sum_rate_closed(F, c):.6f} bits/use")

b = lower_bound(c)
print("\njoint-relaying bounds at P_r = 10:")
print(f"  upper bound 1 (cross term dropped)   {b.r_up1:.4f}")
print(f"  upper bound 2 (unbounded relay power) {b.r_up2:.4f}")
print(f"  achievable rank-one beamformer        {b.r_lower:.4f}  (gamma={b.gamma:.3f})")
print(f"  relay power spent: {b.f_lower.tx_power:.6f} of budget {c.P_r}")

print("\nbounds vs relay power budget:")
print("  P_r      lower     min upper   up2-lower")
for pr in (0.1, 1.0, 10.0, 100.0, 1e4, 1e8):
    bb = lower_bound(replace(c, P_r=pr))
    print(
        f"  {pr:<8g} {bb.r_lower:8.4f}  {min(bb.r_up1, bb.r_up2):9.4f}"
        f"  {bb.r_up2 - bb.r_lower:10.2e}"
    )
print("the second upper bound becomes tight as P_r grows")
