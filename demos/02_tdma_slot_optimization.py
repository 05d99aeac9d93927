"""Optimize TDMA slot durations for a small system and show that the
equalized marginal rates are the optimality certificate, comparing against a
brute-force scan of the simplex.
"""

import numpy as np

from marcsim import (
    ScenarioConfig,
    optimize_slots,
    sample_channel,
    trial_rng,
    user_rate,
    user_rate_derivative,
)

cfg = ScenarioConfig(K=3, M_r=2, P_max=10.0, P_r=10.0, alpha=1.0, seed=21)
c = sample_channel(cfg, trial_rng(cfg.seed, 4))

print("Per-user stand-alone rates (whole frame each):")
for k in range(c.K):
    print(f"  user {k}: {user_rate(c, k, 1.0):.4f} bits/use  (P={c.P[k]:.2f})")

alloc = optimize_slots(c)  # fails if the KKT spread exceeds 1e-8 bits
print(f"\noptimized slot durations tau = {np.round(alloc.tau, 6)}")
print(f"per-user slotted rates        = {np.round(alloc.per_user_rate, 4)}")
print(f"sum rate                      = {alloc.sum_rate:.6f} bits/use")
print(f"KKT spread (max-min marginal) = {alloc.kkt_spread:.2e}")

print("\nmarginal rates dR/dtau at the solution (equal for active users):")
for k in range(c.K):
    if alloc.tau[k] > 0:
        print(f"  user {k}: {user_rate_derivative(c, k, float(alloc.tau[k])):.8f}")

# brute-force cross-check on the 2-simplex
step = 2e-3
t = np.arange(0.0, 1.0 + step / 2, step)
T1, T2 = np.meshgrid(t, t, indexing="ij")
mask = T1 + T2 <= 1.0
T1, T2 = T1[mask], T2[mask]
T3 = np.clip(1.0 - T1 - T2, 0.0, 1.0)
total = user_rate(c, 0, T1) + user_rate(c, 1, T2) + user_rate(c, 2, T3)
i = int(np.argmax(total))
print(f"\nbrute-force grid (step {step:g}): best {total[i]:.6f} at "
      f"tau=({T1[i]:.3f}, {T2[i]:.3f}, {T3[i]:.3f})")
print(f"water-filling optimizer beats/matches it by {alloc.sum_rate - total[i]:+.2e} bits")
