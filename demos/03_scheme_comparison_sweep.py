"""Small Monte Carlo sweep comparing joint relaying with optimally slotted
TDMA across relay powers and direct-link strengths (a reduced version of the
full comparison; raise n_trials for smoother curves).
"""

from marcsim import ScenarioConfig, SweepConfig, run_sweep

cfg = SweepConfig(
    base=ScenarioConfig(K=10, M_r=4, P_max=10.0, P_r=1.0, alpha=1.0, seed=2),
    grid_db=(0.0, 10.0, 20.0, 30.0, 40.0),  # the swept relay power P_r
    alpha_values=(0.1, 0.3, 1.0),
    n_trials=150,
)
result = run_sweep(cfg)
rows = {(r.alpha, r.pr_db, r.metric): r for r in result.rows}

print("mean sum rates (bits/use), K=10, M_r=4, P_max = 10 dB over the noise,"
      f" {cfg.n_trials} trials:\n")
print("alpha  P_r[dB]   TDMA     joint lower  min upper   winner")
for alpha in cfg.alpha_values:
    for pr in cfg.grid_db:
        tdma = rows[(alpha, pr, "tdma_sum_rate")].mean
        low = rows[(alpha, pr, "joint_lower")].mean
        up = rows[(alpha, pr, "joint_up_min")].mean
        winner = "joint" if low > tdma else "tdma"
        print(f"{alpha:5.1f}  {pr:7.0f}  {tdma:7.3f}  {low:11.3f}  {up:9.3f}   {winner}")
    print()

print("With weak direct links (alpha=0.1) TDMA overtakes joint relaying at")
print("high relay power; with strong ones (alpha=1) joint relaying wins")
print("everywhere, and the lower/upper bounds bracket it tightly.")
print("\nsame sweep as CSV via the CLI:")
print("  marcsim sweep --users 10 --antennas 4 --alpha 0.1 --alpha 0.3 "
      "--alpha 1.0 \\\n    --pr-db 0:40:10 --pmax-db 10 --trials 1000 --seed 2 "
      "--out sweep.csv")
