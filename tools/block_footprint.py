"""Measure the memory and the time of a trial block against its size, to set
the block budget (harness._BLOCK_BYTES) and the per-trial footprint it is
spent in (harness._trial_bytes).

    python3 tools/block_footprint.py [--reps 5] [--sizes 10,20,50,...] [--grid]

Runs in this interpreter, with one BLAS thread. For each shape of the three
benchmark workloads, at each block size N, one ``harness._trial_block`` call
on trials 0..N-1 of the workload's first cell is traced with
``tracemalloc``: its peak above the memory held before the call, over N, is
the per-trial peak. The same block is then timed untraced, ``--reps`` times;
the median over N is the time per trial, which falls as a block's fixed cost
is shared by more trials, and the minor page faults of those calls
(``getrusage``'s ``ru_minflt``) over their trials are the faults per trial:
the pages a block's arrays take fresh from the system. The row "budget" is
the block the budget gives a run of that shape.

With ``--grid`` it then prints, for K in 1-50 and M_r in 1-8 and both
tables, the traced per-trial peak of a block of the budget's size over
``_trial_bytes(K, M_r)``, and the largest traced block peak in MB.
"""

from __future__ import annotations

import os

ONE_BLAS_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS")}
os.environ.update(ONE_BLAS_THREAD)  # before numpy is first imported

import argparse  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from marcsim import ScenarioConfig, harness  # noqa: E402

# name: (table, the first cell of the benchmark workload's command)
SHAPES = {
    "crit8": ("_sweep_block", ScenarioConfig(K=10, M_r=4, alpha=0.1, P_max=10.0, P_r=1.0, seed=8)),
    "k50m8": ("_prob_block", ScenarioConfig(K=50, M_r=8, alpha=0.1, P_max=1.0, seed=9)),
    "small": ("_sweep_block", ScenarioConfig(K=3, M_r=2, alpha=0.5, P_max=10.0, P_r=1.0, seed=10)),
}


def traced_peak(table: str, scen: ScenarioConfig, n: int) -> int:
    """The traced peak of one block of n trials, in bytes above the memory
    held before it."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        harness._trial_block(getattr(harness, table), [scen], n, 0, n)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def timed(table: str, scen: ScenarioConfig, n: int, reps: int) -> tuple[float, float]:
    """The median time per trial of reps untraced calls on a block of n
    trials, in us, and the minor page faults per trial over all of them."""
    walls = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(reps):
        t = time.perf_counter()
        harness._trial_block(getattr(harness, table), [scen], n, 0, n)
        walls.append(time.perf_counter() - t)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return 1e6 * statistics.median(walls) / n, faults / (reps * n)


def budget_size(scen: ScenarioConfig) -> int:
    return max(1, harness._BLOCK_BYTES // harness._trial_bytes(scen.K, scen.M_r))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--reps", type=int, default=5, help="timed calls per block size")
    p.add_argument("--sizes", default="10,20,50,100,200,400,800,1600",
                   help="comma-separated block sizes, in trials")
    p.add_argument("--grid", action="store_true", help="also print the fit over K and M_r")
    args = p.parse_args(argv)
    print(f"_BLOCK_BYTES = {harness._BLOCK_BYTES}, one BLAS thread, "
          f"median of {args.reps} calls per size")
    print("| shape | K, M_r | trials per block | peak B per trial | _trial_bytes "
          "| block peak MB | us per trial | minor faults per trial |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for name, (table, scen) in SHAPES.items():
        fit = harness._trial_bytes(scen.K, scen.M_r)
        timed(table, scen, 2, 1)  # first use: imports and caches
        sizes = sorted({*map(int, args.sizes.split(",")), budget_size(scen)})
        for n in sizes:
            peak = traced_peak(table, scen, n)
            label = f"{n} (budget)" if n == budget_size(scen) else str(n)
            us, faults = timed(table, scen, n, args.reps)
            print(f"| {name} | {scen.K}, {scen.M_r} | {label} | {peak / n:,.0f} | {fit:,} | "
                  f"{peak / 1e6:.2f} | {us:.1f} | {faults:.2f} |", flush=True)
    if args.grid:
        largest = 0
        print("\npeak per trial / _trial_bytes at the budget's block size (sweep, prob)")
        print("| K \\ M_r | 1 | 2 | 4 | 8 |")
        print("| --- | --- | --- | --- | --- |")
        for K in (1, 2, 3, 5, 10, 20, 50):
            cells = []
            for M_r in (1, 2, 4, 8):
                scen = ScenarioConfig(K=K, M_r=M_r, P_max=10.0, P_r=10.0, seed=3)
                n, fit = budget_size(scen), harness._trial_bytes(K, M_r)
                ratios = []
                for table in ("_sweep_block", "_prob_block"):
                    peak = traced_peak(table, scen, n)
                    largest = max(largest, peak)
                    ratios.append(f"{peak / (n * fit):.2f}")
                cells.append(", ".join(ratios))
            print(f"| {K} | {' | '.join(cells)} |", flush=True)
        print(f"\nlargest block peak {largest / 1e6:.2f} MB "
              f"({largest / harness._BLOCK_BYTES:.2f} x _BLOCK_BYTES)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
