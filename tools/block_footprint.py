"""Measure the memory and the time of a trial block against its size, to set
the block budget (harness._BLOCK_BYTES) and the per-trial footprints it is
spent in (harness._trial_bytes for the tables, harness._check_bytes for the
invariant suite's chunks).

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

With ``--grid`` it then prints, for K in 1-50 and M_r in 1-8, the traced
per-trial peak of a block of the budget's size over its footprint: for both
tables a block over ``_trial_bytes(K, M_r)``, and for ``marcsim check`` an
``invariant_suite`` call on one chunk's trials over ``_check_bytes(K, M_r)``;
and the largest traced block peak in MB.
"""

from __future__ import annotations

import os

from fresh_main import ONE_BLAS_THREAD

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

import numpy as np  # noqa: E402

from marcsim import ScenarioConfig, harness  # noqa: E402

# name: (table, the first cell of the benchmark workload's command)
SHAPES = {
    "crit8": ("_sweep_block", ScenarioConfig(K=10, M_r=4, alpha=0.1, P_max=10.0, P_r=1.0, seed=8)),
    "k50m8": ("_prob_block", ScenarioConfig(K=50, M_r=8, alpha=0.1, P_max=1.0, seed=9)),
    "small": ("_sweep_block", ScenarioConfig(K=3, M_r=2, alpha=0.5, P_max=10.0, P_r=1.0, seed=10)),
}


def one_cell_block(table: str, scen: ScenarioConfig, n: int):
    """The values of trials 0 <= t < n of scen's one cell, as one block."""
    powers = np.array([[scen.alpha], [scen.P_max], [scen.P_r]])
    return harness._trial_block(getattr(harness, table), scen, powers, 0, n)


def traced_peak(table: str, scen: ScenarioConfig, n: int) -> int:
    """The traced peak of one block of n trials, or of the invariant suite
    on n trials for table "check", in bytes above the memory held before it."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        if table == "check":
            harness.invariant_suite(scen, n)
        else:
            one_cell_block(table, scen, n)
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
        one_cell_block(table, scen, n)
        walls.append(time.perf_counter() - t)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return 1e6 * statistics.median(walls) / n, faults / (reps * n)


def footprint(table: str, scen: ScenarioConfig) -> int:
    """The fitted bytes per trial of a table's blocks, or of check's chunks."""
    fit = harness._check_bytes if table == "check" else harness._trial_bytes
    return fit(scen.K, scen.M_r)


def budget_size(table: str, scen: ScenarioConfig) -> int:
    return max(1, harness._BLOCK_BYTES // footprint(table, scen))


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
        sizes = sorted({*map(int, args.sizes.split(",")), budget_size(table, scen)})
        for n in sizes:
            peak = traced_peak(table, scen, n)
            label = f"{n} (budget)" if n == budget_size(table, scen) else str(n)
            us, faults = timed(table, scen, n, args.reps)
            print(f"| {name} | {scen.K}, {scen.M_r} | {label} | {peak / n:,.0f} | {fit:,} | "
                  f"{peak / 1e6:.2f} | {us:.1f} | {faults:.2f} |", flush=True)
    if args.grid:
        largest = 0
        print("\npeak per trial / footprint at the budget's block size (sweep, prob, check)")
        print("| K \\ M_r | 1 | 2 | 4 | 8 |")
        print("| --- | --- | --- | --- | --- |")
        for K in (1, 2, 3, 5, 10, 20, 50):
            cells = []
            for M_r in (1, 2, 4, 8):
                scen = ScenarioConfig(K=K, M_r=M_r, P_max=10.0, P_r=10.0, seed=3)
                ratios = []
                for table in ("_sweep_block", "_prob_block", "check"):
                    n, fit = budget_size(table, scen), footprint(table, scen)
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
