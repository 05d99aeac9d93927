"""Count the Newton passes of the TDMA slot optimizer, per block and per trial.

    python3 tools/slot_passes.py [--src CHECKOUT/src]

Imports marcsim from ``--src`` (default: this checkout's ``src``) and runs
``tdma.block_slots`` on three sets of draws:

- crit8: the criterion-8 sweep at paper scale (K=10, M_r=4, alpha 0.1 and
  1.0, P_r 0-40 dB, P_max 10 dB, 1,000 trials, seed 8), in the blocks a
  one-worker sweep makes;
- 24-decades: SNRs log-uniform on [1e-12, 1e12], 40 % of users without a
  direct link, 2,000 trials at K = 2, 3 and 6, one block each;
- pr0: K=10, M_r=4 at P_r = 0 (seed 77, 200 trials), at alpha = 1,
  P_max = 10 and at alpha = P_max = 1e-6, one block each.

Each trial runs the optimizer's Newton loop, ``tdma._water_fill``, once, or
twice where relay-only users take a slot after all, and each pass of a loop
calls ``tdma._slot_derivs`` once on the loop's live trials. A trial stays
live until it stops, so the live counts of a loop's passes, n_1 >= n_2 >=
..., give the trials that took p passes in it as n_p - n_(p+1). For each
block the table prints its trials, its passes over every loop, its wall time
in ms (``tdma.block_slots`` on the block's inputs, the median of 3 runs,
after the counted run) and the live trials of each pass, a " / " between
loops; then each set's total passes, its trials per pass count, a trial
counted once per loop it runs, and its total ms.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def twenty_four_decades(K: int, N: int = 2000):
    """The draws (d, nr, hp) of K users in N trials: SNRs log-uniform over
    24 decades, 40 % of users without a direct link."""
    rng = np.random.default_rng(K)
    d, nr = 10.0 ** rng.uniform(-12.0, 12.0, (2, N, K))
    hp = 10.0 ** rng.uniform(-12.0, 12.0, N)
    d[rng.random((N, K)) < 0.4] = 0.0
    return d, nr, hp


def count_passes(tdma, run, inputs=None) -> list[tuple[int, list[list[int]]]]:
    """(trials, live trials of each pass of each Newton loop) of each
    block_slots call that run() makes: a loop is a tdma._water_fill call, its
    passes its calls of tdma._slot_derivs, whose next-to-last argument, the
    hoisted hp + 1, has one entry per live trial, and a block ends at its
    final check. Appends each block's inputs (d, nr, hp) of block_slots to
    inputs, if given."""
    derivs, fill, checked = tdma._slot_derivs, tdma._water_fill, tdma._checked_allocation
    blocks, loops, inside = [], [], [False]

    def counted_derivs(*args):
        if inside[0]:
            loops[-1].append(len(args[-2]))
        return derivs(*args)

    def counted_fill(*args):
        loops.append([])
        inside[0] = True
        try:
            return fill(*args)
        finally:
            inside[0] = False

    def counted_check(d, nr, hp, tau):
        result = checked(d, nr, hp, tau)
        blocks.append((len(hp), loops[:]))
        loops.clear()
        if inputs is not None:
            inputs.append((d.T.copy(), nr.T.copy(), hp))
        return result

    tdma._slot_derivs, tdma._water_fill = counted_derivs, counted_fill
    tdma._checked_allocation = counted_check
    try:
        run()
    finally:
        tdma._slot_derivs, tdma._water_fill, tdma._checked_allocation = derivs, fill, checked
    return blocks


def wall_ms(tdma, d, nr, hp, reps: int = 3) -> float:
    """The median wall time in ms of reps runs of tdma.block_slots(d, nr, hp)."""
    walls = []
    for _ in range(reps):
        start = time.perf_counter()
        tdma.block_slots(d, nr, hp)
        walls.append(time.perf_counter() - start)
    return 1e3 * statistics.median(walls)


def histogram(blocks) -> Counter:
    """Trials per number of passes of a loop, over blocks of (trials, live
    counts of each loop); a trial counts once per loop it runs."""
    hist = Counter()
    for _, loops in blocks:
        for passes in loops:
            for p, (now, after) in enumerate(zip(passes, [*passes[1:], 0]), 1):
                if now > after:
                    hist[p] += now - after
    return hist


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", type=Path, default=ROOT / "src", help="the checkout's src folder")
    args = p.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from marcsim import ScenarioConfig, harness, tdma

    def sweep(base, cells, n):  # cells: (alpha, P_max, P_r) each
        powers = np.array(cells).T.copy()
        return lambda: harness._run_cells(harness._sweep_block, base, powers, n, 1)

    base = ScenarioConfig(K=10, M_r=4, P_max=10.0, P_r=1.0, alpha=1.0, seed=8)
    pr0 = ScenarioConfig(K=10, M_r=4, P_r=0.0, seed=77)
    sets = {
        "crit8": [sweep(base, [(a, base.P_max, harness.db_to_linear(db))
                               for a, db in product((0.1, 1.0), (0.0, 10.0, 20.0, 30.0, 40.0))],
                        1000)],
        "24-decades": [lambda K=K: tdma.block_slots(*twenty_four_decades(K)) for K in (2, 3, 6)],
        "pr0": [sweep(pr0, [(a, p_max, pr0.P_r)], 200)
                for a, p_max in ((1.0, 10.0), (1e-6, 1e-6))],
    }
    print(f"marcsim from {args.src}")
    print("| draws | block | trials | passes | ms | live trials per pass |")
    print("| --- | --- | --- | --- | --- | --- |")
    totals = {}
    for name, runs in sets.items():
        inputs = []
        blocks = [b for run in runs for b in count_passes(tdma, run, inputs)]
        ms = [wall_ms(tdma, *block) for block in inputs]
        for i, ((n, loops), t) in enumerate(zip(blocks, ms)):
            print(f"| {name} | {i} | {n} | {sum(map(len, loops))} | {t:.3f} | "
                  f"{' / '.join(', '.join(map(str, passes)) for passes in loops)} |")
        totals[name] = blocks, sum(ms)
    print("\n| draws | blocks | passes | trials per pass count | ms |")
    print("| --- | --- | --- | --- | --- |")
    for name, (blocks, ms) in totals.items():
        hist = histogram(blocks)
        print(f"| {name} | {len(blocks)} | {sum(len(p) for _, loops in blocks for p in loops)} | "
              f"{', '.join(f'{p}: {hist[p]}' for p in sorted(hist))} | {ms:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
