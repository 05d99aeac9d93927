"""Time serial and two-process runs over a ladder of run sizes, to set the
work at which a parallel run starts pool processes (_MIN_PROCESS_WORK).

    python3 tools/fanout_breakeven.py [--reps 7] [--shapes small,crit8,k50m8]

Each timing is one fresh interpreter, with one BLAS thread, that imports
``marcsim.cli`` and then times one ``marcsim.cli.main(argv)`` call writing a
new CSV in a temporary directory, so a W = 2 timing includes the import of
the process pool, as a user's run that forks pays it.
For the W = 2 timings the interpreter sets ``harness._MIN_PROCESS_WORK`` to
1, so the pool starts at every size. The W = 1 and W = 2 interpreters
alternate, and take turns at going first. The shapes are the commands of
the three benchmark workloads, at more trials per cell.

Prints, per shape and run size, the median main() wall in ms at W = 1 and
at W = 2, the choice that ``--workers 2`` makes under the current
``_MIN_PROCESS_WORK`` ("1 proc" or "2 procs"), and the time of that choice
over the faster of the two.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
from math import sqrt
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]

from fresh_main import time_main  # noqa: E402
from marcsim import harness  # noqa: E402

# name: (argv without --trials/--workers/--out, K * M_r, cells, ladder of trials per cell)
SHAPES = {
    "small": ("sweep --users 3 --antennas 2 --alpha 0.5 --alpha 1.0 --pr-db 0:40:2 "
              "--pmax-db 10 --seed 10", 3 * 2, 42, (2, 200, 250, 300, 350, 400, 450, 500, 600)),
    "crit8": ("sweep --users 10 --antennas 4 --alpha 0.1 --alpha 1.0 --pr-db 0:40:10 "
              "--pmax-db 10 --seed 8", 10 * 4, 10, (8, 350, 400, 450, 500, 600, 700, 800, 1000)),
    "k50m8": ("prob --users 50 --antennas 8 --alpha 0.1 --alpha 0.3 --alpha 1.0 "
              "--pmax-db 0:20:10 --seed 9", 50 * 8, 9, (10, 150, 200, 250, 300, 350, 400, 500, 600)),
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--reps", type=int, default=7, help="interpreters per side and size")
    p.add_argument("--shapes", default=",".join(SHAPES), help="comma-separated shape names")
    args = p.parse_args(argv)
    threshold = harness._MIN_PROCESS_WORK
    print(f"_MIN_PROCESS_WORK = {threshold}, {os.cpu_count()} CPUs, "
          f"median of {args.reps} interpreters per side")
    print("| shape | trials | W=1 ms | W=2 ms | --workers 2 runs | choice / faster |")
    print("| --- | --- | --- | --- | --- | --- |")
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.shapes.split(","):
            command, entries, cells, ladder = SHAPES[name]
            for per_cell in ladder:
                base = [*command.split(), "--trials", str(per_cell)]
                walls = {1: [], 2: []}
                for rep in range(args.reps):
                    for workers in (1, 2) if rep % 2 == 0 else (2, 1):
                        # a new file each time: truncating one can stall for tens of ms
                        out_csv = f"{tmp}/{name}-{per_cell}-{rep}-{workers}.csv"
                        argv = [*base, "--workers", str(workers), "--out", out_csv]
                        # at W = 2 the pool starts at every size
                        setup = "harness._MIN_PROCESS_WORK = 1" * (workers == 2)
                        walls[workers].append(time_main(ROOT / "src", argv, setup))
                ms = {w: statistics.median(v) for w, v in walls.items()}
                items = cells * per_cell
                chosen = 2 if items * sqrt(entries) // threshold >= 2 else 1
                print(f"| {name} | {items} | {ms[1]:.1f} | {ms[2]:.1f} | "
                      f"{chosen} proc{'s' * (chosen > 1)} | {ms[chosen] / min(ms.values()):.2f} |",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
