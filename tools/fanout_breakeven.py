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
import subprocess
import sys
import tempfile
from math import sqrt
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from marcsim import harness  # noqa: E402

ONE_BLAS_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS")}

# name: (argv without --trials/--workers/--out, K * M_r, cells, ladder of trials per cell)
SHAPES = {
    "small": ("sweep --users 3 --antennas 2 --alpha 0.5 --alpha 1.0 --pr-db 0:40:2 "
              "--pmax-db 10 --seed 10", 3 * 2, 42, (2, 60, 80, 90, 100, 110, 120, 150, 200)),
    "crit8": ("sweep --users 10 --antennas 4 --alpha 0.1 --alpha 1.0 --pr-db 0:40:10 "
              "--pmax-db 10 --seed 8", 10 * 4, 10, (8, 150, 200, 225, 250, 275, 300, 400, 1000)),
    "k50m8": ("prob --users 50 --antennas 8 --alpha 0.1 --alpha 0.3 --alpha 1.0 "
              "--pmax-db 0:20:10 --seed 9", 50 * 8, 9, (10, 50, 75, 90, 100, 110, 125, 150, 400)),
}

CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
from marcsim import cli, harness
if sys.argv[2] == "2":
    harness._MIN_PROCESS_WORK = 1
t = time.perf_counter()
code = cli.main(sys.argv[3:])
print(time.perf_counter() - t if code == 0 else "nan")
"""


def time_main(argv: list[str], workers: int, out_csv: str) -> float:
    """The wall of one main(argv) call in a fresh interpreter, in ms."""
    argv = [*argv, "--workers", str(workers), "--out", out_csv]
    out = subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "src"), str(workers), *argv],
                         env={**os.environ, **ONE_BLAS_THREAD}, capture_output=True, text=True,
                         check=True)
    return 1e3 * float(out.stdout.split()[-1])


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
                        walls[workers].append(time_main(base, workers, out_csv))
                ms = {w: statistics.median(v) for w, v in walls.items()}
                items = cells * per_cell
                chosen = 2 if items * sqrt(entries) // threshold >= 2 else 1
                print(f"| {name} | {items} | {ms[1]:.1f} | {ms[2]:.1f} | "
                      f"{chosen} proc{'s' * (chosen > 1)} | {ms[chosen] / min(ms.values()):.2f} |",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
