"""Time the paper-scale commands on two checkouts and write a BENCH file.

    python3 tools/paper_scale.py PARENT CHANGE [--reps 5] --out BENCH_<topic>.json

PARENT and CHANGE are checkouts of the two commits.
Each timing is one fresh interpreter, with one BLAS thread, that imports
``marcsim.cli`` from a checkout's ``src`` and then times one
``marcsim.cli.main(argv)`` call. The two sides alternate, and take turns at
going first, so that the machine's drift falls on both. Every run writes a
new CSV: rewriting one path would time the file system's truncation of the
old file, which can stall a run for tens of milliseconds.

The commands are the paper's tables at 1,000 trials per cell: the
criterion-8 sweep (K=10, M_r=4) at W = 1 and W = 2, the K=50, M_r=8
superiority table, one cell of it, where no two cells share a draw, and the
K=3, M_r=2 sweep; and a K=50, M_r=8 sweep at 200 trials per cell, which
times the TDMA slot optimizer at large K. For each one the file records each side's main() walls in
ms, their median and quartiles, the pairs the change won, and whether every
CSV of both sides has the same bytes. The exit code is 1 if any CSV differs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import summary  # noqa: E402
from fresh_main import time_main  # noqa: E402

_CRIT8 = ("sweep --users 10 --antennas 4 --alpha 0.1 --alpha 1.0 --pr-db 0:40:10 --pmax-db 10 "
          "--seed 8")
# name: argv without --out
COMMANDS = {
    "crit8-w1": f"{_CRIT8} --trials 1000 --workers 1",
    "crit8-w2": f"{_CRIT8} --trials 1000 --workers 2",
    "k50m8-prob-w1": "prob --users 50 --antennas 8 --alpha 0.1 --alpha 0.3 --alpha 1.0 "
                     "--pmax-db 0:20:10 --seed 9 --trials 1000 --workers 1",
    "k50m8-prob-1cell-w1": "prob --users 50 --antennas 8 --alpha 0.1 --pmax-db 10 --seed 9 "
                           "--trials 1000 --workers 1",
    "k3m2-sweep-w1": "sweep --users 3 --antennas 2 --alpha 0.5 --alpha 1.0 --pr-db 0:40:2 "
                     "--pmax-db 10 --seed 10 --trials 1000 --workers 1",
    "k50m8-sweep-w1": "sweep --users 50 --antennas 8 --alpha 0.1 --alpha 1.0 --pr-db 0:40:10 "
                      "--pmax-db 10 --seed 11 --trials 200 --workers 1",
}


def compare(parent_ms: list[float], change_ms: list[float], csvs: list[bytes]) -> dict:
    """One command's walls over the pairs (parent_ms[i], change_ms[i]), and
    whether all of its CSVs, of both sides, are the same bytes."""
    p, c = summary(parent_ms), summary(change_ms)
    return {
        "unit": "ms",
        "parent": p,
        "change": c,
        "pairs": len(parent_ms),
        "won": sum(b < a for a, b in zip(parent_ms, change_ms)),
        "median_change_ratio": c["median"] / p["median"] - 1.0,
        "csv_identical": all(text == csvs[0] for text in csvs),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--reps", type=int, default=5, help="interpreters per side and command")
    p.add_argument("--out", type=Path, required=True, help="BENCH JSON file to write")
    args = p.parse_args(argv)
    if args.reps < 2:
        p.error("--reps must be at least 2: quartiles need two runs")
    sides = {"parent": args.parent, "change": args.change}
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, command in COMMANDS.items():
            walls, csvs = {side: [] for side in sides}, []
            for rep in range(args.reps):
                for side in sides if rep % 2 == 0 else reversed(sides):
                    out_csv = Path(tmp) / f"{name}-{side}-{rep}.csv"
                    walls[side].append(time_main(sides[side] / "src",
                                                 [*command.split(), "--out", str(out_csv)]))
                    csvs.append(out_csv.read_bytes())
            results[name] = {"argv": command,
                             **compare(walls["parent"], walls["change"], csvs)}
            r = results[name]
            print(f"{name}: {r['parent']['median']:.1f} -> {r['change']['median']:.1f} ms "
                  f"({100 * r['median_change_ratio']:+.1f} %), won {r['won']}/{r['pairs']}, "
                  f"CSV identical {r['csv_identical']}", flush=True)
    manifest = {"reps": args.reps, "cpus": os.cpu_count(), "python": platform.python_version(),
                "machine": platform.machine(), "blas_threads": 1}
    args.out.write_text(json.dumps({"manifest": manifest, "commands": results}, indent=1) + "\n")
    return 0 if all(r["csv_identical"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
