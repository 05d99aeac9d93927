"""Compare two commits' benchmark runs pair by pair and write a BENCH file.

    python3 tools/bench_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT --out BENCH_<topic>.json

Each checkout holds the ``perfbench/out/<workload>-seed<N>-trace0.json``
records of ``perfbench/run.py --workload <workload> --seed <N> --seconds S
--trace 0`` runs made in it. A run of the parent and a run of the change on
the same workload and seed form a pair; run the two sides alternately, with
the same ``--seconds``, so that the machine's drift falls on both.

For every workload with pairs, and every end-to-end metric of
``BENCHMARK.json``, the file records each side's values, median and
quartiles, the pairs the change won, tied and lost, whether the change meets
the gain rule (it wins at least nine tenths of the pairs, and its median is
better than the parent's by more than the parent's quartile distance) and
whether its median is worse than the parent's by more than the metric's
bound. It also records each side's attempted and failed trials and its run
manifest, with the seeds of its runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9


def load_runs(checkout: Path) -> dict[str, dict[int, dict]]:
    """The trace-0 records under a checkout, by workload and seed."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted((checkout / "perfbench" / "out").glob("*-trace0.json")):
        record = json.loads(path.read_text())
        m = record["manifest"]
        runs.setdefault(m["workload"], {})[m["seed"]] = record
    return runs


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def side(records: list[dict], metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in records]


def compare(parent: list[dict], change: list[dict], spec: dict) -> dict:
    """One metric over the pairs (parent[i], change[i])."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    p, c = side(parent, spec["name"]), side(change, spec["name"])
    gains = [sign * (b - a) for a, b in zip(p, c)]
    ps, cs = summary(p), summary(c)
    won = sum(g > 0 for g in gains)
    median_gain = sign * (cs["median"] - ps["median"])
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": ps,
        "change": cs,
        "pairs": len(gains),
        "won": won,
        "tied": sum(g == 0 for g in gains),
        "lost": sum(g < 0 for g in gains),
        "median_change_ratio": cs["median"] / ps["median"] - 1.0,
        "gain": won >= WIN_SHARE * len(gains) and median_gain > ps["q3"] - ps["q1"],
        "worse_than_bound": -median_gain > spec["bound"] * ps["median"],
    }


def manifest(records: list[dict]) -> dict:
    first = {k: v for k, v in records[0]["manifest"].items() if k != "seed"}
    return {**first, "seeds": [r["manifest"]["seed"] for r in records]}


def counts(records: list[dict]) -> dict:
    results = [r["result"] for r in records]
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit, with its runs")
    p.add_argument("change", type=Path, help="checkout of the change, with its runs")
    p.add_argument("--out", type=Path, required=True, help="BENCH JSON file to write")
    args = p.parse_args(argv)
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    workloads = {}
    for name in sorted(parent_runs.keys() & change_runs.keys()):
        seeds = sorted(parent_runs[name].keys() & change_runs[name].keys())
        if len(seeds) < 2:
            print(f"{name}: {len(seeds)} pair(s); quartiles need two", file=sys.stderr)
            continue
        parent = [parent_runs[name][s] for s in seeds]
        change = [change_runs[name][s] for s in seeds]
        lengths = {r["manifest"]["seconds"] for r in parent + change}
        if len(lengths) != 1:
            print(f"{name}: runs of different lengths {sorted(lengths)} s", file=sys.stderr)
            return 1
        workloads[name] = {
            "metrics": {spec["name"]: compare(parent, change, spec) for spec in specs},
            "parent": {**counts(parent), "manifest": manifest(parent)},
            "change": {**counts(change), "manifest": manifest(change)},
        }
    if not workloads:
        print("error: no workload has runs on both sides", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps({"workloads": workloads}, indent=1) + "\n")
    for name, w in workloads.items():
        for metric, m in w["metrics"].items():
            print(f"{name} {metric}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
                  f"{m['unit']}, won {m['won']}/{m['pairs']}, gain {m['gain']}, "
                  f"worse than bound {m['worse_than_bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
