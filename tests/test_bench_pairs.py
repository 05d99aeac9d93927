"""tools/bench_pairs.py: pairs two commits' benchmark runs by workload and seed."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _write_runs(checkout: Path, rates: dict[int, float], seconds: int = 30):
    out = checkout / "perfbench" / "out"
    out.mkdir(parents=True)
    for seed, rate in rates.items():
        metrics = {"trials_per_s": rate, "setup_s": 0.3, "peak_rss_mb": 40.0}
        record = {
            "manifest": {"workload": "w", "seed": seed, "seconds": seconds, "git_commit": "c"},
            "result": {"correct": True, "attempted": 100, "failed": 0,
                       "metrics": {k: {"value": v} for k, v in metrics.items()}},
        }
        (out / f"w-seed{seed}-trace0.json").write_text(json.dumps(record))


def test_pairs_by_seed_and_applies_the_gain_rule(tmp_path):
    _write_runs(tmp_path / "parent", {1: 100.0, 2: 110.0, 3: 90.0, 4: 105.0, 9: 1.0})
    _write_runs(tmp_path / "change", {1: 130.0, 2: 120.0, 3: 125.0, 4: 105.0})
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--out", str(out)]) == 0
    w = json.loads(out.read_text())["workloads"]["w"]
    rate = w["metrics"]["trials_per_s"]
    assert rate["parent"]["values"] == [100.0, 110.0, 90.0, 105.0]  # seed 9 has no pair
    assert rate["parent"]["median"] == 102.5
    assert rate["change"]["median"] == 122.5
    assert (rate["won"], rate["tied"], rate["lost"]) == (3, 1, 0)
    assert not rate["gain"]  # 3 of 4 pairs is below nine tenths
    assert not rate["worse_than_bound"]
    assert w["metrics"]["setup_s"]["tied"] == 4
    assert w["change"]["attempted"] == 400 and w["change"]["failed"] == 0
    assert w["parent"]["manifest"]["seeds"] == [1, 2, 3, 4]


def test_runs_of_different_lengths_are_refused(tmp_path):
    _write_runs(tmp_path / "parent", {1: 100.0, 2: 110.0}, seconds=10)
    _write_runs(tmp_path / "change", {1: 130.0, 2: 120.0})
    code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--out", str(tmp_path / "BENCH.json")])
    assert code == 1 and not (tmp_path / "BENCH.json").exists()
