"""Tests of the benchmark itself, on tiny trial counts.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import run  # noqa: E402
from invoke import LAYERS  # noqa: E402

TINY = 2  # trials per cell


def traced(name: str, tmp_path: Path, seed: int = 5, workers: int = 1) -> dict:
    rec = run.run_one(run.WORKLOADS[name], tmp_path, seed, trace=True, workers=workers,
                      trials=TINY)
    assert rec["ok"], rec["errors"]
    return rec


@pytest.mark.parametrize("name", ["sweep-crit8", "prob-k50m8"])
def test_layer_self_times_sum_to_traced_wall(name, tmp_path):
    rec = traced(name, tmp_path)
    self_s = rec["trace"]["layer_self_s"]
    assert set(self_s) == set(LAYERS)
    assert all(v >= 0.0 for v in self_s.values())
    assert sum(self_s.values()) == pytest.approx(rec["wall_s"], rel=1e-3, abs=1e-3)


@pytest.mark.parametrize(
    "name, aggregates, eigenpairs",
    [("sweep-crit8", 2, 3), ("prob-k50m8", 1, 1), ("sweep-small-w2", 2, 3)],
)
def test_call_counts_repeat_exactly(name, aggregates, eigenpairs, tmp_path):
    first, second = traced(name, tmp_path), traced(name, tmp_path)
    assert first["trace"]["calls"] == second["trace"]["calls"]
    calls, trials = first["trace"]["calls"], first["trials"]
    assert first["resampled"] == 0
    assert calls["channel.trial_rng"] == trials
    assert calls["channel.compute_aggregates"] == aggregates * trials
    assert calls["numerics.dominant_eigenpair"] == eigenpairs * trials


def test_pool_starts_once_per_cell(tmp_path):
    w = run.WORKLOADS["sweep-small-w2"]
    if w.workers_here() < 2:
        pytest.skip("needs two CPUs")
    rec = run.run_one(w, tmp_path, 5, trace=True, trials=1)
    assert rec["ok"], rec["errors"]
    assert rec["trace"]["calls"]["harness.ProcessPoolExecutor"] == w.cells == 42


def with_first_mean(text: str, new_mean) -> str:
    """The CSV with the mean of its first data row (joint_lower of the first
    cell) replaced by new_mean(old mean), written at full precision."""
    lines = text.splitlines(keepends=True)
    cols = lines[1].split(",")
    assert cols[2] == "joint_lower"
    cols[3] = repr(new_mean(float(cols[3])))
    lines[1] = ",".join(cols)
    return "".join(lines)


def test_golden_gate_rejects_relative_perturbation():
    golden = run.WORKLOADS["sweep-crit8"].golden_csv.read_text()
    assert gate.golden_deviation(golden, golden, "sweep") == 0.0
    dev = gate.golden_deviation(with_first_mean(golden, lambda m: m * (1 + 1e-9)), golden, "sweep")
    assert dev == pytest.approx(1e-9, rel=1e-3)
    assert dev > gate.GOLDEN_RTOL


def test_golden_gate_tolerates_added_rows_but_not_missing_ones():
    golden = run.WORKLOADS["sweep-crit8"].golden_csv.read_text()
    extra = golden + "0.1,0,joint_opt,2.9,0.1,16,8\n"
    assert gate.golden_deviation(extra, golden, "sweep") == 0.0
    lines = golden.splitlines(keepends=True)
    missing = "".join(lines[:1] + lines[2:])
    assert gate.golden_deviation(missing, golden, "sweep") == math.inf


def test_structure_check_flags_inverted_bounds():
    w = run.WORKLOADS["sweep-crit8"]
    golden = w.golden_csv.read_text()
    args = ("sweep", w.alphas, w.grid, w.trials, w.golden_seed)
    assert gate.structure_errors(golden, *args) == []
    bad = with_first_mean(golden, lambda m: 99.0)
    assert any("joint_lower" in e for e in gate.structure_errors(bad, *args))


def test_exits_nonzero_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "sweep-crit8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
