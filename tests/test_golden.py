"""The benchmark's golden CSVs, pinned in the test suite.

Each workload of ``perfbench/run.py`` is run at its golden seed, trial count
and worker count through ``marcsim.cli.main`` and compared with its recorded
CSV by the benchmark's own gate. The multi-worker workload also runs at one
worker, and its bytes must not change.
"""

import importlib
from pathlib import Path

import pytest

from marcsim.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("run"), importlib.import_module("gate")


def test_golden_csvs(perfbench, tmp_path):
    run, gate = perfbench
    assert Path(run.__file__).parent == PERFBENCH and run.WORKLOADS
    for w in run.WORKLOADS.values():
        texts = []
        for workers in sorted({1, w.workers}):
            out = tmp_path / f"{w.name}-{workers}.csv"
            assert main(w.argv(w.golden_seed, w.trials, workers, str(out))) == 0
            texts.append(out.read_text())
            dev = gate.golden_deviation(texts[-1], w.golden_csv.read_text(), w.command)
            assert dev <= gate.GOLDEN_RTOL, (w.name, workers, dev)
        assert all(t == texts[0] for t in texts), w.name
