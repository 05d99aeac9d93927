"""tools/block_footprint.py: traces and times trial blocks of both tables."""

import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def block_footprint():
    spec = importlib.util.spec_from_file_location("block_footprint", _TOOLS / "block_footprint.py")
    module = importlib.util.module_from_spec(spec)
    # the tool imports fresh_main from its own folder and sets one BLAS
    # thread for the rest of its process; neither outlives the import here
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", [str(_TOOLS), *sys.path]):
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("shape", ["crit8", "k50m8", "small"])
def test_a_block_of_each_benchmark_shape_is_traced_and_timed(block_footprint, shape):
    table, scen = block_footprint.SHAPES[shape]
    assert table in ("_sweep_block", "_prob_block")
    assert block_footprint.traced_peak(table, scen, 4) > 0
    us, faults = block_footprint.timed(table, scen, 4, 2)
    assert us > 0.0 and faults >= 0.0
