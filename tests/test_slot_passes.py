"""tools/slot_passes.py: counts the slot optimizer's Newton passes."""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest

from marcsim import tdma

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def slot_passes():
    spec = importlib.util.spec_from_file_location("slot_passes", _TOOLS / "slot_passes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_passes_are_counted_per_block(slot_passes):
    # each block's Newton loops, the second one only on the trials whose
    # relay-only users take a slot after all; the slackness test between
    # them and the final check call _slot_derivs too, and count no pass
    d, nr, hp = slot_passes.twenty_four_decades(3, N=50)
    derivs, fill = tdma._slot_derivs, tdma._water_fill
    blocks = slot_passes.count_passes(
        tdma, lambda: [tdma.block_slots(d[lo:lo + 25], nr[lo:lo + 25], hp[lo:lo + 25])
                       for lo in (0, 25)])
    assert tdma._slot_derivs is derivs and tdma._water_fill is fill
    assert [n for n, _ in blocks] == [25, 25]
    assert [len(loops) for _, loops in blocks] == [2, 2]
    for n, loops in blocks:
        assert loops[0][0] == n and loops[1][0] < n
        for passes in loops:
            assert passes == sorted(passes, reverse=True)
    hist = slot_passes.histogram(blocks)
    assert sum(hist.values()) == 50 + sum(loops[1][0] for _, loops in blocks)
    assert max(hist) == max(len(passes) for _, loops in blocks for passes in loops)


def test_main_prints_every_set(slot_passes, capsys):
    with mock.patch.object(sys, "path", list(sys.path)):
        assert slot_passes.main([]) == 0
    out = capsys.readouterr().out
    for name in ("crit8", "24-decades", "pr0"):
        assert f"| {name} | 0 |" in out
    rows = [line.split(" | ") for line in out.splitlines() if line.startswith("| pr0 | ")]
    assert len(rows) == 3 and all(float(row[4]) > 0.0 for row in rows[:2])  # each block's ms
    assert ("| crit8 | 12 | 92 | 2: 1189, 3: 4141, 4: 3681, 5: 812, 6: 138, 7: 24, 8: 12, "
            "9: 3 |") in out
    assert "| 24-decades | 3 | 139 |" in out
    assert "| pr0 | 2 | 2 | 1: 400 |" in out
