"""tools/paper_scale.py: times two checkouts' paper-scale commands in turn."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "paper_scale.py"
_spec = importlib.util.spec_from_file_location("paper_scale", _PATH)
paper_scale = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paper_scale)


def _fake_runs(monkeypatch, walls: dict[str, list[float]], csv_of):
    """Stands in for the interpreters: the rep-th call of a side in each
    command writes csv_of(side, rep) to its --out path and returns
    walls[side][rep]. Returns the calls made."""
    calls = []

    def time_main(src, argv):
        side = src.parent.name
        out = Path(argv[argv.index("--out") + 1])
        rep = sum(s == side for s, _ in calls) % len(walls[side])
        calls.append((side, out))
        out.write_text(csv_of(side, rep))
        return walls[side][rep]

    monkeypatch.setattr(paper_scale, "time_main", time_main)
    return calls


def _commands(monkeypatch, *names):
    """Run only the named commands."""
    monkeypatch.setattr(paper_scale, "COMMANDS", {n: paper_scale.COMMANDS[n] for n in names})


def test_alternates_the_sides_and_summarizes_the_pairs(monkeypatch, tmp_path):
    _commands(monkeypatch, "crit8-w1")
    walls = {"parent": [100.0, 110.0, 90.0, 105.0], "change": [80.0, 85.0, 95.0, 70.0]}
    calls = _fake_runs(monkeypatch, walls, lambda side, rep: "a,b\n1,2\n")
    out = tmp_path / "BENCH.json"
    assert paper_scale.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--reps", "4",
                             "--out", str(out)]) == 0
    assert [side for side, _ in calls] == ["parent", "change", "change", "parent"] * 2
    assert len({path for _, path in calls}) == 8  # a new CSV per run
    r = json.loads(out.read_text())["commands"]["crit8-w1"]
    assert r["argv"] == paper_scale.COMMANDS["crit8-w1"]
    assert r["parent"]["values"] == walls["parent"]
    assert r["parent"]["median"] == 102.5 and r["change"]["median"] == 82.5
    assert (r["parent"]["q1"], r["parent"]["q3"]) == (97.5, 106.25)
    assert (r["won"], r["pairs"]) == (3, 4)
    assert abs(r["median_change_ratio"] - (82.5 / 102.5 - 1.0)) < 1e-15
    assert r["csv_identical"]


def test_a_differing_csv_fails_the_run(monkeypatch, tmp_path):
    _commands(monkeypatch, "k3m2-sweep-w1", "crit8-w2")
    walls = {"parent": [1.0, 1.0], "change": [1.0, 1.0]}
    _fake_runs(monkeypatch, walls, lambda side, rep: f"x\n{int(side == 'change' and rep == 1)}\n")
    out = tmp_path / "BENCH.json"
    assert paper_scale.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--reps", "2",
                             "--out", str(out)]) == 1
    commands = json.loads(out.read_text())["commands"]
    assert [r["csv_identical"] for r in commands.values()] == [False, False]
    assert commands["k3m2-sweep-w1"]["won"] == 0
