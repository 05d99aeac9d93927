import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import marcsim
from marcsim import evaluate_realization, realization_from_json
from marcsim import cli as cli_mod
from marcsim.cli import _parse_grid, main
from marcsim.errors import ValidationError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_grid_single_and_range():
    assert _parse_grid("20") == (20.0,)
    assert _parse_grid("0:40:10") == (0.0, 10.0, 20.0, 30.0, 40.0)
    assert _parse_grid("-10:0:5") == (-10.0, -5.0, 0.0)
    with pytest.raises(ValidationError):
        _parse_grid("0:10")
    with pytest.raises(ValidationError):
        _parse_grid("10:0:5")
    for spec in ("0:inf:1", "0:1:nan", "-inf:0:1", "nan", "inf", "abc", "0:1:x",
                 "-1e308:1e308:1", "0:1:1e-320", "0:1e12:1"):
        with pytest.raises(ValidationError):
            _parse_grid(spec)


SCENARIO_FLAGS = {"--users", "--antennas", "--alpha", "--pr-db", "--pmax-db", "--seed", "--out"}
OWN_FLAGS = {  # every flag a subcommand's --help shows, beside --help
    None: set(),
    "sample": SCENARIO_FLAGS,
    "eval": {"--out"},
    "sweep": SCENARIO_FLAGS | {"--trials", "--workers"},
    "prob": SCENARIO_FLAGS - {"--pr-db"} | {"--trials", "--workers"},
    "check": SCENARIO_FLAGS | {"--trials"},
}


@pytest.mark.parametrize("command", [None, "sample", "eval", "sweep", "prob", "check"])
def test_help_is_that_of_the_parser_with_every_flag(capsys, monkeypatch, command):
    # A first argument that names a subcommand builds that subcommand's
    # parser alone, whose --help shows exactly its own flags; any other
    # builds the overview, which lists the five subcommands and no flag.
    built = []

    class Counted(cli_mod._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "_Parser", Counted)
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"] if command else ["--help"])
    assert exited.value.code == 0
    shown = capsys.readouterr().out
    assert shown.startswith(f"usage: marcsim {command} " if command else "usage: marcsim ")
    assert set(re.findall(r"--[a-z-]+", shown)) == OWN_FLAGS[command] | {"--help"}
    if command:
        assert built == [f"marcsim {command}"]
        assert ("realization" in shown) == (command == "eval")
    else:
        assert built[0] == "marcsim" and len(built) == 6  # the overview and its five entries
        assert "{sample,sweep,prob,check,eval}" in shown
        for name in OWN_FLAGS:
            assert name is None or f"\n    {name} " in shown, name


def test_sample_emits_valid_deterministic_json(capsys):
    code, out1, _ = run_cli(capsys, "sample", "--users", "4", "--antennas", "3",
                            "--seed", "11", "--alpha", "0.5")
    assert code == 0
    c = realization_from_json(out1)
    assert c.K == 4 and c.M_r == 3
    code, out2, _ = run_cli(capsys, "sample", "--users", "4", "--antennas", "3",
                            "--seed", "11", "--alpha", "0.5")
    assert out1 == out2


def test_sample_eval_roundtrip(tmp_path, capsys):
    path = tmp_path / "realization.json"
    code, _, _ = run_cli(capsys, "sample", "--users", "3", "--seed", "2",
                         "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "eval", str(path))
    assert code == 0
    doc = json.loads(out)
    c = realization_from_json(path.read_text())
    direct = evaluate_realization(c)
    assert doc["joint"]["r_lower"] == pytest.approx(direct.bounds.r_lower)
    assert doc["tdma"]["sum_rate"] == pytest.approx(direct.tdma.sum_rate)
    assert doc["joint"]["r_lower"] <= doc["joint"]["r_up_min"] + 1e-9
    assert doc["asymptotic"]["joint_wins"] == direct.asymptotic.joint_wins


def test_eval_folds_json_noise(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "sample", "--users", "3", "--seed", "5")
    doc = json.loads(out)
    noisy = {**doc, "N0": 2.5}
    folded = {**doc, "P": [p / 2.5 for p in doc["P"]], "P_r": doc["P_r"] / 2.5}
    outs = []
    for name, d in (("noisy", noisy), ("folded", folded)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(d))
        code, out, _ = run_cli(capsys, "eval", str(path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_eval_dead_relay_receiver_link(tmp_path, capsys):
    # h = 0 is a valid channel: the relay adds nothing and every bound is finite
    _, out, _ = run_cli(capsys, "sample", "--users", "3", "--seed", "5")
    doc = {**json.loads(out), "h": [[0.0, 0.0], [0.0, 0.0]]}
    path = tmp_path / "dead.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "eval", str(path))
    assert code == 0
    joint = json.loads(out)["joint"]
    assert joint["r_lower"] == joint["r_up1"] <= joint["r_up2"]


def test_eval_empty_channel_is_validation_error(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "sample", "--users", "2", "--seed", "5")
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({**json.loads(out), "h_r": [[], []], "h": []}))
    code, _, err = run_cli(capsys, "eval", str(path))
    assert code == 1
    assert "K and M_r must be >= 1, got K=2, M_r=0" in err


def test_overflowing_channels_exit_one(capsys):
    cases = [(command, ("--alpha", "1e200", "--trials", "3"), "channel SNRs overflow a float")
             for command in ("sweep", "prob")]
    cases.append(("prob", ("--users", "50", "--antennas", "8", "--alpha", "1e308", "--trials", "3"),
                  "h_d has non-finite entries"))
    for command, args, message in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, command, *args)
        assert code == 1 and message in err, (command, err)
        # the error line is all a user sees: no numpy RuntimeWarning before it
        assert len(err.splitlines()) == 1 and "RuntimeWarning" not in err, err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (command, caught)


def test_eval_missing_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, "eval", "/nonexistent/path.json")
    assert code == 3


def test_eval_invalid_json_is_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, _ = run_cli(capsys, "eval", str(path))
    assert code == 1


def test_sweep_csv_deterministic_across_workers(tmp_path, capsys, any_run_forks):
    args = ["sweep", "--users", "3", "--antennas", "2", "--alpha", "0.5",
            "--alpha", "1.0", "--pr-db", "0:10:10", "--trials", "5",
            "--seed", "9"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(p1))[0] == 0
    assert run_cli(capsys, *args, "--out", str(p2), "--workers", "2")[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "alpha,pr_db,metric,mean,stderr,n_trials,seed"
    assert len(lines) == 1 + 2 * 2 * 5


# A fresh interpreter: imports marcsim.cli, runs one sweep at W = 1 and at a
# forced W = 2 on two CPUs, and prints which of numpy.random and the pool
# modules are loaded at each step.
_STARTUP_CHILD = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import marcsim.cli
from marcsim import harness
MODULES = ("numpy.random", "multiprocessing", "concurrent.futures.process")
loaded = [[m for m in MODULES if m in sys.modules]]
os.cpu_count = lambda: 2
harness._MIN_PROCESS_WORK = 1
for w in ("1", "2"):
    assert marcsim.cli.main([*sys.argv[3:], "--workers", w, "--out", sys.argv[2] + w]) == 0
    loaded.append([m for m in MODULES if m in sys.modules])
print(json.dumps(loaded))
"""


def test_only_a_run_that_forks_imports_the_pool(tmp_path):
    src = Path(marcsim.__file__).resolve().parents[1]
    args = ["sweep", "--users", "3", "--antennas", "2", "--alpha", "0.5", "--alpha", "1.0",
            "--pr-db", "0:10:10", "--trials", "5", "--seed", "9"]
    out = subprocess.run([sys.executable, "-c", _STARTUP_CHILD, str(src), str(tmp_path / "w"),
                          *args], capture_output=True, text=True, check=True).stdout
    after_import, after_serial, after_fork = json.loads(out)
    assert after_import == after_serial == ["numpy.random"]
    assert after_fork == ["numpy.random", "multiprocessing", "concurrent.futures.process"]
    assert (tmp_path / "w1").read_bytes() == (tmp_path / "w2").read_bytes()


def test_sweep_negative_start_range_needs_equals_form(tmp_path, capsys):
    # argparse reads a separate "-10:0:10" as an option; the "=" form passes it
    path = tmp_path / "neg.csv"
    code, _, _ = run_cli(capsys, "sweep", "--pr-db=-10:0:10", "--trials", "2",
                         "--out", str(path))
    assert code == 0
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert sorted({float(r[1]) for r in rows}) == [-10.0, 0.0]


def test_sweep_unwritable_path_is_io_error(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--trials", "1",
                         "--out", "/nonexistent-dir/out.csv")
    assert code == 3


def test_prob_csv(tmp_path, capsys):
    path = tmp_path / "prob.csv"
    code, _, _ = run_cli(capsys, "prob", "--users", "4", "--antennas", "2",
                         "--alpha", "0.1", "--alpha", "1.0",
                         "--pmax-db", "0:10:10", "--trials", "20",
                         "--seed", "4", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "alpha,pmax_db,probability,stderr,n_trials,seed"
    assert len(lines) == 1 + 2 * 2
    probs = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(0.0 <= p <= 1.0 for p in probs)


def test_check_passes_on_defaults(capsys):
    code, out, _ = run_cli(capsys, "check", "--trials", "10", "--seed", "3")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


def test_check_passes_on_a_single_user_at_high_power(capsys):
    # one user: the log-det reference must not cancel where the rate is ~40 bits
    code, out, _ = run_cli(capsys, "check", "--users", "1", "--antennas", "1", "--pmax-db",
                           "60", "--pr-db", "60", "--trials", "500", "--seed", "7")
    assert code == 0, out
    assert "FAIL" not in out


def test_bad_flags_exit_one(capsys):
    assert run_cli(capsys, "sweep", "--users", "not-a-number")[0] == 1
    assert run_cli(capsys, "sweep", "--pr-db", "10:0:5")[0] == 1
    assert run_cli(capsys, "nonsense-command")[0] == 1
    assert run_cli(capsys, "sweep", "--trials", "2", "--workers", "0")[0] == 1
    assert run_cli(capsys, "prob", "--trials", "2", "--workers", "-3")[0] == 1
    for flags in (["--pr-db", "0:inf:1"], ["--pr-db", "0:1:nan"], ["--pr-db", "4000"],
                  ["--pmax-db", "abc"], ["--trials", "4294967296"]):
        for command in ("sweep", "prob"):
            code, _, err = run_cli(capsys, command, "--trials", "2", *flags)
            assert code == 1 and err.startswith("error:"), (command, flags, err)
    # Flags a subcommand does not read, and ranges or repeats on an axis that
    # takes one value.
    for argv in (["sample", "--workers", "2"], ["sample", "--trials", "5"],
                 ["check", "--workers", "2"], ["prob", "--pr-db", "10"],
                 ["check", "--pr-db", "0:40:10"],
                 *([command, "--epsilon", "1e-6"] for command in ("sweep", "prob", "check")),
                 ["eval", "-", "--epsilon", "1e-6"],
                 ["sample", "--alpha", "0.1", "--alpha", "1"],
                 ["sweep", "--pmax-db", "0:20:10"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and err.startswith("error:"), (argv, err)
    for trials in ("0", "-3"):  # the invariant suite needs one draw
        code, _, err = run_cli(capsys, "check", "--trials", trials)
        assert code == 1 and err.startswith("error:"), (trials, err)


def test_invalid_scenario_exit_one(capsys):
    code, _, _ = run_cli(capsys, "sample", "--users", "0")
    assert code == 1
