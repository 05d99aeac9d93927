import json
import warnings

import pytest

from marcsim import evaluate_realization, realization_from_json
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


def test_sweep_csv_deterministic_across_workers(tmp_path, capsys):
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


def test_bad_flags_exit_one(capsys):
    assert run_cli(capsys, "sweep", "--users", "not-a-number")[0] == 1
    assert run_cli(capsys, "sweep", "--pr-db", "10:0:5")[0] == 1
    assert run_cli(capsys, "nonsense-command")[0] == 1
    assert run_cli(capsys, "sweep", "--trials", "2", "--workers", "0")[0] == 1
    assert run_cli(capsys, "prob", "--trials", "2", "--workers", "-3")[0] == 1
    for flags in (["--pr-db", "0:inf:1"], ["--pr-db", "0:1:nan"], ["--pr-db", "4000"],
                  ["--pmax-db", "abc"], ["--epsilon", "nan"], ["--epsilon", "0"]):
        for command in ("sweep", "prob"):
            code, _, err = run_cli(capsys, command, "--trials", "2", *flags)
            assert code == 1 and err.startswith("error:"), (command, flags, err)
    # Flags a subcommand does not read, and ranges or repeats on an axis that
    # takes one value.
    for argv in (["sample", "--workers", "2"], ["sample", "--trials", "5"],
                 ["check", "--workers", "2"], ["prob", "--pr-db", "10"],
                 ["prob", "--epsilon", "1e-6"], ["check", "--pr-db", "0:40:10"],
                 ["sample", "--alpha", "0.1", "--alpha", "1"],
                 ["sweep", "--pmax-db", "0:20:10"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and err.startswith("error:"), (argv, err)


def test_invalid_scenario_exit_one(capsys):
    code, _, _ = run_cli(capsys, "sample", "--users", "0")
    assert code == 1
