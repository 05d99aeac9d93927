"""Command-line front end.

Subcommands:
  sample  draw one channel realization and emit it as JSON
  eval    compute all metrics for a JSON realization
  sweep   average metrics over an (alpha, P_r) grid -> CSV
  prob    joint-beats-TDMA probability over an (alpha, P_max) grid -> CSV
  check   run the cross-formula invariant suite on random instances

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys

from .channel import (
    ScenarioConfig, realization_from_json, realization_to_json, sample_channel, trial_rng,
)
from .errors import NumericalError, ValidationError
from .harness import (
    SweepConfig, db_to_linear, estimate_superiority_probability, evaluate_realization,
    invariant_suite, run_sweep,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad flags are validation errors (exit 1)
        raise ValidationError(message)


_MAX_GRID_POINTS = 10_000  # more points is a mistyped spec, not a feasible run


def _parse_grid(spec: str) -> tuple[float, ...]:
    """Parse a grid spec: either a single value or lo:hi:step (inclusive),
    of at most _MAX_GRID_POINTS values."""
    try:
        parts = [float(p) for p in spec.split(":")]
    except ValueError:
        raise ValidationError(f"grid spec {spec!r} is not numeric") from None
    if len(parts) not in (1, 3):
        raise ValidationError(f"grid spec must be a value or lo:hi:step, got {spec!r}")
    if not all(map(math.isfinite, parts)):
        raise ValidationError(f"grid spec {spec!r} has a non-finite number")
    if len(parts) == 1:
        return (parts[0],)
    lo, hi, step = parts
    if step <= 0 or hi < lo or not math.isfinite((hi - lo) / step):
        raise ValidationError(f"invalid grid spec {spec!r}")
    count = int((hi - lo) / step + 1e-9) + 1
    if count > _MAX_GRID_POINTS:
        raise ValidationError(f"grid spec {spec!r} has {count} points, over {_MAX_GRID_POINTS}")
    return tuple(lo + i * step for i in range(count))


def _add_flags(p: argparse.ArgumentParser, names: str, swept: str = "", trials: int = 0):
    """Add the named arguments to the parser p of one subcommand: realization
    as a positional, the rest as flags. The power axis named by swept takes a
    range spec and, with it, --alpha may repeat; every other axis one value."""
    specs = {
        "users": dict(type=int, default=3, metavar="K", help="number of users"),
        "antennas": dict(type=int, default=2, metavar="M", help="relay antennas"),
        "alpha": dict(type=float, action="append", metavar="A",
                      help="direct-link strength multiplier (default 1.0)"),
        "pr-db": dict(default="10", metavar="DB", help="relay power, dB over the noise"),
        "pmax-db": dict(default="10", metavar="DB", help="peak user power, dB over the noise"),
        "trials": dict(type=int, default=trials, metavar="N"),
        "seed": dict(type=int, default=0, metavar="S"),
        "out": dict(default="", metavar="PATH", help="output path (default stdout)"),
        "workers": dict(type=int, default=1, metavar="W",
                        help="most worker processes; a run too small to pay for starting "
                             "them stays in this process (results identical for any W)"),
        "realization": dict(help="path to a realization JSON ('-' for stdin)"),
    }
    if swept:
        specs[swept].update(metavar="LO:HI:STEP", help=specs[swept]["help"] + ", or a range")
        specs["alpha"]["help"] += "; repeatable"
    for name in names.split():
        p.add_argument(name if name == "realization" else "--" + name, **specs[name])


def _build_parser(command: str | None = None) -> _Parser:
    """The parser of subcommand command alone, ``marcsim <command>``; without
    one, the overview parser, which lists the subcommands but not their flags."""
    if command is None:
        parser = _Parser(prog="marcsim", description=__doc__,
                         formatter_class=argparse.RawDescriptionHelpFormatter)
        sub = parser.add_subparsers(dest="command", required=True)
        for name, (_, help_, *_) in _SUBCOMMANDS.items():
            sub.add_parser(name, help=help_)
        return parser
    _, _, flags, swept, trials = _SUBCOMMANDS[command]
    parser = _Parser(prog="marcsim " + command)
    parser.set_defaults(command=command)
    _add_flags(parser, flags, swept, trials)
    return parser


def _write_text(path: str, text: str):
    if not path or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _alphas(args) -> tuple[float, ...]:
    return tuple(args.alpha) if args.alpha else (1.0,)


def _scenario(args, **axes) -> ScenarioConfig:
    return ScenarioConfig(K=args.users, M_r=args.antennas, seed=args.seed, **axes)


def _one_power(spec: str, flag: str) -> float:
    """Linear power of a power axis that takes one value here."""
    if ":" in spec:
        raise ValidationError(f"{flag} takes one value here, not the range {spec!r}")
    return db_to_linear(_parse_grid(spec)[0])


def _single_scenario(args) -> ScenarioConfig:
    """The one scenario of sample and check, where every axis takes one value."""
    if len(_alphas(args)) > 1:
        raise ValidationError("--alpha takes one value here")
    return _scenario(args, P_max=_one_power(args.pmax_db, "--pmax-db"),
                     P_r=_one_power(args.pr_db, "--pr-db"), alpha=_alphas(args)[0])


def _cmd_sample(args) -> int:
    scen = _single_scenario(args)
    c = sample_channel(scen, trial_rng(scen.seed, 0))
    _write_text(args.out, realization_to_json(c) + "\n")
    return 0


def _cmd_eval(args) -> int:
    if args.realization == "-":
        text = sys.stdin.read()
    else:
        with open(args.realization, "r", encoding="utf-8") as fh:
            text = fh.read()
    c = realization_from_json(text)
    metrics = evaluate_realization(c)
    _write_text(args.out, json.dumps(metrics.to_json_dict(), indent=2) + "\n")
    return 0


def _cmd_table(args) -> int:
    # Looked up at call time, so that a rebound module global is the one run.
    if args.command == "sweep":
        run, swept = run_sweep, args.pr_db
        base = _scenario(args, P_max=_one_power(args.pmax_db, "--pmax-db"))
    else:
        run, swept = estimate_superiority_probability, args.pmax_db
        base = _scenario(args)
    cfg = SweepConfig(base, _parse_grid(swept), alpha_values=_alphas(args), n_trials=args.trials)
    result = run(cfg, workers=args.workers)
    _write_text(args.out, result.to_csv())
    if result.resampled_trials:
        print(f"resampled_trials={result.resampled_trials}", file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    outcomes = invariant_suite(_single_scenario(args), n_trials=args.trials)
    _write_text(args.out, "".join(
        f"{'PASS' if o.passed else 'FAIL'}  {o.name:28s} worst={o.worst:.3e}  "
        f"threshold={o.threshold:.3e}\n" for o in outcomes))
    if not all(o.passed for o in outcomes):
        raise NumericalError("one or more invariant checks failed")
    return 0


_SCENARIO = "users antennas alpha pr-db pmax-db seed out"
_SUBCOMMANDS = {  # name: (handler, help in the overview, flags, swept power axis, default trials)
    "sample": (_cmd_sample, "emit one channel realization as JSON", _SCENARIO, "", 0),
    "sweep": (_cmd_table, "alpha x P_r metric grid -> CSV", _SCENARIO + " trials workers",
              "pr-db", 1000),
    "prob": (_cmd_table, "alpha x P_max superiority probabilities -> CSV",
             "users antennas alpha pmax-db seed out trials workers", "pmax-db", 1000),
    "check": (_cmd_check, "invariant suite on random instances", _SCENARIO + " trials", "", 100),
    "eval": (_cmd_eval, "metrics for a JSON realization", "realization out", "", 0),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a first argument that names a subcommand gets that subcommand's parser only
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    # Move every object alive now (mostly the imports') to the permanent
    # generation, so that collections during the command scan only its own;
    # unfreeze on the way out unless the caller had frozen objects itself.
    caller_froze = gc.get_freeze_count()
    gc.freeze()
    try:
        args = _build_parser(command).parse_args(argv[1:] if command else argv)
        return _SUBCOMMANDS[args.command][0](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3
    finally:
        if not caller_froze:
            gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
