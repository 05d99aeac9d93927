"""Command-line front end of marcsim.

Subcommands:
    sample   draw one channel realization and emit it as JSON
    eval     compute all metrics for a JSON realization ('-' reads stdin)
    sweep    average metrics over an (alpha, P_r) grid -> CSV
    prob     joint-beats-TDMA probability over an (alpha, P_max) grid -> CSV
    check    run the cross-formula invariant suite on random instances

A subcommand takes only the flags its --help lists; a unique prefix names a flag.

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import gc
import getopt
import json
import math
import sys
from types import SimpleNamespace

from .channel import (
    ScenarioConfig, realization_from_json, realization_to_json, sample_channel, trial_rng,
)
from .errors import NumericalError, ValidationError
from .harness import (
    SweepConfig, db_to_linear, estimate_superiority_probability, evaluate_realization,
    invariant_suite, run_sweep,
)


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


def _help(command: str | None) -> str:
    """The --help text of a subcommand, from the flag table, or else the docstring."""
    if command is None:
        return f"usage: marcsim [-h] {{{','.join(_SUBCOMMANDS)}}} ...\n\n{__doc__}"
    names = _SUBCOMMANDS[command][1].split()
    return (f"usage: marcsim {command} [options]{' realization' * (command == 'eval')}\n\n"
            "  -h, --help      show this help and exit\n"
            + "".join(f"  {f'--{n} {_FLAGS[n][2]}':16s}{_FLAGS[n][3]}\n" for n in names))


def _parse(argv: list[str]) -> SimpleNamespace:
    """argv, a subcommand and its arguments, parsed by getopt against the
    flags it reads, as an attribute per flag (- read as _) and eval's path.
    -h or --help prints the help and raises SystemExit(0)."""
    args = SimpleNamespace(**{name.replace("-", "_"): default
                              for name, (_, default, _, _) in _FLAGS.items()})
    args.command = command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    _, flags, args.trials = _SUBCOMMANDS[command] if command else (None, "", 0)
    try:
        opts, rest = getopt.gnu_getopt(argv[1:] if command else argv, "h",
                                       ["help", *(name + "=" for name in flags.split())])
    except getopt.GetoptError as exc:
        raise ValidationError(exc.msg) from None
    for opt, value in opts:
        if opt in ("-h", "--help"):
            sys.stdout.write(_help(command))
            raise SystemExit(0)
        try:
            if value.startswith("--"):  # the next flag, not a value
                raise ValueError
            value = _FLAGS[opt[2:]][0](value)
        except ValueError:
            raise ValidationError(f"invalid value for {opt}: {value!r}") from None
        if opt == "--alpha":  # repeatable; every other flag keeps its last value
            value = (*args.alpha, value)
        setattr(args, opt[2:].replace("-", "_"), value)
    if command is None or len(rest) != (command == "eval"):  # eval reads one realization path
        raise ValidationError(f"{_help(command).splitlines()[0]}; got {rest}")
    args.alpha, args.realization = args.alpha or (1.0,), rest[0] if rest else None
    return args


def _write_text(path: str, text: str):
    if not path or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _scenario(args, **axes) -> ScenarioConfig:
    return ScenarioConfig(K=args.users, M_r=args.antennas, seed=args.seed, **axes)


def _one_power(spec: str, flag: str) -> float:
    """Linear power of a power axis that takes one value here."""
    if ":" in spec:
        raise ValidationError(f"{flag} takes one value here, not the range {spec!r}")
    return db_to_linear(_parse_grid(spec)[0])


def _single_scenario(args) -> ScenarioConfig:
    """The one scenario of sample and check, where every axis takes one value."""
    if len(args.alpha) > 1:
        raise ValidationError("--alpha takes one value here")
    return _scenario(args, P_max=_one_power(args.pmax_db, "--pmax-db"),
                     P_r=_one_power(args.pr_db, "--pr-db"), alpha=args.alpha[0])


def _cmd_sample(args) -> int:
    scen = _single_scenario(args)
    c = sample_channel(scen, trial_rng(scen.seed, 0))
    _write_text(args.out, realization_to_json(c) + "\n")
    return 0


def _cmd_eval(args) -> int:
    try:
        if args.realization == "-":
            text = sys.stdin.read()
        else:
            with open(args.realization, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"realization is not UTF-8 text: {exc.reason} at byte "
                              f"{exc.start}") from None
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
    cfg = SweepConfig(base, _parse_grid(swept), alpha_values=args.alpha, n_trials=args.trials)
    result = run(cfg, workers=args.workers)
    _write_text(args.out, result.to_csv())
    return 0


def _cmd_check(args) -> int:
    outcomes = invariant_suite(_single_scenario(args), n_trials=args.trials)
    _write_text(args.out, "".join(
        f"{'PASS' if o.passed else 'FAIL'}  {o.name:28s} worst={o.worst:.3e}  "
        f"threshold={o.threshold:.3e}\n" for o in outcomes))
    if not all(o.passed for o in outcomes):
        raise NumericalError("one or more invariant checks failed")
    return 0


_FLAGS = {  # name: (type, default, metavar, help); trials defaults per subcommand
    "users": (int, 3, "K", "number of users"),
    "antennas": (int, 2, "M", "relay antennas"),
    "alpha": (float, (), "A", "direct-link strength (default 1.0); sweep and prob take several"),
    "pr-db": (str, "10", "DB", "relay power, dB over the noise; sweep takes a range LO:HI:STEP"),
    "pmax-db": (str, "10", "DB", "peak user power, dB over the noise; prob takes a range"),
    "trials": (int, 0, "N", "Monte Carlo trials"),
    "seed": (int, 0, "S", "seed of the trials' random substreams"),
    "out": (str, "", "PATH", "output path (default stdout)"),
    "workers": (int, 1, "W", "most worker processes; results are identical for any W"),
}
_SCENARIO = "users antennas alpha pr-db pmax-db seed out"
_SUBCOMMANDS = {  # name: (handler, flags, default trials), in the order --help lists them
    "sample": (_cmd_sample, _SCENARIO, 0),
    "sweep": (_cmd_table, _SCENARIO + " trials workers", 1000),
    "prob": (_cmd_table, "users antennas alpha pmax-db seed out trials workers", 1000),
    "check": (_cmd_check, _SCENARIO + " trials", 100),
    "eval": (_cmd_eval, "out", 0),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Move every object alive now (mostly the imports') to the permanent
    # generation, so that collections during the command scan only its own;
    # unfreeze on the way out unless the caller had frozen objects itself.
    caller_froze = gc.get_freeze_count()
    gc.freeze()
    try:
        args = _parse(argv)
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
