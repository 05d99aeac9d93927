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
import json
import sys

from .channel import (
    ScenarioConfig,
    realization_from_json,
    realization_to_json,
    sample_channel,
    trial_rng,
)
from .errors import NumericalError, ValidationError
from .harness import (
    SweepConfig,
    db_to_linear,
    estimate_superiority_probability,
    evaluate_realization,
    invariant_suite,
    run_sweep,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad flags are validation errors (exit 1)
        raise ValidationError(message)


def _parse_grid(spec: str) -> tuple[float, ...]:
    """Parse a grid spec: either a single value or lo:hi:step (inclusive)."""
    if ":" not in spec:
        return (float(spec),)
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid spec must be lo:hi:step, got {spec!r}")
    lo, hi, step = (float(p) for p in parts)
    if step <= 0 or hi < lo:
        raise ValidationError(f"invalid grid spec {spec!r}")
    count = int((hi - lo) / step + 1e-9) + 1
    return tuple(lo + i * step for i in range(count))


def _add_common(p: argparse.ArgumentParser, trials_default: int):
    p.add_argument("--users", type=int, default=3, metavar="K", help="number of users")
    p.add_argument("--antennas", type=int, default=2, metavar="M", help="relay antennas")
    p.add_argument(
        "--alpha",
        type=float,
        action="append",
        metavar="A",
        help="direct-link strength multiplier (repeatable; default 1.0)",
    )
    p.add_argument(
        "--pr-db",
        default="10",
        metavar="LO:HI:STEP",
        help="relay power over N0 in dB, single value or range spec",
    )
    p.add_argument(
        "--pmax-db",
        default="10",
        metavar="LO:HI:STEP",
        help="peak user power over N0 in dB, single value or range spec",
    )
    p.add_argument("--trials", type=int, default=trials_default, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--epsilon", type=float, default=1e-8, metavar="E",
                   help="slot-optimizer derivative spread tolerance")
    p.add_argument("--out", default="", metavar="PATH", help="output path (default stdout)")
    p.add_argument("--workers", type=int, default=1, metavar="W",
                   help="parallel worker processes (results identical for any W)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="marcsim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="emit one channel realization as JSON")
    _add_common(p, trials_default=1)

    p = sub.add_parser("eval", help="metrics for a JSON realization")
    p.add_argument("realization", help="path to a realization JSON ('-' for stdin)")
    p.add_argument("--epsilon", type=float, default=1e-8, metavar="E")
    p.add_argument("--out", default="", metavar="PATH")

    p = sub.add_parser("sweep", help="alpha x P_r metric grid -> CSV")
    _add_common(p, trials_default=1000)

    p = sub.add_parser("prob", help="alpha x P_max superiority probabilities -> CSV")
    _add_common(p, trials_default=1000)

    p = sub.add_parser("check", help="invariant suite on random instances")
    _add_common(p, trials_default=100)

    return parser


def _write_text(path: str, text: str):
    if not path or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _alphas(args) -> tuple[float, ...]:
    return tuple(args.alpha) if args.alpha else (1.0,)


def _base_scenario(args) -> ScenarioConfig:
    return ScenarioConfig(
        K=args.users,
        M_r=args.antennas,
        P_max=db_to_linear(_parse_grid(args.pmax_db)[0]),
        P_r=db_to_linear(_parse_grid(args.pr_db)[0]),
        N0=1.0,
        alpha=_alphas(args)[0],
        seed=args.seed,
    )


def _cmd_sample(args) -> int:
    scen = _base_scenario(args)
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
    metrics = evaluate_realization(c, args.epsilon)
    _write_text(args.out, json.dumps(metrics.to_json_dict(), indent=2) + "\n")
    return 0


def _sweep_config(args) -> SweepConfig:
    return SweepConfig(
        base=_base_scenario(args),
        alpha_values=_alphas(args),
        pr_grid_db=_parse_grid(args.pr_db),
        n_trials=args.trials,
        epsilon=args.epsilon,
        pmax_grid_db=_parse_grid(args.pmax_db),
    )


def _cmd_sweep(args) -> int:
    result = run_sweep(_sweep_config(args), workers=args.workers)
    _write_text(args.out, result.to_csv())
    if result.resampled_trials:
        print(f"resampled_trials={result.resampled_trials}", file=sys.stderr)
    return 0


def _cmd_prob(args) -> int:
    result = estimate_superiority_probability(_sweep_config(args), workers=args.workers)
    _write_text(args.out, result.to_csv())
    if result.resampled_trials:
        print(f"resampled_trials={result.resampled_trials}", file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    scen = _base_scenario(args)
    outcomes = invariant_suite(scen, n_trials=args.trials, epsilon=args.epsilon)
    lines = []
    all_ok = True
    for o in outcomes:
        status = "PASS" if o.passed else "FAIL"
        all_ok &= o.passed
        lines.append(
            f"{status}  {o.name:28s} worst={o.worst:.3e}  threshold={o.threshold:.3e}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    if not all_ok:
        raise NumericalError("one or more invariant checks failed")
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "prob": _cmd_prob,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
