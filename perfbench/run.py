"""marcsim benchmark: Monte Carlo trials per second through the command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``./src``, nothing needs installing. One *invocation* is a fresh interpreter
(``perfbench/invoke.py``) that imports ``marcsim.cli`` and calls
``marcsim.cli.main(argv)`` for the workload's ``marcsim sweep|prob`` command,
with one BLAS thread. A run repeats invocations for S seconds (at least
``MIN_INVOCATIONS``). The first invocation uses the workload's golden seed and
its CSV must match ``perfbench/golden/NAME.csv`` to 1e-12 relative; the others
use seeds drawn from N and get the structural checks of ``gate.py``.

``--trace 0`` reports the end-to-end metrics: trials per second over all
invocations, and medians of set-up time and peak RSS. Times are converted
to reference seconds with a calibration kernel timed in each invocation
(``CAL_REF_S``; the raw figures go to the record file).
``--trace 1`` alternates untraced and traced invocations at ``--workers 1``
and reports per-layer self times and call counts, then, for a workload with
more than one worker, counts pool starts in one traced invocation at its own
worker count (spans from forked workers never reach the parent).

The last line of stdout is one JSON object: ``correct``, ``attempted``
(trials), ``failed`` (resampled draws plus the trials of every invocation
that exited non-zero or failed a gate) and ``metrics``. The same object,
every invocation's record and a run manifest go to
``perfbench/out/NAME-seedN-traceT.json``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_INVOCATIONS = 3
INVOKE_TIMEOUT_S = 120
BLAS_PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
_RESAMPLED = re.compile(r"resampled_trials=(\d+)")

# Seconds the calibration kernel takes on the reference machine. End-to-end
# times are converted to reference seconds by CAL_REF_S / (the kernel's time
# around the main() call): see invoke.calibrate().
CAL_REF_S = 0.1


def parse_grid(spec: str) -> tuple[float, ...]:
    """Values of an inclusive ``lo:hi:step`` spec, as ``marcsim`` expands it."""
    lo, hi, step = (float(p) for p in spec.split(":"))
    return tuple(lo + i * step for i in range(int((hi - lo) / step + 1e-9) + 1))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "sweep" or "prob"
    users: int
    antennas: int
    alphas: tuple[str, ...]
    grid_flag: str  # the swept axis: --pr-db for sweep, --pmax-db for prob
    grid_spec: str
    fixed: tuple[str, ...]  # other flags, fixed for the workload
    trials: int  # per cell
    workers: int
    golden_seed: int

    @property
    def golden_csv(self) -> Path:
        return HERE / "golden" / f"{self.name}.csv"

    @property
    def grid(self) -> tuple[float, ...]:
        return parse_grid(self.grid_spec)

    @property
    def cells(self) -> int:
        return len(self.alphas) * len(self.grid)

    def workers_here(self) -> int:
        return min(self.workers, os.cpu_count() or 1)

    def argv(self, seed: int, trials: int, workers: int, out: str) -> list[str]:
        argv = [self.command, "--users", str(self.users), "--antennas", str(self.antennas)]
        for a in self.alphas:
            argv += ["--alpha", a]
        return argv + [
            self.grid_flag, self.grid_spec, *self.fixed, "--trials", str(trials),
            "--seed", str(seed), "--workers", str(workers), "--out", out,
        ]


# Why each workload is here: perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep-crit8", "sweep", 10, 4, ("0.1", "1.0"), "--pr-db", "0:40:10", ("--pmax-db", "10"),
        trials=8, workers=1, golden_seed=8,
    ),
    Workload(
        "prob-k50m8", "prob", 50, 8, ("0.1", "0.3", "1.0"), "--pmax-db", "0:20:10", (),
        trials=10, workers=1, golden_seed=9,
    ),
    Workload(
        "sweep-small-w2", "sweep", 3, 2, ("0.5", "1.0"), "--pr-db", "0:40:2", ("--pmax-db", "10"),
        trials=20, workers=2, golden_seed=10,
    ),
)}


def invocation_seeds(w: Workload, seed: int):
    """The golden seed, then an endless deterministic stream drawn from seed."""
    yield w.golden_seed
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**32)


def invoke(argv: list[str], trace: bool) -> dict:
    """Run one ``marcsim.cli.main(argv)`` in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "invoke.py"), str(ROOT / "src"), str(int(trace)), *argv]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env={**os.environ, **BLAS_PIN}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=INVOKE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = "", f"timed out after {INVOKE_TIMEOUT_S} s"
    finally:
        # The child's session holds its pool workers; end any left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    rec = {"argv": argv, "traced": trace, "errors": []}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        rec["errors"].append(f"invoke exited {proc.returncode}: {err.strip()[-500:]}")
        return rec
    report = json.loads(lines[-1])
    if report["exit_code"] != 0:
        rec["errors"].append(f"marcsim exited {report['exit_code']}: {err.strip()[-500:]}")
    if not Path(report["marcsim_file"]).resolve().is_relative_to(ROOT / "src"):
        rec["errors"].append(f"imported marcsim from {report['marcsim_file']}")
    match = _RESAMPLED.search(err)
    rec.update(
        setup_s=report["ready"] - t0,
        wall_s=report["wall_s"],
        resampled=int(match.group(1)) if match else 0,
        rss_self_kb=report["rss_self_kb"],
        rss_children_kb=report["rss_children_kb"],
        cal_s=report["cal_s"],
        trace=report["trace"],
    )
    return rec


def run_one(
    w: Workload, tmp: Path, seed: int, *, trace: bool = False,
    workers: int | None = None, trials: int | None = None,
) -> dict:
    """One invocation plus its gates. ``trials`` is per cell."""
    trials = trials or w.trials
    workers = workers or w.workers_here()
    csv_path = tmp / f"{seed}-{int(trace)}-{workers}.csv"
    rec = invoke(w.argv(seed, trials, workers, str(csv_path)), trace)
    rec.update(seed=seed, workers=workers, trials=trials * w.cells)
    if not rec["errors"]:
        # Upper estimate of the concurrent peak: the process plus each of its
        # workers at the largest worker's peak.
        extra = workers * rec["rss_children_kb"] if workers > 1 else 0
        rec["rss_mb"] = (rec["rss_self_kb"] + extra) / 1024
        text = csv_path.read_text()
        rec["errors"] += gate.structure_errors(text, w.command, w.alphas, w.grid, trials, seed)
        if seed == w.golden_seed and trials == w.trials:
            dev = gate.golden_deviation(text, w.golden_csv.read_text(), w.command)
            rec["csv_max_rel_dev"] = dev
            if not dev <= gate.GOLDEN_RTOL:
                rec["errors"].append(f"golden gate: max relative deviation {dev:.3e}")
    rec["ok"] = not rec["errors"]
    return rec


def measure(w: Workload, tmp: Path, seed: int, seconds: float) -> list[dict]:
    seeds = invocation_seeds(w, seed)
    records: list[dict] = []
    deadline = time.monotonic() + seconds
    while len(records) < MIN_INVOCATIONS or time.monotonic() < deadline:
        records.append(run_one(w, tmp, next(seeds)))
    return records


def measure_traced(w: Workload, tmp: Path, seed: int, seconds: float):
    """Pairs of (untraced, traced) invocations on one seed at one worker,
    alternating which runs first; then a pool-count invocation when the
    workload has more than one worker."""
    seeds = invocation_seeds(w, seed)
    pairs: list[tuple[dict, dict]] = []
    deadline = time.monotonic() + seconds
    while not pairs or time.monotonic() < deadline:
        s = next(seeds)
        order = (True, False) if len(pairs) % 2 else (False, True)
        recs = {t: run_one(w, tmp, s, trace=t, workers=1) for t in order}
        pairs.append((recs[False], recs[True]))
    pool = None
    if w.workers_here() > 1:
        pool = run_one(w, tmp, w.golden_seed, trace=True)
    return pairs, pool


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    values = sorted(values)
    return values[max(0, math.ceil(q * len(values)) - 1)]


def counts(records: list[dict]) -> tuple[int, int]:
    attempted = sum(r["trials"] for r in records)
    failed = sum(r.get("resampled", 0) if r["ok"] else r["trials"] for r in records)
    return attempted, failed


def to_ref(r: dict) -> float:
    """Factor converting the invocation's seconds to reference seconds."""
    return CAL_REF_S / r["cal_s"]


def end_to_end_metrics(records: list[dict], calibrated: bool = True) -> dict:
    """Trials over the summed wall time of the main() calls, and medians of
    set-up time and peak RSS. Times are in reference seconds unless
    ``calibrated`` is false."""
    ok = [r for r in records if r["ok"]]
    scale = to_ref if calibrated else (lambda r: 1.0)
    wall = sum(r["wall_s"] * scale(r) for r in ok)
    return {
        "trials_per_s": (sum(r["trials"] for r in ok) / wall, "1/s"),
        "setup_s": (statistics.median(r["setup_s"] * scale(r) for r in ok), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in ok), "MB"),
    }


def layer_metrics(pairs: list[tuple[dict, dict]], pool: dict | None, records) -> dict:
    traced = [t for _, t in pairs if t["ok"]]
    trials = sum(r["trials"] for r in traced)

    def total(field: str, name: str) -> float:
        return sum(r["trace"][field].get(name, 0) for r in traced)

    def us_per_trial(seconds: float) -> float:
        return seconds / trials * 1e6

    slots_us = [d for r in traced for d in r["trace"]["optimize_slots_us"]]
    ratios = [
        t["wall_s"] * to_ref(t) / (u["wall_s"] * to_ref(u)) for u, t in pairs if u["ok"] and t["ok"]
    ]
    pool_rec = pool if pool is not None else traced[-1]
    attempted, failed = counts(records)
    m = {
        f"{layer}.self_us_per_trial": (us_per_trial(total("layer_self_s", layer)), "us")
        for layer in ("tdma", "channel", "numerics", "joint", "harness")
    }
    m.update({
        "tdma.optimize_slots.us_p50": (percentile(slots_us, 0.50), "us"),
        "tdma.optimize_slots.us_p99": (percentile(slots_us, 0.99), "us"),
        "tdma.kkt_spread_max": (max(r["trace"]["kkt_spread_max"] for r in traced), "bits"),
        "channel.sample_us_per_trial": (us_per_trial(
            total("inclusive_s", "channel.trial_rng")
            + total("inclusive_s", "channel.sample_channel")), "us"),
        "channel.compute_aggregates.calls_per_trial": (
            total("calls", "channel.compute_aggregates") / trials, "count"),
        "numerics.dominant_eigenpair.calls_per_trial": (
            total("calls", "numerics.dominant_eigenpair") / trials, "count"),
        "harness.pool_starts": (
            pool_rec["trace"]["calls"].get("harness.ProcessPoolExecutor", 0)
            if pool_rec["ok"] else 0, "count"),
        "harness.resampled_trials": (sum(r.get("resampled", 0) for r in records), "count"),
        "harness.csv_max_rel_dev": (
            max(r.get("csv_max_rel_dev", 0.0) for r in records), "ratio"),
        "cli.self_ms": (
            statistics.median(r["trace"]["layer_self_s"]["cli"] * 1e3 for r in traced), "ms"),
        "trace.overhead_share": (statistics.median(ratios) - 1.0, "ratio"),
        "failed_share": (failed / attempted, "ratio"),
    })
    return m


def stage_split(pairs: list[tuple[dict, dict]]) -> dict:
    """Inclusive microseconds per trial and calls per trial of every traced
    entry point, for the record file."""
    traced = [t for _, t in pairs if t["ok"]]
    trials = sum(r["trials"] for r in traced)
    names = sorted({n for r in traced for n in r["trace"]["calls"]})
    return {
        n: {
            "us_per_trial": sum(r["trace"]["inclusive_s"].get(n, 0.0) for r in traced)
            / trials * 1e6,
            "calls_per_trial": sum(r["trace"]["calls"].get(n, 0) for r in traced) / trials,
        }
        for n in names
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def manifest(w: Workload, seed: int, seconds: int, trace: bool) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = None
    return {
        "workload": w.name,
        "seed": seed,
        "golden_seed": w.golden_seed,
        "seconds": seconds,
        "trace": trace,
        "workers": w.workers_here(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": blas,
        "git_commit": _git_commit(),
        "blas_thread_pin": BLAS_PIN,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "marcsim" / "cli.py").is_file():
        print(f"error: no marcsim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    os.environ.update(BLAS_PIN)  # before this process imports numpy
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            pairs, pool = measure_traced(w, Path(tmp), args.seed, args.seconds)
            records = [r for pair in pairs for r in pair] + ([pool] if pool else [])
        else:
            records = measure(w, Path(tmp), args.seed, args.seconds)
    for r in records:
        if r["errors"]:
            print(f"seed {r['seed']}: {r['errors']}", file=sys.stderr)
    measured = [u["ok"] and t["ok"] for u, t in pairs] if args.trace else [r["ok"] for r in records]
    if not any(measured):
        print("error: no invocation completed; nothing to report", file=sys.stderr)
        return 1
    metrics = layer_metrics(pairs, pool, records) if args.trace else end_to_end_metrics(records)
    attempted, failed = counts(records)
    result = {
        "correct": all(r["ok"] for r in records),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "manifest": manifest(w, args.seed, args.seconds, bool(args.trace)),
        "result": result,
        "stages": stage_split(pairs) if args.trace else None,
        "uncalibrated": None if args.trace else end_to_end_metrics(records, calibrated=False),
        "invocations": records,
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
