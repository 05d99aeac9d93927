"""Run one ``marcsim`` command in this fresh interpreter and report on it.

Usage::

    python3 invoke.py SRC_DIR TRACE ARGV...

Imports ``marcsim.cli`` from SRC_DIR, calls ``marcsim.cli.main(ARGV)`` exactly
as the ``marcsim`` console script would, and prints one JSON line:

* ``ready``: ``time.monotonic()`` once ``marcsim.cli`` is imported. The
  parent subtracts its own ``time.monotonic()`` taken just before the spawn
  (both read the system-wide monotonic clock), which gives the set-up time.
* ``wall_s``: wall time of the ``main`` call; ``exit_code``: its return value.
* ``rss_self_kb`` / ``rss_children_kb``: peak RSS of this process and of its
  largest reaped child (a pool worker), as ``getrusage`` reports them.
* ``trace``: with TRACE=1, the span tree reduced to per-layer figures.

With TRACE=1 the layer entry points are wrapped, before ``main`` runs, at the
module bindings their callers read (see ``WRAPPED``); ``src/`` is not edited.
Spans opened in forked pool workers never reach this process, so layer spans
are only meaningful at ``--workers 1``; pool starts are counted at any count.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import resource
import sys
import time
from collections import Counter, defaultdict
from time import perf_counter

ROOT_SPAN = "cli.main"

# (module whose global the caller reads, attribute, layer, span name). The
# layer is the module that defines the function; ProcessPoolExecutor is
# charged to the harness that starts the pool. The two ``marcsim.cli``
# bindings give the harness a span of its own, so that ``cli`` self time is
# argument parsing and CSV writing only.
WRAPPED = (
    ("marcsim.cli", "run_sweep", "harness", "harness.run_sweep"),
    ("marcsim.cli", "estimate_superiority_probability", "harness",
     "harness.estimate_superiority_probability"),
    ("marcsim.harness", "ProcessPoolExecutor", "harness", "harness.ProcessPoolExecutor"),
    ("marcsim.harness", "trial_rng", "channel", "channel.trial_rng"),
    ("marcsim.harness", "sample_channel", "channel", "channel.sample_channel"),
    ("marcsim.harness", "lower_bound", "joint", "joint.lower_bound"),
    ("marcsim.harness", "optimize_slots", "tdma", "tdma.optimize_slots"),
    ("marcsim.harness", "asymptotic_allocation", "tdma", "tdma.asymptotic_allocation"),
    ("marcsim.joint", "compute_aggregates", "channel", "channel.compute_aggregates"),
    ("marcsim.joint", "dominant_eigenpair", "numerics", "numerics.dominant_eigenpair"),
    ("marcsim.joint", "relay_tx_power", "channel", "channel.relay_tx_power"),
    ("marcsim.tdma", "compute_aggregates", "channel", "channel.compute_aggregates"),
    ("marcsim.tdma", "dominant_eigenpair", "numerics", "numerics.dominant_eigenpair"),
    ("marcsim.tdma", "joint_beats_tdma_asymptotic", "tdma",
     "tdma.joint_beats_tdma_asymptotic"),
)

LAYERS = ("numerics", "channel", "joint", "tdma", "harness", "cli")


def _kernel(np) -> float:
    a = np.eye(4, dtype=complex) * 0.5 + 0.1
    x = 0.0
    t0 = time.perf_counter()
    for i in range(60_000):
        x += math.log1p(i * 1e-3) / (1.0 + x * 1e-9)
        if i % 8 == 0:
            a = (a @ a.conj().T) / np.linalg.norm(a)
    return time.perf_counter() - t0


def calibrate(cpus: int) -> float:
    """Seconds this machine takes, right now, for a fixed mix of Python float
    arithmetic and small complex numpy products, the mix a marcsim trial runs.
    With more than one CPU, the mean over the first ``cpus`` CPUs this process
    may use, pinned to each in turn.

    The machine this benchmark was built on changes speed by tens of percent
    within seconds, and its CPUs do so independently (identical calls took
    0.81-1.46 s back to back, CPU time equal to wall time); no amount of
    averaging inside a 30 s run removes that. Timing this kernel, which does
    not touch marcsim, right before and after the main() call tracks the
    drift without tracking the program.
    """
    import numpy as np  # here, so that set-up time is marcsim's own imports

    if cpus <= 1 or not hasattr(os, "sched_setaffinity"):
        return _kernel(np)
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed)[:cpus]:
            os.sched_setaffinity(0, {cpu})
            times.append(_kernel(np))
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


class Tracer:
    """In-memory span recorder: one ``[name, layer, parent, start, end]`` list
    per call, parents taken from the stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.kkt_spread_max = 0.0

    def wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, layer, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(i)
            spans[i][3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[i][4] = perf_counter()
                stack.pop()

        return traced

    def record_kkt(self, optimize_slots):
        """Keep the worst KKT spread of the allocations the optimizer returns."""

        def recorded(*args, **kwargs):
            alloc = optimize_slots(*args, **kwargs)
            self.kkt_spread_max = max(self.kkt_spread_max, float(alloc.kkt_spread))
            return alloc

        return recorded

    def install(self):
        for module_name, attr, layer, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            if name == "tdma.optimize_slots":
                fn = self.record_kkt(fn)
            setattr(module, attr, self.wrap(fn, name, layer))

    def summary(self) -> dict:
        """Reduce the span tree: a span's self time is its duration minus the
        durations of its direct children (calls here are never concurrent)."""
        spans = self.spans
        dur = [end - start for _, _, _, start, end in spans]
        child = [0.0] * len(spans)
        for i, (_, _, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        inclusive: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, layer, _, _, _) in enumerate(spans):
            layer_self[layer] += dur[i] - child[i]
            inclusive[name] += dur[i]
            calls[name] += 1
        return {
            "layer_self_s": layer_self,
            "inclusive_s": dict(inclusive),
            "calls": dict(calls),
            "optimize_slots_us": [
                dur[i] * 1e6 for i, s in enumerate(spans) if s[0] == "tdma.optimize_slots"
            ],
            "kkt_spread_max": self.kkt_spread_max,
        }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] not in ("0", "1"):
        print(__doc__, file=sys.stderr)
        return 2
    src, trace, cli_argv = argv[0], argv[1] == "1", argv[2:]
    sys.path.insert(0, src)
    cli = importlib.import_module("marcsim.cli")
    ready = time.monotonic()

    tracer = None
    entry = cli.main
    if trace:
        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap(cli.main, ROOT_SPAN, "cli")
    # Calibrate on as many CPUs as the call's workers can occupy.
    cpus = int(cli_argv[cli_argv.index("--workers") + 1]) if "--workers" in cli_argv else 1
    cal_before = calibrate(cpus)
    t0 = perf_counter()
    code = entry(cli_argv)
    wall = perf_counter() - t0
    cal_s = 0.5 * (cal_before + calibrate(cpus))

    report = {
        "ready": ready,
        "wall_s": wall,
        "cal_s": cal_s,
        "exit_code": code,
        "marcsim_file": cli.__file__,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "trace": tracer.summary() if tracer else None,
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
