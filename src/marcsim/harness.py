"""Monte Carlo experiment driver.

Each table sweeps one power, SweepConfig.grid_db, for several alpha.
run_sweep averages the joint-relaying bounds and the optimized TDMA sum rate
over P_r; estimate_superiority_probability estimates over P_max the
probability that joint relaying wins as the relay power grows without bound.

One pipeline serves both tables; they differ only in the swept power, the
block evaluator and how a cell's values become rows. The trials of the
cells, in sorted (alpha, dB) order, form one flat list, and a block is a
slice of it, so a block can span cells. A run is split into n process
groups: W, at most the CPU count, but no more than leave every process the
work that pays for its start, _MIN_PROCESS_WORK, a trial weighing
sqrt(K * M_r); a smaller run is one group, computed here. Each group is a
contiguous run of the same number of equal blocks, as few as keep a block
within a byte budget on its memory, at a footprint per trial fitted in K
and M_r. The calling process computes the
first group; with more groups, one process pool, of one process per
further group, computes the others at the same time. Every trial draws
from a substream keyed on (seed, trial index), seeded in bulk for a block,
and no trial's values depend on the rest of its block, as the kernels take
C-ordered stacks, so results are byte-identical for any W >= 1. A failed
draw is redrawn on a flagged substream, in a smaller block, by one loop. A
block returns its values, with a leading trial axis, and its redraw count;
the table reads the blocks joined into one (cells, trials, ...) array.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from itertools import product
from math import sqrt

import numpy as np

from .channel import (
    ChannelBlock, ChannelRealization, ScenarioConfig, compute_aggregates, sample_block,
    sample_channel, trial_rng,
)
from .errors import NumericalError, ValidationError
from .joint import (
    _ORDER_SLACK, JointRateBounds, RelayMatrix, block_bounds, lower_bound, sum_rate_closed,
    sum_rate_logdet,
)
from .numerics import quadratic_form
from .tdma import (
    _KKT_ATOL, _SIMPLEX_ATOL, AsymptoticResult, TdmaAllocation, _kkt_gaps, _kkt_tolerance,
    asymptotic_allocation, block_asymptotic, block_slots, optimize_slots,
)

__all__ = [
    "SweepConfig", "SweepRow", "SweepResult", "ProbRow", "ProbResult", "RealizationMetrics",
    "CheckOutcome", "evaluate_realization", "run_sweep", "estimate_superiority_probability",
    "invariant_suite", "METRICS",
]

METRICS = ("joint_lower", "joint_up1", "joint_up2", "joint_up_min", "tdma_sum_rate")

_MAX_RESAMPLES = 100
_BLOCK_BYTES = 1 << 22  # budget of a block's peak memory, at _trial_bytes per trial
# Work, in trials times sqrt(K * M_r), that pays for importing the pool and
# starting a process: at W = 2 a run of twice this work is about as fast on
# two processes as on one (tools/fanout_breakeven.py).
_MIN_PROCESS_WORK = 9250


def _trial_bytes(K: int, M_r: int) -> int:
    """Bytes a trial of K users and M_r relay antennas adds to a block's peak
    memory: the M_r x M_r aggregates grow it as M_r^2, the channel and the
    slot arrays as K * M_r and K. A fit to the traced peaks of both tables'
    blocks, which lie within 0.5-1.25 times it for K 1-50 and M_r 1-8
    (tools/block_footprint.py --grid)."""
    return 25 * K * (M_r + 8) + 100 * (M_r * M_r + 4)


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValidationError(f"{db} dB overflows a float") from None


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification for one Monte Carlo table.

    grid_db is the swept power in dB over the unit noise (P = 10^(dB/10)):
    P_r for run_sweep, P_max for estimate_superiority_probability, in place
    of the base scenario's. A trial's checks are fixed.
    """

    base: ScenarioConfig
    grid_db: tuple[float, ...]
    alpha_values: tuple[float, ...] = (1.0,)
    n_trials: int = 1000

    def __post_init__(self):
        for name in ("grid_db", "alpha_values"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        if not 1 <= self.n_trials < 2**32:
            raise ValidationError(f"n_trials must be in [1, 2**32), got {self.n_trials}")
        if not self.alpha_values or not self.grid_db:
            raise ValidationError("alpha and power grids must be non-empty")


@dataclass(frozen=True)
class RealizationMetrics:
    """All per-realization quantities the sweeps aggregate."""

    bounds: JointRateBounds
    tdma: TdmaAllocation
    asymptotic: AsymptoticResult

    def metric_values(self) -> dict[str, float]:
        return dict(zip(METRICS, _metrics(self.bounds, self.tdma)))

    def to_json_dict(self) -> dict:
        def plain(record, names: str) -> dict:
            return {n: np.asarray(getattr(record, n)).tolist() for n in names.split()}

        return {
            "joint": plain(self.bounds, "r_lower r_up1 r_up2 r_up_min gamma"),
            "tdma": plain(self.tdma, "tau per_user_rate sum_rate kkt_spread"),
            "asymptotic": plain(self.asymptotic, "tau_inf rate_inf joint_rate_inf joint_wins"),
            "joint_beats_tdma_asymptotic": bool(self.asymptotic.joint_wins),
        }


def _metrics(bounds: JointRateBounds, alloc: TdmaAllocation) -> tuple:
    """The METRICS of a trial, or of each trial of a block as arrays."""
    return bounds.r_lower, bounds.r_up1, bounds.r_up2, bounds.r_up_min, alloc.sum_rate


def evaluate_realization(c: ChannelRealization) -> RealizationMetrics:
    """Joint bounds, optimized TDMA allocation, asymptotic comparison and the
    superiority predicate for one realization."""
    return RealizationMetrics(lower_bound(c), optimize_slots(c), asymptotic_allocation(c))


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    pr_db: float
    metric: str
    mean: float
    stderr: float
    n_trials: int
    seed: int


@dataclass(frozen=True)
class ProbRow:
    alpha: float
    pmax_db: float
    probability: float
    stderr: float
    n_trials: int
    seed: int


@dataclass(frozen=True)
class TableResult:
    """The rows of one Monte Carlo table, in CSV order, and the number of
    resampled draws behind them."""

    rows: tuple[SweepRow, ...] | tuple[ProbRow, ...]
    resampled_trials: int = 0

    def to_csv(self) -> str:
        """Header from the row fields, then one line per row; floats at 10
        significant digits; empty without rows."""
        if not self.rows:
            return ""
        names = [f.name for f in fields(self.rows[0])]
        lines = [",".join(names)]
        for r in self.rows:
            values = (getattr(r, n) for n in names)
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in values))
        return "\n".join(lines) + "\n"


SweepResult = ProbResult = TableResult


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _sweep_block(blk: ChannelBlock):
    """The METRICS of each trial of a block, (N, 5), and a failure message per
    trial ("" when it passed every check)."""
    agg = compute_aggregates(blk)
    b, _, why = block_bounds(blk, agg)
    alloc, why_slots = block_slots(agg.d, agg.nr, agg.hp)
    return np.stack(_metrics(b, alloc), axis=1), np.where(why != "", why, why_slots)


def _prob_block(blk: ChannelBlock):
    """The superiority predicate of each trial of a block; no check can fail."""
    wins = block_asymptotic(compute_aggregates(blk)).joint_wins
    return wins, np.full(wins.shape, "")


def _trial_block(evaluate, scens: list[ScenarioConfig], n_trials: int, lo: int, hi: int):
    """The values of items lo <= i < hi of the flat (cell, trial) list,
    i = cell * n_trials + trial, evaluated as one block with a leading item
    axis, and the number of redraws behind them. Draws that fail a check are
    redrawn as a block on their next flagged substreams, over their rows."""
    rows, resampled = np.arange(hi - lo), 0  # the rows still to draw
    for retry in range(_MAX_RESAMPLES):
        items = (rows + lo).tolist()
        got, why = evaluate(sample_block([scens[i // n_trials] for i in items],
                                         [i % n_trials for i in items], retry))
        if retry:
            values[rows] = got
            resampled += len(rows)
        else:
            values = got
        failed = why != ""
        if not failed.any():
            return values, resampled
        rows = rows[failed]
    raise NumericalError(f"trial {(rows[0] + lo) % n_trials} failed after {_MAX_RESAMPLES} "
                         f"resamples: {why[failed][0]}")


def ProcessPoolExecutor(max_workers: int):  # noqa: N802  (stands in for the class it returns)
    """A concurrent.futures process pool, imported by the first run that forks."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=max_workers)


def _run_blocks(tasks) -> list:
    """The (values, redraws) of each of a group's blocks, in order."""
    return [_trial_block(*task) for task in tasks]


def _run_cells(evaluate, scens: list[ScenarioConfig], n_trials: int, workers: int):
    """``evaluate``d values of trials t < n_trials of every cell, as one
    (cells, n_trials, ...) array, and the total number of redraws. workers
    is an upper bound: it is capped at the CPU count, as a pool starts all
    its processes at once, and at one process per _MIN_PROCESS_WORK of the
    run's work, items * sqrt(K * M_r), which gives n groups; W = 1 and a run
    of less than twice that work are one group. Each group gets the same
    number of blocks of about equal size, as few as keep a block within the
    _BLOCK_BYTES // _trial_bytes(K, M_r) trials that fit its memory budget,
    so that the groups finish together; a block of many small trials as of a
    few large ones, as every block pays the kernels' fixed cost per call
    again. The blocks, in order, form min(n, blocks) contiguous groups. With
    more than one group, one pool of a process per group after the first
    takes those groups while this process computes the first; the groups are
    joined in order."""
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    items, K, M_r = len(scens) * n_trials, scens[0].K, scens[0].M_r
    n = max(1, min(workers, os.cpu_count() or 1, int(items * sqrt(K * M_r) // _MIN_PROCESS_WORK)))
    per_group = -(-items // (n * max(1, _BLOCK_BYTES // _trial_bytes(K, M_r))))
    size = -(-items // (n * per_group))
    tasks = [(evaluate, scens, n_trials, lo, min(lo + size, items))
             for lo in range(0, items, size)]
    n = min(n, len(tasks))
    groups = [tasks[g * len(tasks) // n:(g + 1) * len(tasks) // n] for g in range(n)]
    if n == 1:
        blocks = _run_blocks(tasks)
    else:
        with ProcessPoolExecutor(max_workers=n - 1) as pool:
            rest = pool.map(_run_blocks, groups[1:])
            blocks = _run_blocks(groups[0])
            for group in rest:
                blocks += group
    values, counts = zip(*blocks)
    return np.concatenate(values).reshape(len(scens), n_trials, *values[0].shape[1:]), sum(counts)


def _run_table(cfg: SweepConfig, power: str, evaluate, workers: int):
    """Run ``evaluate`` on cfg.n_trials draws of every (alpha, dB) cell of
    cfg.grid_db, where dB sets the scenario's ``power`` ("P_r" or "P_max").
    Returns the cells in sorted order, their values as one (cells, n_trials,
    ...) array and the total number of redraws."""
    cells = sorted(product(cfg.alpha_values, cfg.grid_db))
    scens = [replace(cfg.base, alpha=a, **{power: db_to_linear(db)})
             for a, db in cells]
    return (cells, *_run_cells(evaluate, scens, cfg.n_trials, workers))


def run_sweep(cfg: SweepConfig, workers: int = 1) -> SweepResult:
    """Average each metric over n_trials independent realizations for every
    (alpha, P_r) cell, P_r from cfg.grid_db. Deterministic for a fixed
    config: trial t of every cell draws from the substream keyed on (seed, t)."""
    n, seed = cfg.n_trials, cfg.base.seed
    cells, values, resampled = _run_table(cfg, "P_r", _sweep_block, workers)
    # Contiguous trials per (cell, metric): the reductions then sum in the
    # order each cell's own contiguous copy would.
    by_metric = np.ascontiguousarray(values.transpose(0, 2, 1))
    means = by_metric.mean(axis=-1)
    stderrs = by_metric.std(axis=-1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(means)
    rows = [SweepRow(alpha, pr_db, m, float(mean), float(stderr), n, seed)
            for (alpha, pr_db), cell_means, cell_stderrs in zip(cells, means, stderrs)
            for m, mean, stderr in zip(METRICS, cell_means, cell_stderrs)]
    # Only equal cells, from a repeated alpha, move: they interleave by metric.
    rows.sort(key=lambda r: (r.alpha, r.pr_db, r.metric))
    return SweepResult(rows=tuple(rows), resampled_trials=resampled)


def estimate_superiority_probability(cfg: SweepConfig, workers: int = 1) -> ProbResult:
    """Fraction of realizations where joint relaying beats optimally slotted
    TDMA in the unbounded-relay-power regime, per (alpha, P_max) cell, P_max
    from cfg.grid_db, with the binomial standard error."""
    n, seed = cfg.n_trials, cfg.base.seed
    cells, values, resampled = _run_table(cfg, "P_max", _prob_block, workers)
    rows = []
    for (alpha, pmax_db), count in zip(cells, values.sum(axis=1).tolist()):
        p = count / n
        rows.append(ProbRow(alpha, pmax_db, p, float(np.sqrt(p * (1.0 - p) / n)), n, seed))
    return ProbResult(rows=tuple(rows), resampled_trials=resampled)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    worst: float  # largest observed violation measure (0 when clean)
    threshold: float


def invariant_suite(scen: ScenarioConfig, n_trials: int = 100) -> list[CheckOutcome]:
    """Exercise the cross-formula invariants on random realizations.

    The draws are evaluated as one block by the kernels the sweeps run; only
    sum_rate_closed, the independent closed form, builds a trial's aggregates
    again. Returns one outcome per invariant with the worst violation seen;
    used by the CLI ``check`` subcommand. ValidationError unless n_trials >= 1.
    """
    if n_trials < 1:
        raise ValidationError(f"n_trials must be >= 1, got {n_trials}")
    draws, probes = [], []
    for t in range(n_trials):
        rng = trial_rng(scen.seed, t)
        draws.append(sample_channel(scen, rng))
        M = scen.M_r  # three PSD probes x, then a relay matrix F
        probes.append([rng.standard_normal(s) + 1j * rng.standard_normal(s)
                       for s in (M, M, M, (M, M))])
    blk = ChannelBlock.stack(draws)
    agg = compute_aggregates(blk)
    b, v, why = block_bounds(blk, agg)
    alloc, why_slots = block_slots(agg.d, agg.nr, agg.hp)
    asym = block_asymptotic(agg)
    for message in np.concatenate([why, why_slots]):
        if message:
            raise NumericalError(message)
    scale = np.maximum(1.0, np.maximum(abs(agg.W).max(axis=(1, 2)), abs(agg.T).max(axis=(1, 2))))
    rows = []
    for i, (c, (*xs, F)) in enumerate(zip(draws, probes)):
        f = RelayMatrix.beamformer(c, v[i], b.gamma[i])
        rows.append((
            max(-quadratic_form(x, A[i]) for x, A in zip(xs, (agg.R, agg.T, agg.W))) / scale[i],
            abs(sum_rate_logdet(F, c) - sum_rate_closed(F, c)),
            abs(b.r_lower[i] - sum_rate_logdet(f, c)),
            abs(f.tx_power - c.P_r) / max(1.0, c.P_r),
        ))
    psd, formulas, logdet, power = np.array(rows).T
    _, slack, nu = _kkt_gaps(agg.d, agg.nr, agg.hp[:, None], alloc.tau)
    # The KKT gaps in bits times _KKT_ATOL / min(_KKT_ATOL, _KKT_RTOL * nu):
    # each is within its threshold _KKT_ATOL iff it is within its tolerance.
    kkt_scale = _KKT_ATOL / np.maximum(_kkt_tolerance(nu), np.finfo(float).tiny)
    gap = asym.joint_rate_inf - asym.rate_inf
    checks = {  # name: (violation measure per trial, threshold)
        "aggregates_identity": (
            abs(agg.s[:, None, None] * agg.R - agg.T - agg.W).max(axis=(1, 2)) / scale, 1e-10),
        "aggregates_psd": (psd, 1e-10),
        "rate_formula_equivalence": (formulas, 1e-10),
        "bound_ordering": (b.r_lower - b.r_up_min, _ORDER_SLACK),
        "lower_matches_logdet": (logdet, 1e-9),
        "relay_power_equality": (power, 1e-8),
        "tdma_kkt_spread": (alloc.kkt_spread * kkt_scale, _KKT_ATOL),
        "tdma_slackness": (slack * kkt_scale, _KKT_ATOL),
        "tau_simplex": (abs(alloc.tau.sum(axis=1) - 1.0), _SIMPLEX_ATOL),
        # any disagreement counts as 1.0
        "asymptotic_predicate": ((abs(gap) > 1e-9) & (asym.joint_wins != (gap > 0.0)), 0.5),
    }
    worst = {name: max(0.0, float(np.max(m))) for name, (m, _) in checks.items()}
    return [CheckOutcome(name, worst[name] <= limit, worst[name], limit)
            for name, (_, limit) in checks.items()]
