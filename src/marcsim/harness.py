"""Monte Carlo experiment driver.

Sweeps (alpha, P_r) grids averaging the joint-relaying bounds and the
optimized TDMA sum rate, and estimates the probability that joint relaying
wins in the unbounded-relay-power regime over an (alpha, P_max) grid.

One pipeline serves both tables; they differ only in the block evaluator and
in how a cell's values become rows. The trials of the cells, in sorted
(alpha, dB) order, form one flat list, and a block is a slice of it, so a
block can span cells. At W = 1 the whole run is one block, up to a cap that
bounds its memory; at W > 1 one process pool serves the run and each worker
takes about _BLOCKS_PER_WORKER blocks. Every trial draws from a substream
keyed on (seed, trial index), and no trial's values depend on the rest of
its block, so results are byte-identical for any W >= 1. A draw that fails
a check is redrawn on a flagged substream, in a smaller block, by one
resample loop that counts the retries.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import product

import numpy as np

from .channel import (
    ChannelBlock, ChannelRealization, ScenarioConfig, compute_aggregates, sample_block,
    sample_channel, trial_rng,
)
from .errors import NumericalError, ValidationError
from .joint import (
    JointRateBounds, RelayMatrix, block_bounds, lower_bound, sum_rate_closed, sum_rate_logdet,
)
from .numerics import quadratic_form
from .tdma import (
    AsymptoticResult, TdmaAllocation, asymptotic_allocation, block_asymptotic, block_slots,
    kkt_slackness, optimize_slots,
)

__all__ = [
    "SweepConfig", "SweepRow", "SweepResult", "ProbRow", "ProbResult", "RealizationMetrics",
    "CheckOutcome", "evaluate_realization", "run_sweep", "estimate_superiority_probability",
    "invariant_suite", "METRICS",
]

METRICS = ("joint_lower", "joint_up1", "joint_up2", "joint_up_min", "tdma_sum_rate")

_MAX_RESAMPLES = 100
_BLOCKS_PER_WORKER = 4  # trial blocks per pool worker over a whole run
_BLOCK_ENTRIES = 1 << 13  # cap on K * M_r relay coefficients summed over a block


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValidationError(f"{db} dB overflows a float") from None


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification for the Monte Carlo sweeps.

    pr_grid_db and pmax_grid_db are in dB over the unit noise
    (P = 10^(dB/10)); pmax_grid_db is only consulted by the
    superiority-probability table and defaults to the base scenario's P_max.
    """

    base: ScenarioConfig
    alpha_values: tuple[float, ...] = (1.0,)
    pr_grid_db: tuple[float, ...] = (10.0,)
    n_trials: int = 1000
    epsilon: float = 1e-8
    pmax_grid_db: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("alpha_values", "pr_grid_db", "pmax_grid_db"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        if self.n_trials < 1:
            raise ValidationError(f"n_trials must be >= 1, got {self.n_trials}")
        if not self.alpha_values or not self.pr_grid_db or self.pmax_grid_db == ():
            raise ValidationError("alpha, P_r and P_max grids must be non-empty")
        if not self.epsilon > 0:
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class RealizationMetrics:
    """All per-realization quantities the sweeps aggregate."""

    bounds: JointRateBounds
    tdma: TdmaAllocation
    asymptotic: AsymptoticResult
    joint_beats_tdma: bool

    def metric_values(self) -> dict[str, float]:
        return dict(zip(METRICS, _metrics(self.bounds, self.tdma)))

    def to_json_dict(self) -> dict:
        def plain(record, names: str) -> dict:
            return {n: np.asarray(getattr(record, n)).tolist() for n in names.split()}

        return {
            "joint": plain(self.bounds, "r_lower r_up1 r_up2 r_up_min gamma"),
            "tdma": plain(self.tdma, "tau per_user_rate sum_rate kkt_spread"),
            "asymptotic": plain(self.asymptotic, "tau_inf rate_inf joint_rate_inf joint_wins"),
            "joint_beats_tdma_asymptotic": self.joint_beats_tdma,
        }


def _metrics(bounds: JointRateBounds, alloc: TdmaAllocation) -> tuple:
    """The METRICS of a trial, or of each trial of a block as arrays."""
    return bounds.r_lower, bounds.r_up1, bounds.r_up2, bounds.r_up_min, alloc.sum_rate


def evaluate_realization(
    c: ChannelRealization, epsilon: float = 1e-8
) -> RealizationMetrics:
    """Joint bounds, optimized TDMA allocation, asymptotic comparison and the
    superiority predicate for one realization."""
    asym = asymptotic_allocation(c)
    return RealizationMetrics(lower_bound(c), optimize_slots(c, epsilon), asym,
                              bool(asym.joint_wins))


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


def _sweep_block(blk: ChannelBlock, epsilon: float):
    """The METRICS of each trial of a block, (N, 5), and a failure message per
    trial ("" when it passed every check)."""
    agg = compute_aggregates(blk)
    b, _, why = block_bounds(blk, agg)
    alloc, why_slots = block_slots(agg.d, agg.nr, agg.hp, epsilon)
    return np.stack(_metrics(b, alloc), axis=1), np.where(why != "", why, why_slots)


def _prob_block(blk: ChannelBlock, epsilon: float):
    """The superiority predicate of each trial of a block; no check can fail."""
    wins = block_asymptotic(compute_aggregates(blk)).joint_wins
    return wins, np.full(wins.shape, "")


def _trial_block(evaluate, scens: list[ScenarioConfig], n_trials: int, lo: int, hi: int) -> list:
    """(value, resamples) of items lo <= i < hi of the flat (cell, trial)
    list, i = cell * n_trials + trial, evaluated as one block. Draws that fail
    a check are redrawn on their trials' next flagged substreams, as a block."""
    done, last = {}, {}
    pending = list(range(lo, hi))
    for retry in range(_MAX_RESAMPLES):
        if not pending:
            break
        cfgs = [scens[i // n_trials] for i in pending]
        rngs = [trial_rng(cfg.seed, i % n_trials, retry) for cfg, i in zip(cfgs, pending)]
        values, why = evaluate(sample_block(cfgs, rngs))
        for i, value, message in zip(pending, values, why):
            done[i], last[i] = (value, retry), message
        pending = [i for i, message in zip(pending, why) if message]
    if pending:
        i = pending[0]
        raise NumericalError(
            f"trial {i % n_trials} failed after {_MAX_RESAMPLES} resamples: {last[i]}")
    return [done[i] for i in range(lo, hi)]


def _run_cells(evaluate, scens: list[ScenarioConfig], n_trials: int, workers: int) -> list:
    """``evaluate``d (value, resamples) of trials t < n_trials of every cell,
    cell by cell. At workers = 1 one block holds every trial, up to
    _BLOCK_ENTRIES relay coefficients; at workers > 1 one pool of at most
    ``workers`` processes takes about _BLOCKS_PER_WORKER blocks each."""
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    items = len(scens) * n_trials
    size = items if workers == 1 else -(-items // (_BLOCKS_PER_WORKER * workers))
    size = max(1, min(size, _BLOCK_ENTRIES // (scens[0].K * scens[0].M_r)))
    tasks = [(evaluate, scens, n_trials, lo, min(lo + size, items))
             for lo in range(0, items, size)]
    if workers == 1:
        blocks = [_trial_block(*task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            blocks = list(pool.map(_trial_block, *zip(*tasks)))
    flat = [r for block in blocks for r in block]
    return [flat[i * n_trials : (i + 1) * n_trials] for i in range(len(scens))]


def _run_table(cfg: SweepConfig, power: str, grid_db, evaluate, workers: int):
    """Run ``evaluate`` on cfg.n_trials draws of every (alpha, dB) cell, where
    dB sets the scenario's ``power`` ("P_r" or "P_max"). Returns the cells
    in sorted order, each cell's per-trial values and the total number of
    resamples."""
    cells = sorted(product(cfg.alpha_values, grid_db))
    scens = [replace(cfg.base, alpha=a, **{power: db_to_linear(db)})
             for a, db in cells]
    per_cell = _run_cells(evaluate, scens, cfg.n_trials, workers)
    resampled = sum(retries for results in per_cell for _, retries in results)
    return cells, [[value for value, _ in results] for results in per_cell], resampled


def run_sweep(cfg: SweepConfig, workers: int = 1) -> SweepResult:
    """Average each metric over n_trials independent realizations for every
    (alpha, P_r) cell. Deterministic for a fixed config: trial t of every
    cell draws from the substream keyed on (seed, t)."""
    n, seed = cfg.n_trials, cfg.base.seed
    evaluate = partial(_sweep_block, epsilon=cfg.epsilon)
    cells, per_cell, resampled = _run_table(cfg, "P_r", cfg.pr_grid_db, evaluate, workers)
    rows = []
    for (alpha, pr_db), values in zip(cells, per_cell):
        for m, vals in zip(METRICS, np.array(values).T):
            stderr = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
            rows.append(SweepRow(alpha, pr_db, m, float(vals.mean()), stderr, n, seed))
    # Only equal cells, from a repeated alpha, move: they interleave by metric.
    rows.sort(key=lambda r: (r.alpha, r.pr_db, r.metric))
    return SweepResult(rows=tuple(rows), resampled_trials=resampled)


def estimate_superiority_probability(cfg: SweepConfig, workers: int = 1) -> ProbResult:
    """Fraction of realizations where joint relaying beats optimally slotted
    TDMA in the unbounded-relay-power regime, per (alpha, P_max) cell, with
    the binomial standard error."""
    n, seed = cfg.n_trials, cfg.base.seed
    grid = cfg.pmax_grid_db or (float(10.0 * np.log10(cfg.base.P_max)),)
    evaluate = partial(_prob_block, epsilon=cfg.epsilon)
    cells, per_cell, resampled = _run_table(cfg, "P_max", grid, evaluate, workers)
    rows = []
    for (alpha, pmax_db), wins in zip(cells, per_cell):
        p = sum(wins) / n
        rows.append(ProbRow(alpha, pmax_db, p, float(np.sqrt(p * (1.0 - p) / n)), n, seed))
    return ProbResult(rows=tuple(rows), resampled_trials=resampled)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    worst: float  # largest observed violation measure (0 when clean)
    threshold: float


def invariant_suite(
    scen: ScenarioConfig, n_trials: int = 100, epsilon: float = 1e-8
) -> list[CheckOutcome]:
    """Exercise the cross-formula invariants on random realizations.

    The draws are evaluated as one block by the kernels the sweeps run; only
    sum_rate_closed, the independent closed form, builds a trial's aggregates
    again. Returns one outcome per invariant with the worst violation seen;
    used by the CLI ``check`` subcommand.
    """
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
    alloc, why_slots = block_slots(agg.d, agg.nr, agg.hp, epsilon)
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
            kkt_slackness(c, alloc.tau[i]),
        ))
    psd, formulas, logdet, power, slackness = np.array(rows).T
    gap = asym.joint_rate_inf - asym.rate_inf
    checks = {  # name: (violation measure per trial, threshold)
        "aggregates_identity": (
            abs(agg.s[:, None, None] * agg.R - agg.T - agg.W).max(axis=(1, 2)) / scale, 1e-10),
        "aggregates_psd": (psd, 1e-10),
        "rate_formula_equivalence": (formulas, 1e-10),
        "bound_ordering": (b.r_lower - b.r_up_min, 1e-9),
        "lower_matches_logdet": (logdet, 1e-9),
        "relay_power_equality": (power, 1e-8),
        "tdma_kkt_spread": (alloc.kkt_spread, epsilon),
        "tdma_slackness": (slackness, epsilon),
        "tau_simplex": (abs(alloc.tau.sum(axis=1) - 1.0), 1e-9),
        # any disagreement counts as 1.0
        "asymptotic_predicate": ((abs(gap) > 1e-9) & (asym.joint_wins != (gap > 0.0)), 0.5),
    }
    worst = {name: max(0.0, float(np.max(m))) for name, (m, _) in checks.items()}
    return [CheckOutcome(name, worst[name] <= limit, worst[name], limit)
            for name, (_, limit) in checks.items()]
