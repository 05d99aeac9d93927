"""Monte Carlo experiment driver.

Sweeps (alpha, P_r) grids averaging the joint-relaying bounds and the
optimized TDMA sum rate, and estimates the probability that joint relaying
wins in the unbounded-relay-power regime over an (alpha, P_max) grid.

One pipeline serves both tables; they differ only in the per-draw evaluator
and in how a cell's values become rows. The cells of the (alpha, dB) grid are
run in sorted order. Every trial draws its channel from a substream keyed on
(seed, trial index), so results are byte-identical for any worker count
W >= 1. At W > 1 one process pool serves the whole run and its workers take
blocks of trials of every cell. A trial that fails numerically is retried on a
flagged substream by one resample loop, which counts the retries.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import product

import numpy as np

from .channel import (
    ChannelRealization,
    ScenarioConfig,
    compute_aggregates,
    relay_tx_power,
    sample_channel,
    trial_rng,
)
from .errors import NumericalError, ValidationError
from .joint import JointRateBounds, lower_bound, sum_rate_closed, sum_rate_logdet
from .numerics import quadratic_form
from .tdma import (
    AsymptoticResult,
    TdmaAllocation,
    asymptotic_allocation,
    joint_beats_tdma_asymptotic,
    kkt_slackness,
    optimize_slots,
)

__all__ = [
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "ProbRow",
    "ProbResult",
    "RealizationMetrics",
    "CheckOutcome",
    "evaluate_realization",
    "run_sweep",
    "estimate_superiority_probability",
    "invariant_suite",
    "METRICS",
]

METRICS = ("joint_lower", "joint_up1", "joint_up2", "joint_up_min", "tdma_sum_rate")

_MAX_RESAMPLES = 100
_BLOCKS_PER_WORKER = 4  # trial blocks per pool worker over a whole run


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
        return _metric_values(self.bounds, self.tdma)

    def to_json_dict(self) -> dict:
        return {
            "joint": {
                "r_lower": self.bounds.r_lower,
                "r_up1": self.bounds.r_up1,
                "r_up2": self.bounds.r_up2,
                "r_up_min": self.bounds.r_up_min,
                "gamma": self.bounds.gamma,
            },
            "tdma": {
                "tau": [float(t) for t in self.tdma.tau],
                "per_user_rate": [float(r) for r in self.tdma.per_user_rate],
                "sum_rate": self.tdma.sum_rate,
                "kkt_spread": self.tdma.kkt_spread,
            },
            "asymptotic": {
                "tau_inf": [float(t) for t in self.asymptotic.tau_inf],
                "rate_inf": self.asymptotic.rate_inf,
                "joint_rate_inf": self.asymptotic.joint_rate_inf,
                "joint_wins": self.asymptotic.joint_wins,
            },
            "joint_beats_tdma_asymptotic": self.joint_beats_tdma,
        }


def _metric_values(bounds: JointRateBounds, alloc: TdmaAllocation) -> dict[str, float]:
    return {
        "joint_lower": bounds.r_lower,
        "joint_up1": bounds.r_up1,
        "joint_up2": bounds.r_up2,
        "joint_up_min": bounds.r_up_min,
        "tdma_sum_rate": alloc.sum_rate,
    }


def evaluate_realization(
    c: ChannelRealization, epsilon: float = 1e-8
) -> RealizationMetrics:
    """Joint bounds, optimized TDMA allocation, asymptotic comparison and the
    superiority predicate for one realization."""
    bounds = lower_bound(c)
    alloc = optimize_slots(c, epsilon)
    asym = asymptotic_allocation(c)
    return RealizationMetrics(
        bounds=bounds,
        tdma=alloc,
        asymptotic=asym,
        joint_beats_tdma=asym.joint_wins,
    )


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


def _sweep_values(c: ChannelRealization, epsilon: float) -> dict[str, float]:
    return _metric_values(lower_bound(c), optimize_slots(c, epsilon))


def _prob_value(c: ChannelRealization) -> bool:
    return bool(joint_beats_tdma_asymptotic(c))


def _resampled(evaluate, scen: ScenarioConfig, trial: int) -> tuple:
    """``evaluate`` on the draw of one trial, resampled on a flagged substream
    after a numerical failure. Returns the value and the number of resamples."""
    last: Exception | None = None
    for retry in range(_MAX_RESAMPLES):
        c = sample_channel(scen, trial_rng(scen.seed, trial, retry))
        try:
            return evaluate(c), retry
        except NumericalError as exc:
            last = exc
    raise NumericalError(f"trial {trial} failed after {_MAX_RESAMPLES} resamples: {last}")


def _trial_block(evaluate, scen: ScenarioConfig, lo: int, hi: int) -> list:
    return [_resampled(evaluate, scen, t) for t in range(lo, hi)]


def _run_cells(evaluate, scens: list[ScenarioConfig], n_trials: int, workers: int) -> list:
    """``_resampled(evaluate, scen, t)`` for t < n_trials in every cell, in trial
    order. Each task is one cell's trial block [lo, hi); at workers > 1 a single
    pool of at most ``workers`` processes serves the whole run, aiming at
    _BLOCKS_PER_WORKER blocks each."""
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    size = min(n_trials, -(-len(scens) * n_trials // (_BLOCKS_PER_WORKER * workers)))
    los = range(0, n_trials, size)
    tasks = [(evaluate, scen, lo, min(lo + size, n_trials)) for scen in scens for lo in los]
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
    evaluate = partial(_sweep_values, epsilon=cfg.epsilon)
    cells, per_cell, resampled = _run_table(cfg, "P_r", cfg.pr_grid_db, evaluate, workers)
    rows = []
    for (alpha, pr_db), values in zip(cells, per_cell):
        for m in METRICS:
            vals = np.array([v[m] for v in values])
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
    cells, per_cell, resampled = _run_table(cfg, "P_max", grid, _prob_value, workers)
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

    Returns one outcome per invariant with the worst violation seen; used by
    the CLI ``check`` subcommand.
    """
    thresholds = {
        "aggregates_identity": 1e-10,
        "aggregates_psd": 1e-10,
        "rate_formula_equivalence": 1e-10,
        "bound_ordering": 1e-9,
        "lower_matches_logdet": 1e-9,
        "relay_power_equality": 1e-8,
        "tdma_kkt_spread": epsilon,
        "tdma_slackness": epsilon,
        "tau_simplex": 1e-9,
        "asymptotic_predicate": 0.5,  # any disagreement counts as 1.0
    }
    worst = dict.fromkeys(thresholds, 0.0)
    for t in range(n_trials):
        rng = trial_rng(scen.seed, t)
        c = sample_channel(scen, rng)
        agg = compute_aggregates(c)
        scale = max(1.0, float(np.max(np.abs(agg.W))), float(np.max(np.abs(agg.T))))
        diff = float(np.max(np.abs(agg.s * agg.R - agg.T - agg.W)))
        worst["aggregates_identity"] = max(worst["aggregates_identity"], diff / scale)
        for M in (agg.R, agg.T, agg.W):
            x = rng.standard_normal(c.M_r) + 1j * rng.standard_normal(c.M_r)
            q = quadratic_form(x, M)
            worst["aggregates_psd"] = max(worst["aggregates_psd"], -q / scale)
        F = (rng.standard_normal((c.M_r, c.M_r)) + 1j * rng.standard_normal((c.M_r, c.M_r)))
        gap = abs(sum_rate_logdet(F, c) - sum_rate_closed(F, c))
        worst["rate_formula_equivalence"] = max(worst["rate_formula_equivalence"], gap)

        b = lower_bound(c)
        worst["bound_ordering"] = max(worst["bound_ordering"], b.r_lower - b.r_up_min)
        worst["lower_matches_logdet"] = max(
            worst["lower_matches_logdet"], abs(b.r_lower - sum_rate_logdet(b.f_lower, c))
        )
        worst["relay_power_equality"] = max(
            worst["relay_power_equality"],
            abs(relay_tx_power(b.f_lower.F, c) - c.P_r) / max(1.0, c.P_r),
        )

        alloc = optimize_slots(c, epsilon)
        worst["tdma_kkt_spread"] = max(worst["tdma_kkt_spread"], alloc.kkt_spread)
        worst["tdma_slackness"] = max(worst["tdma_slackness"], kkt_slackness(c, alloc.tau))
        worst["tau_simplex"] = max(worst["tau_simplex"], abs(float(alloc.tau.sum()) - 1.0))

        asym = asymptotic_allocation(c)
        if abs(asym.joint_rate_inf - asym.rate_inf) > 1e-9:
            if asym.joint_wins != (asym.joint_rate_inf > asym.rate_inf):
                worst["asymptotic_predicate"] = 1.0
    return [CheckOutcome(name, worst[name] <= limit, worst[name], limit)
            for name, limit in thresholds.items()]
