"""Monte Carlo experiment driver.

Sweeps (alpha, P_r) grids averaging the joint-relaying bounds and the
optimized TDMA sum rate, and estimates the probability that joint relaying
wins in the unbounded-relay-power regime over an (alpha, P_max) grid.

Every trial draws its channel from an independent substream keyed on
(seed, trial index), so results are byte-identical regardless of execution
order or worker count. Trials that fail numerically are retried on a flagged
substream and the retry count is surfaced on the result object.
"""

from __future__ import annotations

import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    ChannelRealization,
    ScenarioConfig,
    compute_aggregates,
    relay_tx_power,
    sample_channel,
    trial_rng,
)
from .errors import DegenerateChannelError, NumericalError, ValidationError
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


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification for the Monte Carlo sweeps.

    pr_grid_db and pmax_grid_db are relative to N0 (P = N0 * 10^(dB/10));
    pmax_grid_db is only consulted by the superiority-probability table and
    defaults to the base scenario's P_max.
    """

    base: ScenarioConfig
    alpha_values: tuple[float, ...] = (1.0,)
    pr_grid_db: tuple[float, ...] = (10.0,)
    n_trials: int = 1000
    epsilon: float = 1e-8
    pmax_grid_db: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "alpha_values", tuple(float(a) for a in self.alpha_values))
        object.__setattr__(self, "pr_grid_db", tuple(float(p) for p in self.pr_grid_db))
        if self.pmax_grid_db is not None:
            object.__setattr__(
                self, "pmax_grid_db", tuple(float(p) for p in self.pmax_grid_db)
            )
        if self.n_trials < 1:
            raise ValidationError(f"n_trials must be >= 1, got {self.n_trials}")
        if not self.alpha_values or not self.pr_grid_db:
            raise ValidationError("alpha and P_r grids must be non-empty")
        if self.epsilon <= 0:
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class RealizationMetrics:
    """All per-realization quantities the sweeps aggregate."""

    bounds: JointRateBounds
    tdma: TdmaAllocation
    asymptotic: AsymptoticResult
    joint_beats_tdma: bool

    def metric_values(self) -> dict[str, float]:
        return {
            "joint_lower": self.bounds.r_lower,
            "joint_up1": self.bounds.r_up1,
            "joint_up2": self.bounds.r_up2,
            "joint_up_min": self.bounds.r_up_min,
            "tdma_sum_rate": self.tdma.sum_rate,
        }

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
class SweepResult:
    rows: tuple[SweepRow, ...]
    resampled_trials: int = 0

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("alpha,pr_db,metric,mean,stderr,n_trials,seed\n")
        for r in sorted(self.rows, key=lambda r: (r.alpha, r.pr_db, r.metric)):
            buf.write(
                f"{_fmt(r.alpha)},{_fmt(r.pr_db)},{r.metric},{_fmt(r.mean)},"
                f"{_fmt(r.stderr)},{r.n_trials},{r.seed}\n"
            )
        return buf.getvalue()


@dataclass(frozen=True)
class ProbRow:
    alpha: float
    pmax_db: float
    probability: float
    stderr: float
    n_trials: int
    seed: int


@dataclass(frozen=True)
class ProbResult:
    rows: tuple[ProbRow, ...]
    resampled_trials: int = 0

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("alpha,pmax_db,probability,stderr,n_trials,seed\n")
        for r in sorted(self.rows, key=lambda r: (r.alpha, r.pmax_db)):
            buf.write(
                f"{_fmt(r.alpha)},{_fmt(r.pmax_db)},{_fmt(r.probability)},"
                f"{_fmt(r.stderr)},{r.n_trials},{r.seed}\n"
            )
        return buf.getvalue()


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _sweep_trial(args) -> tuple[dict[str, float], int]:
    """Evaluate one trial; resample on a flagged substream after a numerical
    failure. Returns the metric dict and the number of resamples used."""
    scen, seed, trial, epsilon = args
    last: Exception | None = None
    for retry in range(_MAX_RESAMPLES):
        rng = trial_rng(seed, trial, retry)
        c = sample_channel(scen, rng)
        try:
            return evaluate_realization(c, epsilon).metric_values(), retry
        except (NumericalError, DegenerateChannelError) as exc:
            last = exc
    raise NumericalError(
        f"trial {trial} failed after {_MAX_RESAMPLES} resamples: {last}"
    )


def _prob_trial(args) -> tuple[bool, int]:
    scen, seed, trial = args
    last: Exception | None = None
    for retry in range(_MAX_RESAMPLES):
        rng = trial_rng(seed, trial, retry)
        c = sample_channel(scen, rng)
        try:
            return joint_beats_tdma_asymptotic(c), retry
        except NumericalError as exc:
            last = exc
    raise NumericalError(
        f"trial {trial} failed after {_MAX_RESAMPLES} resamples: {last}"
    )


def _map_tasks(fn, tasks, workers: int):
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (8 * workers))))


def run_sweep(cfg: SweepConfig, workers: int = 1) -> SweepResult:
    """Average each metric over n_trials independent realizations for every
    (alpha, P_r) cell. Deterministic for a fixed config: trial t of every
    cell draws from the substream keyed on (seed, t)."""
    seed = cfg.base.seed
    rows: list[SweepRow] = []
    resampled = 0
    for alpha in cfg.alpha_values:
        for pr_db in cfg.pr_grid_db:
            scen = replace(
                cfg.base, alpha=alpha, P_r=cfg.base.N0 * db_to_linear(pr_db)
            )
            tasks = [(scen, seed, t, cfg.epsilon) for t in range(cfg.n_trials)]
            results = _map_tasks(_sweep_trial, tasks, workers)
            values = {m: np.empty(cfg.n_trials) for m in METRICS}
            for t, (metrics, retries) in enumerate(results):
                resampled += retries
                for m in METRICS:
                    values[m][t] = metrics[m]
            for m in METRICS:
                vals = values[m]
                mean = float(vals.mean())
                stderr = (
                    float(vals.std(ddof=1) / np.sqrt(cfg.n_trials))
                    if cfg.n_trials > 1
                    else 0.0
                )
                rows.append(
                    SweepRow(
                        alpha=alpha,
                        pr_db=pr_db,
                        metric=m,
                        mean=mean,
                        stderr=stderr,
                        n_trials=cfg.n_trials,
                        seed=seed,
                    )
                )
    return SweepResult(rows=tuple(rows), resampled_trials=resampled)


def estimate_superiority_probability(
    cfg: SweepConfig, workers: int = 1
) -> ProbResult:
    """Fraction of realizations where joint relaying beats optimally slotted
    TDMA in the unbounded-relay-power regime, per (alpha, P_max) cell, with
    the binomial standard error."""
    seed = cfg.base.seed
    if cfg.pmax_grid_db is not None:
        pmax_grid = cfg.pmax_grid_db
    else:
        pmax_grid = (10.0 * np.log10(cfg.base.P_max / cfg.base.N0),)
    rows: list[ProbRow] = []
    resampled = 0
    for alpha in cfg.alpha_values:
        for pmax_db in pmax_grid:
            scen = replace(
                cfg.base, alpha=alpha, P_max=cfg.base.N0 * db_to_linear(pmax_db)
            )
            tasks = [(scen, seed, t) for t in range(cfg.n_trials)]
            results = _map_tasks(_prob_trial, tasks, workers)
            wins = 0
            for outcome, retries in results:
                resampled += retries
                wins += bool(outcome)
            p = wins / cfg.n_trials
            stderr = float(np.sqrt(p * (1.0 - p) / cfg.n_trials))
            rows.append(
                ProbRow(
                    alpha=alpha,
                    pmax_db=float(pmax_db),
                    probability=p,
                    stderr=stderr,
                    n_trials=cfg.n_trials,
                    seed=seed,
                )
            )
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
    worst = {
        "aggregates_identity": 0.0,
        "aggregates_psd": 0.0,
        "rate_formula_equivalence": 0.0,
        "bound_ordering": 0.0,
        "lower_matches_logdet": 0.0,
        "relay_power_equality": 0.0,
        "tdma_kkt_spread": 0.0,
        "tdma_slackness": 0.0,
        "tau_simplex": 0.0,
        "asymptotic_predicate": 0.0,
    }
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
        pr = c.normalized().P_r
        worst["relay_power_equality"] = max(
            worst["relay_power_equality"],
            abs(relay_tx_power(b.f_lower.F, c.normalized()) - pr) / max(1.0, pr),
        )

        alloc = optimize_slots(c, epsilon)
        worst["tdma_kkt_spread"] = max(worst["tdma_kkt_spread"], alloc.kkt_spread)
        worst["tdma_slackness"] = max(worst["tdma_slackness"], kkt_slackness(c, alloc.tau))
        worst["tau_simplex"] = max(worst["tau_simplex"], abs(float(alloc.tau.sum()) - 1.0))

        asym = asymptotic_allocation(c)
        if abs(asym.joint_rate_inf - asym.rate_inf) > 1e-9:
            if joint_beats_tdma_asymptotic(c) != (asym.joint_rate_inf > asym.rate_inf):
                worst["asymptotic_predicate"] = 1.0
    return [
        CheckOutcome(
            name=name,
            passed=worst[name] <= thresholds[name],
            worst=worst[name],
            threshold=thresholds[name],
        )
        for name in worst
    ]
