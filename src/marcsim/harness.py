"""Monte Carlo experiment driver.

Each table sweeps one power, SweepConfig.grid_db, for several alpha.
run_sweep averages the joint-relaying bounds and the optimized TDMA sum rate
over P_r; estimate_superiority_probability estimates over P_max the
probability that joint relaying wins as the relay power grows without bound.

One pipeline serves both tables; they differ only in the swept power, the
block evaluator and how a cell's values become rows. A table's cells, in
sorted (alpha, dB) order, are one array of their alpha, P_max and P_r beside
the base scenario. The run's trials, each over every cell, form one flat
list, and a block is a slice of it: a range of trials across every cell. A
run is split into n process groups: W, at most the CPU count, but no more
than leave every process the work that pays for its start,
_MIN_PROCESS_WORK, a trial weighing sqrt(K * M_r); a smaller run is one
group, computed here. Each group is a contiguous run of the same number of
equal blocks, as few as keep a block within a byte budget on its memory, at
a footprint per trial fitted in K and M_r. The calling process computes the
first group; with more groups, one process pool, of one process per further
group, computes the others at the same time. Every trial draws from a
substream keyed on (seed, trial index), seeded in bulk. A block's evaluator
takes the base scenario and that array and each item's trial and cell index,
and samples the draws itself; _runs, on those integer indices, is what
decides which items share work. Both tables draw each trial once, by
sample_block at unit alpha, P_max and P_r, and build its aggregates once. A
sweep scales them to its cells by scale_aggregates; a superiority table
forms the draw's superiority index mu once and compares alpha^2 P_max mu
with 1 in each cell, whose direct links and SNR sums it still checks. A
trial's cells of one alpha, adjacent in a sweep block, differ only in P_r:
they share one scaling and one build of the eigenpairs, and hp, the bounds
and the slots are each cell's. No trial's values depend on the rest of its
block, as the kernels take C-ordered stacks, so results are byte-identical
for any W >= 1. A draw that fails a check stops the run: NumericalError names
the lowest failing item's trial, cell and message, the same for any W, as a
group stops at its first failing block and the groups are joined in order.
A block returns its values, with a leading trial axis; the table reads the
blocks joined into one (cells, trials, ...) array, whose reductions make the
rows, named tuples. The invariant suite of ``marcsim check`` draws by sample_block too, and
evaluates its trials in chunks that keep within the same byte budget, at a
footprint per trial of its own.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from itertools import product
from math import sqrt
from typing import NamedTuple

import numpy as np

from .channel import (
    ChannelBlock, ChannelRealization, ScenarioConfig, compute_aggregates, direct_links,
    sample_block, scale_aggregates, sum_snrs, trial_rng,
)
from .channel import sample_channel  # noqa: F401 (perfbench wraps it)
from .errors import NumericalError, ValidationError
from .joint import (
    _ORDER_SLACK, JointRateBounds, RelayMatrix, block_bounds, lower_bound, sum_rate_closed,
    sum_rate_logdet,
)
from .numerics import quadratic_form
from .tdma import (
    _KKT_ATOL, _SIMPLEX_ATOL, AsymptoticResult, TdmaAllocation, _kkt_gaps, _kkt_tolerance,
    asymptotic_allocation, block_asymptotic, block_slots, optimize_slots, single_user_relay_matrix,
    superiority_index,
)

__all__ = [
    "SweepConfig", "SweepRow", "SweepResult", "ProbRow", "ProbResult", "RealizationMetrics",
    "CheckOutcome", "evaluate_realization", "run_sweep", "estimate_superiority_probability",
    "invariant_suite", "METRICS",
]

METRICS = ("joint_lower", "joint_up1", "joint_up2", "joint_up_min", "tdma_sum_rate")

_BLOCK_BYTES = 1 << 22  # budget of a block's peak memory, at _trial_bytes per trial
# Work, in trials times sqrt(K * M_r), that pays for importing the pool and
# starting a process. At W = 2 two processes overtake one from about 0.6-1.3
# times twice this work on the K=3, M_r=2 and K=10, M_r=4 sweeps and 1.1-1.6
# times on the K=50, M_r=8 superiority table; forking from twice it took at
# most 1.18 times the faster choice (tools/fanout_breakeven.py).
_MIN_PROCESS_WORK = 20000


def _trial_bytes(K: int, M_r: int) -> int:
    """Bytes a trial of K users and M_r relay antennas adds to a block's peak
    memory: the M_r x M_r aggregates grow it as M_r^2, the channel and the
    slot arrays as K * M_r and K. A fit to the traced peaks of both tables'
    blocks, which lie within 0.41-1.04 times it for K 1-50 and M_r 1-8, above
    1.01 only at K = 1 with M_r = 8 and at K >= 20 with M_r = 1
    (tools/block_footprint.py --grid)."""
    return 25 * K * (M_r + 8) + 100 * (M_r * M_r + 4)


def _check_bytes(K: int, M_r: int) -> int:
    """Bytes a trial of K users and M_r relay antennas adds to the peak
    memory of a chunk of the invariant suite: its open slots' single-user
    relay matrices grow it as K * M_r^2, the log-det rate's K x K minors as
    K^2. A fit to the traced peaks of chunks of the budget's size, which lie
    within 0.61-1.07 times it for K 1-50 and M_r 1-8, above 1.01 only at
    K <= 5 and M_r >= 4 (tools/block_footprint.py --grid)."""
    return 40 * K * (2 * M_r * (M_r + 1) + K) + 120 * M_r * M_r + 900


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

    def to_json_dict(self) -> dict:
        def plain(record, names: str) -> dict:
            return {n: np.asarray(getattr(record, n)).tolist() for n in names.split()}

        return {
            "joint": plain(self.bounds, "r_lower r_up1 r_up2 r_up_min gamma"),
            "tdma": plain(self.tdma, "tau per_user_rate sum_rate kkt_spread"),
            "asymptotic": plain(self.asymptotic, "tau_inf rate_inf joint_rate_inf joint_wins"),
            "joint_beats_tdma_asymptotic": bool(self.asymptotic.joint_wins),
        }


def evaluate_realization(c: ChannelRealization) -> RealizationMetrics:
    """Joint bounds, optimized TDMA allocation, asymptotic comparison and the
    superiority predicate for one realization."""
    return RealizationMetrics(lower_bound(c), optimize_slots(c), asymptotic_allocation(c))


class SweepRow(NamedTuple):
    alpha: float
    pr_db: float
    metric: str
    mean: float
    stderr: float
    n_trials: int
    seed: int


class ProbRow(NamedTuple):
    alpha: float
    pmax_db: float
    probability: float
    stderr: float
    n_trials: int
    seed: int


@dataclass(frozen=True)
class TableResult:
    """The rows of one Monte Carlo table, in CSV order."""

    rows: tuple[SweepRow, ...] | tuple[ProbRow, ...]

    def to_csv(self) -> str:
        """Header from the row fields, then one line per row; floats at 10
        significant digits; empty without rows. Every row takes the format of
        the first, whose float fields read %.10g and the rest %s."""
        if not self.rows:
            return ""
        first = self.rows[0]
        line = ",".join("%.10g" if isinstance(v, float) else "%s" for v in first)
        return "\n".join([",".join(first._fields), *map(line.__mod__, self.rows)]) + "\n"


SweepResult = ProbResult = TableResult


def _runs(*keys):
    """The first item of each run of adjacent items equal in every integer
    array of keys, and each item's run; ... for both when no run holds two
    items. Right for items in any order; a trial-major block shares most."""
    new = np.arange(len(keys[0])) == 0
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return (..., ...) if new.all() else (np.flatnonzero(new), np.cumsum(new) - 1)


def _unit_draws(base: ScenarioConfig, trials, items=...):
    """Each distinct trial of trials drawn once, by sample_block at alpha =
    P_max = P_r = 1, its aggregates built once (hp is ||h||^2, at unit P_r),
    and the row of them of each of the items ``items`` (... for all)."""
    first, row = _runs(trials)
    blk = sample_block(base, trials[first])
    return blk, compute_aggregates(blk), items if row is ... else row[items]


def _sweep_block(base: ScenarioConfig, powers, trials, cells):
    """The METRICS of each item of a block, trial trials[i] of the cell of
    alpha, P_max and P_r powers[:, cells[i]], (N, 5), and the failures as
    {item: message}, a bounds message before a slots one, from the items'
    draws of base. A run of items of one trial, alpha and P_max, which
    differ only in P_r, takes its first item's aggregates and builds its
    eigenpairs once; hp, the bounds and the slots are each item's."""
    alpha, p_max, p_r = powers[:, cells]
    first, run = _runs(trials, alpha.view(np.int64), p_max.view(np.int64))  # -0.0 is not 0.0
    agg = scale_aggregates(*_unit_draws(base, trials, first), alpha[first], p_max[first])
    # agg.hp is ||h||^2, and ||h||^2 * P_r each item's hp, bit for bit
    agg = replace(agg, s=agg.s[run], d=agg.d[run], nr=agg.nr[run], hp=agg.hp[run] * p_r)
    b, _, why = block_bounds(p_r, agg, run)
    alloc, why_slots = block_slots(agg.d, agg.nr, agg.hp)
    values = np.stack((b.r_lower, b.r_up1, b.r_up2, b.r_up_min, alloc.sum_rate), axis=1)
    return values, {**why_slots, **why}


def _prob_block(base: ScenarioConfig, powers, trials, cells):
    """The superiority predicate of each item of a block, trial trials[i] of
    the cell of alpha and P_max powers[:2, cells[i]], from its draw of base:
    alpha^2 P_max mu > 1, with mu the superiority index of the draw at unit
    alpha and P_max, formed once per draw. Each item's direct links and SNR
    sums are checked at its own alpha and P_max, as a build there checks
    them; no check can fail, so its failures, {row: message}, are always
    empty."""
    blk, agg, row = _unit_draws(base, trials)
    alpha, p_max = powers[:2, cells]
    h_d, P = direct_links(alpha[:, None], blk.h_d[row]), blk.P[row] * p_max[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        sum_snrs(np.square(np.abs(h_d)) * P, agg.nr[row] * p_max[:, None])
    wins = alpha * (alpha * p_max) * superiority_index(agg)[row] > 1.0
    return wins, {}


def _trial_block(evaluate, base: ScenarioConfig, powers, lo: int, hi: int):
    """The values of items lo <= i < hi of the flat (trial, cell) list,
    i = trial * cells + cell, evaluated as one block with a leading item
    axis. ``evaluate`` takes base, powers, the cells' alpha, P_max and P_r
    as a (3, cells) array, and each item's trial and cell index, in this
    trial-major order, and returns their values and their failures as
    {row: message}. NumericalError, naming the lowest failing item's trial,
    its cell and the message, when any item fails a check."""
    items, cells = np.arange(lo, hi), powers.shape[1]
    values, why = evaluate(base, powers, items // cells, items % cells)
    if why:
        row = min(why)
        trial, cell = divmod(lo + row, cells)
        raise _failure(trial, *powers[:, cell], why[row])
    return values


def _failure(trial: int, alpha, p_max, p_r, message: str) -> NumericalError:
    """The error naming a failed trial, its cell's alpha, P_max and P_r and the message."""
    return NumericalError(f"trial {trial} of cell alpha={alpha:.10g}, P_max={p_max:.10g}, "
                          f"P_r={p_r:.10g}: {message}")


def ProcessPoolExecutor(max_workers: int):  # noqa: N802  (stands in for the class it returns)
    """A concurrent.futures process pool, imported by the first run that forks."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=max_workers)


def _run_blocks(tasks) -> list:
    """The values of each of a group's blocks, in order."""
    return [_trial_block(*task) for task in tasks]


def _run_cells(evaluate, base: ScenarioConfig, powers, n_trials: int, workers: int):
    """``evaluate``d values of trials t < n_trials of every cell, the
    columns of powers, as one (cells, n_trials, ...) array. workers is an
    upper bound: it is capped at the CPU count, as a pool starts all its
    processes at once, and at one process
    per _MIN_PROCESS_WORK of the run's work, items * sqrt(K * M_r), which
    gives n groups; W = 1 and a run of less than twice that work are one
    group. Each group gets the same number of blocks of about equal size, as
    few as keep a block within the _BLOCK_BYTES // _trial_bytes(K, M_r)
    trials that fit its memory budget, so that the groups finish together; a
    block of many small trials as of a few large ones, as every block pays
    the kernels' fixed cost per call again. The blocks, in order, form
    min(n, blocks) contiguous groups. With more than one group, one pool of
    a process per group after the first takes those groups while this
    process computes the first; the groups are joined in order, so the
    first failing block raises the NumericalError of the run."""
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    items, K, M_r = powers.shape[1] * n_trials, base.K, base.M_r
    n = max(1, min(workers, os.cpu_count() or 1, int(items * sqrt(K * M_r) // _MIN_PROCESS_WORK)))
    per_group = -(-items // (n * max(1, _BLOCK_BYTES // _trial_bytes(K, M_r))))
    size = -(-items // (n * per_group))
    tasks = [(evaluate, base, powers, lo, min(lo + size, items)) for lo in range(0, items, size)]
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
    values = np.concatenate(blocks).reshape(n_trials, -1, *blocks[0].shape[1:])
    return values.swapaxes(0, 1)


def _run_table(cfg: SweepConfig, power: str, evaluate, workers: int):
    """Run ``evaluate`` on cfg.n_trials draws of every (alpha, dB) cell of
    cfg.grid_db, where dB sets the scenario's ``power`` ("P_r" or "P_max").
    Returns the cells in sorted order and their values as one (cells,
    n_trials, ...) array. One ScenarioConfig per distinct swept power and
    alpha raises each invalid cell's ValidationError before any draw, as it
    checks each field alone."""
    cells = sorted(product(cfg.alpha_values, cfg.grid_db))
    columns = {"alpha": [a for a, _ in cells], "P_max": [cfg.base.P_max] * len(cells),
               "P_r": [cfg.base.P_r] * len(cells), power: [db_to_linear(db) for _, db in cells]}
    for name in (power, "alpha"):
        for value in dict.fromkeys(columns[name]):
            replace(cfg.base, **{name: value})
    powers = np.array(list(columns.values()))
    return cells, _run_cells(evaluate, cfg.base, powers, cfg.n_trials, workers)


def run_sweep(cfg: SweepConfig, workers: int = 1) -> SweepResult:
    """Average each metric over n_trials independent realizations for every
    (alpha, P_r) cell, P_r from cfg.grid_db. Deterministic for a fixed
    config: trial t of every cell draws from the substream keyed on (seed, t)."""
    n, seed = cfg.n_trials, cfg.base.seed
    cells, values = _run_table(cfg, "P_r", _sweep_block, workers)
    # Contiguous trials per (cell, metric): the reductions then sum in the
    # order each cell's own contiguous copy would.
    by_metric = np.ascontiguousarray(values.transpose(0, 2, 1))
    means = by_metric.mean(axis=-1)
    stderrs = by_metric.std(axis=-1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(means)
    # Only equal cells, from a repeated alpha, move: they interleave by metric.
    rows = sorted((SweepRow(alpha, pr_db, m, mean, stderr, n, seed)
                   for (alpha, pr_db), *cell in zip(cells, means.tolist(), stderrs.tolist())
                   for m, mean, stderr in zip(METRICS, *cell)), key=lambda r: r[:3])
    return SweepResult(rows=tuple(rows))


def estimate_superiority_probability(cfg: SweepConfig, workers: int = 1) -> ProbResult:
    """Fraction of realizations where joint relaying beats optimally slotted
    TDMA in the unbounded-relay-power regime, per (alpha, P_max) cell, P_max
    from cfg.grid_db, with the binomial standard error."""
    n, seed = cfg.n_trials, cfg.base.seed
    cells, values = _run_table(cfg, "P_max", _prob_block, workers)
    p = values.sum(axis=1) / n
    stats = zip(cells, p.tolist(), np.sqrt(p * (1.0 - p) / n).tolist())
    return ProbResult(tuple(ProbRow(a, db, *ps, n, seed) for (a, db), *ps in stats))


def _slot_logdet_error(c: ChannelBlock, tau: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """The relative gap, for each open slot of a block's trials, between the
    slot's rate and tau_k times the log-det rate of user k alone at power
    P_k / tau_k, P_r unchanged, with its own optimal relay matrix; the open
    slots are evaluated as one K = 1 block."""
    i, k = np.nonzero(tau > 0.0)
    alone = ChannelBlock(h_r=c.h_r[i, k, None], h_d=c.h_d[i, k, None], h=c.h[i],
                         P=(c.P[i, k] / tau[i, k])[:, None], P_r=c.P_r[i])
    ref = tau[i, k] * sum_rate_logdet(single_user_relay_matrix(alone, 0), alone)
    return np.abs(ref - rates[i, k]) / np.maximum(ref, np.finfo(float).tiny)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    worst: float  # largest observed violation measure (0 when clean)
    threshold: float


def _check_rows(scen: ScenarioConfig, trials: range, probes: np.ndarray) -> dict:
    """Every invariant's violation measure, per trial or open slot, and its
    threshold, on trials ``trials`` of scen, drawn as one block by
    sample_block and scaled to scen, with their probes: three vectors x and
    a relay matrix F per trial. A failed check raises the _failure of the
    lowest failing trial, a bounds message before a slots one."""
    unit = sample_block(scen, trials)
    blk = replace(unit, h_d=direct_links(scen.alpha, unit.h_d), P=unit.P * scen.P_max,
                  P_r=unit.P_r * scen.P_r)
    agg = compute_aggregates(blk)
    b, v, why = block_bounds(blk.P_r, agg)
    alloc, why_slots = block_slots(agg.d, agg.nr, agg.hp)
    asym = block_asymptotic(agg)
    why = {**why_slots, **why}
    if why:
        row = min(why)
        raise _failure(trials[row], scen.alpha, scen.P_max, scen.P_r, why[row])
    T = agg.T
    scale = np.maximum(1.0, np.maximum(abs(agg.W).max(axis=(1, 2)), abs(T).max(axis=(1, 2))))
    psd = -quadratic_form(probes[:, :3], np.stack([agg.R, T, agg.W], axis=1))
    F, f = probes[:, 3:], RelayMatrix.beamformer(blk, v, b.gamma)
    _, slack, nu = _kkt_gaps(agg.d.T, agg.nr.T, agg.hp, alloc.tau.T)
    # The KKT gaps in bits times _KKT_ATOL / min(_KKT_ATOL, _KKT_RTOL * nu):
    # each is within its threshold _KKT_ATOL iff it is within its tolerance.
    kkt_scale = _KKT_ATOL / np.maximum(_kkt_tolerance(nu), np.finfo(float).tiny)
    gap = asym.joint_rate_inf - asym.rate_inf
    return {  # name: (violation measure per trial or slot, threshold)
        "aggregates_identity": (
            abs(agg.s[:, None, None] * agg.R - T - agg.W).max(axis=(1, 2)) / scale, 1e-10),
        "aggregates_psd": (psd.max(axis=1) / scale, 1e-10),
        "rate_formula_equivalence": (abs(sum_rate_logdet(F, blk) - sum_rate_closed(F, blk)), 1e-10),
        "bound_ordering": (b.r_lower - b.r_up_min, _ORDER_SLACK),
        "lower_matches_logdet": (abs(b.r_lower - sum_rate_logdet(f, blk)), 1e-9),
        "relay_power_equality": (abs(f.tx_power - blk.P_r) / np.maximum(1.0, blk.P_r), 1e-8),
        "tdma_kkt_spread": (alloc.kkt_spread * kkt_scale, _KKT_ATOL),
        "tdma_slackness": (slack * kkt_scale, _KKT_ATOL),
        "tau_simplex": (abs(alloc.tau.sum(axis=1) - 1.0), _SIMPLEX_ATOL),
        "tdma_rates_logdet": (_slot_logdet_error(blk, alloc.tau, alloc.per_user_rate), 1e-10),
        # any disagreement counts as 1.0
        "asymptotic_predicate": ((abs(gap) > 1e-9) & (asym.joint_wins != (gap > 0.0)), 0.5),
    }


def invariant_suite(scen: ScenarioConfig, n_trials: int = 100) -> list[CheckOutcome]:
    """Exercise the cross-formula invariants on random realizations: trial t
    is sample_channel(scen, trial_rng(scen.seed, t)), scaled from a
    sample_block draw, and the probes, three vectors x and a relay matrix F
    per trial, each entry with real and imaginary parts uniform on [-1, 1),
    come from trial_rng(scen.seed, 2**32 - 1), which no trial reaches, trial
    after trial, one 64-bit output per part. The trials are evaluated in
    chunks of as many as keep within _BLOCK_BYTES at _check_bytes per trial,
    each as one block by the kernels the sweeps run, with its own probes
    drawn as it starts: the next ones of the stream, so no probe depends on
    the chunking. Only sum_rate_closed, the independent closed form, builds
    the aggregates again. Returns one outcome per invariant with the worst
    violation seen over all chunks; used by the CLI ``check`` subcommand.
    ValidationError, before any draw, unless 1 <= n_trials < 2**32."""
    if not 1 <= n_trials < 2**32:
        raise ValidationError(f"n_trials must be in [1, 2**32), got {n_trials}")
    M = scen.M_r  # per trial, rows 0-2 are the probes x and rows 3.. the relay matrix F
    rng = trial_rng(scen.seed, 2**32 - 1)
    size = max(1, _BLOCK_BYTES // _check_bytes(scen.K, M))
    maxima = {}  # name: each chunk's largest violation measure
    for lo in range(0, n_trials, size):
        trials = range(lo, min(lo + size, n_trials))
        z = 2.0 * rng.random((len(trials), 2, 3 + M, M)) - 1.0
        chunk = _check_rows(scen, trials, z[:, 0] + 1j * z[:, 1])
        for name, (m, _) in chunk.items():
            maxima.setdefault(name, []).append(np.max(m))
    worst = {name: float(np.max(m)) for name, m in maxima.items()}
    worst = {name: w if np.isnan(w) else max(0.0, w) for name, w in worst.items()}  # NaN fails
    return [CheckOutcome(name, worst[name] <= limit, worst[name], limit)
            for name, (_, limit) in chunk.items()]
