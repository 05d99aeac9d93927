"""TDMA relaying: per-slot optimal beamforming and slot-duration optimization.

Time is split into K exclusive slots. User k transmits alone in a slot of
duration tau^(k) with power boosted to P^(k)/tau^(k) (the average power
constraint is met), and the relay matrix in that slot is matched to user k
alone, for which the optimum is known in closed form. The objective is
concave and separable in the slot durations, so the optimum is a
water-filling on the common marginal rate nu: every user with a slot has
dR^(k)/dtau^(k) = nu, a user whose marginal rate at a vanishing slot is at
most nu gets none, and nu is the level at which the durations sum to one.

For unbounded relay power the optimal durations and the resulting sum rate
have closed forms, which also yield the test deciding whether joint relaying
beats TDMA in that regime.

:func:`block_slots` and :func:`block_asymptotic` evaluate every trial of a
channel block at once; the single-realization functions run them on one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, sqrt

import numpy as np

from .channel import ChannelAggregates, ChannelRealization, compute_aggregates, user_snrs
from .errors import NumericalError, ValidationError
from .joint import RelayMatrix
from .numerics import dominant_eigenpair

__all__ = [
    "TdmaAllocation", "AsymptoticResult", "single_user_relay_matrix", "single_user_rate",
    "user_rate", "user_rate_derivative", "optimize_slots", "block_slots", "kkt_slackness",
    "asymptotic_allocation", "block_asymptotic", "joint_beats_tdma_asymptotic",
]

_LN2 = log(2.0)
_MAX_ITER = 200  # cap on either water-filling loop
_TAU_RTOL = 1e-10  # relative Newton step (or bracket) ending a slot search
_SUM_ATOL = 1e-14  # |sum_k tau_k - 1| ending the search for the level nu
_SIMPLEX_ATOL = 1e-9  # |sum_k tau_k - 1| an allocation may show
_TIE_RTOL = 1e-12  # relative guard breaking asymptotic ties toward TDMA
# n = 2..24 in the series of _log_excess: at t = 1/5 its last term is below
# 1e-16 of the sum, and the tail after it below 1e-17.
_SERIES_N = np.arange(2.0, 25.0)


@dataclass(frozen=True)
class TdmaAllocation:
    """Optimized slot durations with the rates they achieve; for a block, tau
    and per_user_rate are (N, K) arrays and the rest (N,) arrays."""

    tau: np.ndarray
    per_user_rate: np.ndarray
    sum_rate: float
    kkt_spread: float  # max - min marginal rate over users with tau > 0


@dataclass(frozen=True)
class AsymptoticResult:
    """Unbounded-relay-power limits of both schemes (arrays for a block)."""

    tau_inf: np.ndarray
    rate_inf: float
    joint_rate_inf: float
    joint_wins: bool


def _user_consts(c: ChannelRealization, k: int):
    """The slot constants (d, nr, hp) of user k of a realization;
    ValidationError unless 0 <= k < K."""
    if not 0 <= k < c.K:
        raise ValidationError(f"user index {k} out of range for K={c.K}")
    d, nr, hp = user_snrs(c)
    return d[k], nr[k], hp


def _slot_rate(d, nr, hp, tau: np.ndarray) -> np.ndarray:
    """Rate tau*log2(1 + d/tau + hp*nr/((hp+1)*tau + nr)) of a slot of
    duration tau (power boosted to P/tau), 0 at tau = 0, for an array tau of
    the broadcast shape; formed in place, as tau can be a large grid."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (hp + 1.0) * tau
        x += nr
        np.divide(hp * nr, x, out=x)
        x += d / tau
        np.log1p(x, out=x)
        x *= tau
        x /= _LN2
    x[~(tau > 0.0)] = 0.0
    return x


def _log_excess(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """ln(1+u) - u/(1+u) >= 0 for u >= 0, given w = 1 + u; below u = 1/4, where
    the terms cancel, the series sum_{n>=2} t^n/n in t = u/(1+u) to n = 24."""
    out = np.log1p(u) - u / w
    small = u < 0.25
    if small.any():
        t = u[small] / w[small]
        powers = np.cumprod(np.broadcast_to(t[:, None], (t.size, _SERIES_N.size + 1)), axis=1)
        out[small] = np.sum(powers[:, 1:] / _SERIES_N, axis=1)
    return out


def _slot_derivs(d, nr, hp, tau):
    """(R', R'') in nats at tau > 0 of R(tau) = tau*ln(1 + u),
    u = d/tau + a/(b*tau + nr) with a = hp*nr, b = hp + 1, den = b*tau + nr:
    R' = [ln(1+u) - u/(1+u)] + (u + tau*u')/(1+u), two terms >= 0
    (u + tau*u' = r = a*nr/den^2) that keep R' accurate when every rate is
    tiny, and R'' = (2u' + tau*u'')/(1+u) - tau*u'^2/(1+u)^2
    = -2b*r/(den*(1+u)) - tau*(u'/(1+u))^2. Arrays broadcast."""
    b = hp + 1.0
    den = b * tau + nr
    q = hp * nr / den
    u = d / tau + q
    w = 1.0 + u
    rw = q * nr / den / w
    u1w = (d / (tau * tau) + q * b / den) / w  # -u'/(1+u)
    return _log_excess(u, w) + rw, -2.0 * b * rw / den - tau * u1w * u1w


def _marginal_at_zero(d, nr, hp):
    """R' in nats at a vanishing slot, its continuous limit: +inf with a direct
    link, else ln(1 + hp) when the relay path carries rate, else 0."""
    return np.where(d > 0.0, np.inf, np.where(nr > 0.0, np.log1p(hp), 0.0))


def single_user_relay_matrix(c: ChannelRealization, k: int) -> RelayMatrix:
    """Optimal relay matrix when user k is alone on the channel:
    sqrt(P_r / (1 + ||h_r||^2 P)) * h h_r^H / (||h|| ||h_r||), with its
    transmit power charged to user k alone. A zero channel on either hop
    yields F = 0 (the rate falls back to the direct link)."""
    _, nr, _ = _user_consts(c, k)
    alone = ChannelRealization(
        h_r=c.h_r[k : k + 1], h_d=c.h_d[k : k + 1], h=c.h, P=c.P[k : k + 1], P_r=c.P_r
    )
    hrn = float(np.linalg.norm(c.h_r[k]))
    v = c.h_r[k] / hrn if hrn else c.h_r[k]  # a zero h_r keeps F = 0
    return RelayMatrix.beamformer(alone, v, sqrt(c.P_r / (1.0 + nr)))


def single_user_rate(c: ChannelRealization, k: int) -> float:
    """Rate of user k alone with the matched relay matrix:
    log2(1 + |h_d|^2 P + ||h||^2 ||h_r||^2 P P_r / (1 + ||h||^2 P_r + ||h_r||^2 P)).
    """
    return float(_slot_rate(*_user_consts(c, k), np.ones(1))[0])


def user_rate(c: ChannelRealization, k: int, tau):
    """Rate of user k in a slot of duration tau (power boosted to P/tau),
    continuously extended to 0 at tau = 0. Accepts a scalar or an array of
    durations."""
    consts = _user_consts(c, k)
    tau_arr = np.asarray(tau, dtype=float)
    if not np.all((tau_arr >= 0) & (tau_arr <= 1)):
        raise ValidationError("slot durations must lie in [0, 1]")
    rate = _slot_rate(*consts, np.atleast_1d(tau_arr))
    return float(rate[0]) if tau_arr.ndim == 0 else rate


def user_rate_derivative(c: ChannelRealization, k: int, tau: float) -> float:
    """Marginal rate dR^(k)/dtau at tau > 0 (analytic form; strictly
    decreasing in tau)."""
    consts = _user_consts(c, k)
    if not tau > 0:
        raise ValidationError(f"tau must be positive, got {tau}")
    return float(_slot_derivs(*consts, np.array([float(tau)]))[0][0] / _LN2)


def block_slots(d: np.ndarray, nr: np.ndarray, hp: np.ndarray, epsilon: float):
    """:func:`optimize_slots` for each trial of a block, from its SNRs d, nr
    (N, K) and hp (N,). Returns the TdmaAllocation of the block and one
    failure message per trial, "" when every check passed. A trial, and each
    of its users, stops iterating once converged and keeps its values, so no
    result depends on the rest of the block."""
    N, K = d.shape
    hp = hp[:, None]
    why = np.full(N, "", dtype=object)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g0 = _marginal_at_zero(d, nr, hp)
        act = g0 > 0.0
        n = np.maximum(act.sum(axis=1), 1)
        g1, gu = _slot_derivs(d, nr, hp, 1.0)[0], _slot_derivs(d, nr, hp, 1.0 / n[:, None])[0]
        # At nu_lo one user has the whole frame, so no level inside clips a slot at 1.
        nu_lo, nu_hi = (np.where(act, g, -np.inf).max(axis=1) for g in (g1, gu))
        nu = np.maximum(nu_lo, np.where(act, gu, 0.0).sum(axis=1) / n)
        prev, total = nu.copy(), np.ones(N)
        t, dtdnu = np.where(act, 1.0 / n[:, None], 0.0), np.zeros((N, K))
        live = act.any(axis=1)
        for _ in range(_MAX_ITER):
            if not live.any():
                break
            # Every slot at the level nu of its trial, warm-started on the
            # tangent of tau_k(nu) at the previous level.
            i, k = np.nonzero(act & live[:, None])
            t[i, k], dtdnu[i, k], failed = _slots_at_level(
                d[i, k], nr[i, k], hp[i, 0], g0[i, k], g1[i, k], nu[i],
                t[i, k] + dtdnu[i, k] * (nu[i] - prev[i]))
            for j, message in sorted(failed, reverse=True):  # a trial's first user wins
                why[i[j]], live[i[j]] = message, False
            L = np.flatnonzero(live)
            prev = nu.copy()
            total[L], slope, level = t[L].sum(axis=1), dtdnu[L].sum(axis=1), nu[L]
            above, lo, hi = total[L] > 1.0, nu_lo[L], nu_hi[L]
            nu_lo[L], nu_hi[L] = np.where(above, level, lo), np.where(above, hi, level)
            # Newton on ln(total), close to linear in nu when direct links dominate.
            mid = 0.5 * (nu_lo[L] + nu_hi[L])
            step = np.where(slope != 0.0, level - total[L] * np.log(total[L]) / slope, mid)
            step = np.where((nu_lo[L] < step) & (step < nu_hi[L]), step, mid)
            done = np.abs(total[L] - 1.0) <= _SUM_ATOL
            nu[L] = np.where(done, level, step)
            # a float nu that gets no closer also ends the search
            live[L] = ~done & (np.abs(step - level) > 2.0 * np.spacing(np.abs(level)))
        why[live] = f"water level not found in {_MAX_ITER} steps"
        tau = np.where(act.any(axis=1)[:, None], t / total[:, None], 1.0 / K)
        pos = act & (tau > 0.0)
        g, _ = _slot_derivs(d, nr, hp, np.where(pos, tau, 1.0))
        spread = np.where(pos.any(axis=1), np.where(pos, g, -np.inf).max(axis=1)
                          - np.where(pos, g, np.inf).min(axis=1), 0.0) / _LN2
        rates = _slot_rate(d, nr, hp, tau)
    for j in np.flatnonzero((why == "") & ~(spread <= epsilon)):
        why[j] = f"KKT spread {spread[j]:.3e} > {epsilon}"
    simplex = np.all(tau >= 0.0, axis=1) & (np.abs(tau.sum(axis=1) - 1.0) <= _SIMPLEX_ATOL)
    why[(why == "") & ~simplex] = "slot durations off the simplex"
    return TdmaAllocation(tau, rates, rates.sum(axis=1), spread), why


def _slots_at_level(d, nr, hp, g0, g1, nu, guess):
    """(tau, dtau/dnu) of each user at the level nu of its trial: the root of
    R'(tau) = nu in (0, 1) by safeguarded Newton from the guess, or the end of
    [0, 1] where R' (g0 at 0, g1 at 1) misses nu; and (user, message) pairs."""
    tau = np.where(g0 <= nu, 0.0, 1.0)
    slope = np.zeros_like(tau)
    idx = np.flatnonzero((g0 > nu) & (g1 < nu))
    x = guess[idx]
    x = np.where((0.0 < x) & (x < 1.0), x, 0.5)
    lo, hi = np.zeros_like(x), np.ones_like(x)
    d, nr, hp, nu = d[idx], nr[idx], hp[idx], nu[idx]
    failed = []
    for _ in range(_MAX_ITER):
        if not idx.size:
            return tau, slope, failed
        g, h = _slot_derivs(d, nr, hp, x)
        flat = ~(h < 0.0)  # R'' < 0 unless it underflows
        step = (g - nu) / h
        close = np.abs(step) <= _TAU_RTOL * x
        above = g > nu
        lo, hi = np.where(above, x, lo), np.where(above, hi, x)
        end = flat | close | (hi - lo <= _TAU_RTOL * hi)
        if flat.any():
            failed += [(j, f"marginal rate flat at tau = {v}") for j, v in zip(idx[flat], x[flat])]
        nxt = x - step
        root = np.where(close, nxt, x)
        x = np.where((lo < nxt) & (nxt < hi), nxt, 0.5 * (lo + hi))
        if end.any():
            tau[idx[end]], slope[idx[end]] = root[end], 1.0 / h[end]
            keep = ~end
            idx, x, lo, hi, d, nr, hp, nu = (v[keep] for v in (idx, x, lo, hi, d, nr, hp, nu))
    failed += [(j, f"slot at level {v / _LN2} not found in {_MAX_ITER} steps")
               for j, v in zip(idx, nu)]
    return tau, slope, failed


def optimize_slots(c: ChannelRealization, epsilon: float = 1e-8) -> TdmaAllocation:
    """Find slot durations maximizing the TDMA sum rate.

    Water-filling on the common marginal rate nu: each tau_k(nu) solves
    R_k'(tau_k) = nu by safeguarded Newton (0 when R_k'(0) <= nu), and nu
    solves ln sum_k tau_k(nu) = 0 by safeguarded Newton, with
    dtau_k/dnu = 1/R_k''(tau_k), inside [max_k R_k'(1), max_k R_k'(1/n)] over
    the n users with nonzero rate. Users whose rate is identically zero get
    tau = 0; when no user carries rate the split is uniform. NumericalError
    is raised if either search exceeds its iteration cap, a marginal rate is
    flat, the marginal rates of the users with a slot differ by more than
    epsilon, or the durations leave the simplex by more than 1e-9.
    """
    if not epsilon > 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    d, nr, hp = user_snrs(c)
    alloc, why = block_slots(d[None], nr[None], np.array([hp]), epsilon)
    if why[0]:
        raise NumericalError(why[0])
    return TdmaAllocation(*(field[0] for field in vars(alloc).values()))


def kkt_slackness(c: ChannelRealization, tau) -> float:
    """Complementary-slackness violation of slot durations tau: the largest
    excess of R_k'(0) over nu, the largest marginal rate among users with a
    slot, over users with tau_k = 0 (0.0 when none exceeds nu). tau must hold
    K durations in [0, 1], at least one of them positive."""
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (c.K,) or not np.all((tau >= 0) & (tau <= 1)) or not np.any(tau > 0):
        raise ValidationError(f"need {c.K} slot durations in [0, 1], not all zero, got {tau}")
    d, nr, hp = user_snrs(c)
    pos = tau > 0.0
    nu = _slot_derivs(d[pos], nr[pos], hp, tau[pos])[0].max()
    return float(np.max(_marginal_at_zero(d[~pos], nr[~pos], hp) - nu, initial=0.0) / _LN2)


def joint_beats_tdma_asymptotic(c: ChannelRealization) -> bool:
    """True iff joint relaying achieves a higher sum rate than optimally
    slotted TDMA as the relay power grows without bound:
    lam_max(R + W) > sum_k ||h_r^(k)||^2 P^(k)."""
    return bool(asymptotic_allocation(c).joint_wins)


def block_asymptotic(agg: ChannelAggregates) -> AsymptoticResult:
    """:func:`asymptotic_allocation` for each trial of a block, or for one
    realization, from its aggregates."""
    lam, _ = dominant_eigenpair(agg.R + agg.W)
    relay_sum = agg.nr.sum(axis=-1)  # tr R
    weights = agg.d + agg.nr
    total = weights.sum(axis=-1)
    some = total > 0.0
    return AsymptoticResult(
        tau_inf=np.where(some[..., None], weights / np.where(some, total, 1.0)[..., None],
                         1.0 / weights.shape[-1]),
        rate_inf=np.log1p(total) / _LN2,
        joint_rate_inf=np.log1p(agg.s + lam) / _LN2,
        # lam_max(R + W) > sum_k ||h_r^(k)||^2 P^(k), strictly and with a
        # relative guard so exact ties (e.g. K = 1, where lam equals the
        # sum) resolve to TDMA under float noise.
        joint_wins=lam > relay_sum + _TIE_RTOL * np.maximum(1.0, relay_sum),
    )


def asymptotic_allocation(c: ChannelRealization) -> AsymptoticResult:
    """Closed-form limits as P_r grows without bound.

    The optimal durations become proportional to P^(k) (|h_d|^2 + ||h_r||^2)
    and the TDMA sum rate tends to log2(1 + sum_k P^(k)(|h_d|^2 + ||h_r||^2));
    the joint scheme tends to its power-unconstrained upper bound."""
    return block_asymptotic(compute_aggregates(c))
