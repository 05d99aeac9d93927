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
from .numerics import dominant_eigenpair, dominant_eigenvalue  # noqa: F401 (perfbench wraps it)

__all__ = [
    "TdmaAllocation", "AsymptoticResult", "single_user_relay_matrix", "single_user_rate",
    "user_rate", "user_rate_derivative", "optimize_slots", "block_slots", "kkt_slackness",
    "asymptotic_allocation", "block_asymptotic", "joint_beats_tdma_asymptotic",
]

_LN2 = log(2.0)
_MAX_ITER = 200  # cap on the Newton steps of the slot optimizer
_TAU_RTOL = 1e-10  # relative move of a slot that has converged
_NU_ULPS = 16  # ulps of nu within which a slot's marginal rate has converged
_SIMPLEX_ATOL = 1e-9  # |sum_k tau_k - 1| an allocation may show
_KKT_ATOL = 1e-8  # KKT spread and slackness in bits an allocation may show
_KKT_RTOL = 1e-10  # ... and relative to the water level nu, where that is smaller
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


def block_slots(d: np.ndarray, nr: np.ndarray, hp: np.ndarray):
    """:func:`optimize_slots` for each trial of a block, from its SNRs d, nr
    (N, K) and hp (N,). Returns the TdmaAllocation of the block and one
    failure message per trial, "" when it passed every check of
    :func:`optimize_slots`. Every pass takes one Newton step on each live
    trial; a trial stops once every slot has moved by at most _TAU_RTOL of
    itself or has a marginal rate within _NU_ULPS ulps of nu, and keeps its
    values, so no result depends on the rest of the block."""
    K = d.shape[1]
    hp = hp[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g0 = _marginal_at_zero(d, nr, hp)
        act = g0 > 0.0
        # Start at the optimum for unbounded relay power, tau_k ~ d_k + nr_k.
        t = np.where(act, d + nr, 0.0)
        some = act.any(axis=1)
        t /= np.where(some, t.sum(axis=1), 1.0)[:, None]
        live = some.copy()
        for _ in range(_MAX_ITER):
            L = np.flatnonzero(live)
            if not L.size:
                break
            tau = t[L]
            open_ = tau > 0.0
            g, h = _slot_derivs(d[L], nr[L], hp[L], np.where(open_, tau, 1.0))
            # Newton step on R_k'(tau_k) = nu, sum_k tau_k = 1: each open slot
            # moves to tau_k + (nu - g_k)/h_k, and nu makes these sum to one.
            # nu is found as ref + rise, ref the g of the flattest slot, whose
            # tau moves most per ulp of nu: rise and the (ref - g_k)/h_k are
            # then small and exact. A slot whose 1/R'' is not finite, as R''
            # underflowed, takes no step.
            inv = 1.0 / h
            step = open_ & (inv < 0.0) & (inv > -np.inf)
            inv[~step] = 0.0
            flattest = step & (inv == inv.min(axis=1, keepdims=True))
            ref = np.where(flattest, g, -np.inf).max(axis=1, keepdims=True)
            move = np.where(step, (ref - g) * inv, 0.0)
            rise = (1.0 - tau.sum(axis=1, keepdims=True) - move.sum(axis=1, keepdims=True)) \
                / inv.sum(axis=1, keepdims=True)
            nu = ref + rise
            tol = _NU_ULPS * np.spacing(np.abs(nu))
            nxt = np.where(step, tau + move + rise * inv, tau)
            # A step that would close a slot halves it; a slot whose marginal
            # rate at 0 is below nu by more than tol is parked at 0 for good
            # (one at nu to rounding, as a flat R' gives, keeps its slot).
            nxt = np.where(nxt > 0.0, nxt, 0.5 * tau)
            nxt[~open_ | (g0[L] < nu - tol)] = 0.0
            t[L] = nxt
            done = (np.abs(nxt - tau) <= _TAU_RTOL * tau) | (np.abs(g - nu) <= tol)
            live[L] = ~done.all(axis=1)
    alloc, why = _checked_allocation(d, nr, hp, np.where(some[:, None], t, 1.0 / K))
    why[live] = f"water level not found in {_MAX_ITER} steps"
    return alloc, why


def _kkt_gaps(d, nr, hp, tau):
    """(spread, slack, nu) in bits of slot durations tau, for one user set
    or each trial of a block (leading axes, hp broadcast against tau): the
    spread of the marginal rates over the open slots, the largest excess of
    a parked user's marginal rate at a vanishing slot over nu (0.0 when
    none exceeds it), and nu, the largest marginal rate of an open slot."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        open_ = tau > 0.0
        g, _ = _slot_derivs(d, nr, hp, np.where(open_, tau, 1.0))
        nu = np.where(open_, g, -np.inf).max(axis=-1)
        spread = np.where(open_.any(axis=-1), nu - np.where(open_, g, np.inf).min(axis=-1), 0.0)
        excess = np.where(open_, -np.inf, _marginal_at_zero(d, nr, hp) - nu[..., None])
        slack = np.maximum(excess.max(axis=-1), 0.0)
    return spread / _LN2, slack / _LN2, nu / _LN2


def _kkt_tolerance(nu):
    """The KKT spread or slackness in bits that slot durations at the level
    nu may show: _KKT_ATOL, or _KKT_RTOL of nu where that is smaller, so that
    a wrong allocation stays visible when every rate is tiny."""
    return np.minimum(_KKT_ATOL, _KKT_RTOL * nu)


def _checked_allocation(d, nr, hp, tau):
    """The TdmaAllocation of a block's slot durations tau (N, K), hp (N, 1),
    and one failure message per trial: a KKT spread or slackness over
    _kkt_tolerance, or durations off the simplex; "" when it passes."""
    spread, slack, nu = _kkt_gaps(d, nr, hp, tau)
    tol = _kkt_tolerance(nu)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rates = _slot_rate(d, nr, hp, tau)
    why = np.full(len(tau), "", dtype=object)
    for name, gap in (("spread", spread), ("slackness", slack)):
        for j in np.flatnonzero((why == "") & ~(gap <= tol)):
            why[j] = f"KKT {name} {gap[j]:.3e} > {tol[j]:.3e}"
    simplex = np.all(tau >= 0.0, axis=1) & (np.abs(tau.sum(axis=1) - 1.0) <= _SIMPLEX_ATOL)
    why[(why == "") & ~simplex] = "slot durations off the simplex"
    return TdmaAllocation(tau, rates, rates.sum(axis=1), spread), why


def optimize_slots(c: ChannelRealization) -> TdmaAllocation:
    """Find slot durations maximizing the TDMA sum rate.

    Newton's method on the KKT system R_k'(tau_k) = nu, sum_k tau_k = 1,
    from the unbounded-relay-power optimum tau_k ~ d_k + nr_k. Each step
    linearizes every open slot as tau_k + (nu - g_k)/h_k, with g_k and h_k
    its R' and R'', and takes nu in closed form so that these sum to one. A
    slot the step would close is halved instead, and a slot whose marginal
    rate at 0 is below nu by more than 16 ulps of nu gets tau = 0 for good.
    Users whose rate is identically zero get tau = 0; when no user carries
    rate the split is uniform. NumericalError is raised if the steps exceed
    their cap, the marginal rates of the users with a slot differ by more
    than 1e-8 bits or 1e-10 of nu, where that is smaller, a user without a
    slot has a marginal rate at 0 above nu by as much (fixed checks; the
    steps stop on far tighter tolerances of their own), or the durations
    leave the simplex by more than 1e-9.
    """
    d, nr, hp = user_snrs(c)
    alloc, why = block_slots(d[None], nr[None], np.array([hp]))
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
    return float(_kkt_gaps(*user_snrs(c), tau)[1])


def joint_beats_tdma_asymptotic(c: ChannelRealization) -> bool:
    """True iff joint relaying achieves a higher sum rate than optimally
    slotted TDMA as the relay power grows without bound:
    lam_max(R + W) > sum_k ||h_r^(k)||^2 P^(k)."""
    return bool(asymptotic_allocation(c).joint_wins)


def block_asymptotic(agg: ChannelAggregates) -> AsymptoticResult:
    """:func:`asymptotic_allocation` for each trial of a block, or for one
    realization, from its aggregates."""
    lam = dominant_eigenvalue(agg.R + agg.W)
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
