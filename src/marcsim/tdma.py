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
beats TDMA in that regime: lambda_max(R + W) > tr R, or, as one number per
draw, the superiority index mu = lambda_max(W, (tr R) I - R) > 1. R scales
as P_max and W as alpha^2 P_max^2, so mu scales as alpha^2 P_max.

:func:`block_slots` and :func:`block_asymptotic` evaluate every trial of a
channel block at once; the single-realization functions run them on one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import log

import numpy as np

from .channel import ChannelAggregates, ChannelRealization, compute_aggregates, user_snrs
from .errors import NumericalError, ValidationError
from .joint import RelayMatrix
from .numerics import dominant_eigenvalue, whitener
from .numerics import dominant_eigenpair  # noqa: F401 (perfbench wraps it)

__all__ = [
    "TdmaAllocation", "AsymptoticResult", "single_user_relay_matrix", "user_rate",
    "user_rate_derivative", "optimize_slots", "block_slots", "asymptotic_allocation",
    "block_asymptotic", "joint_beats_tdma_asymptotic", "superiority_index",
]

_LN2 = log(2.0)
_MAX_ITER = 200  # cap on the Newton steps of the slot optimizer
_TAU_RTOL = 1e-8  # relative move of a slot that has converged
_NU_ULPS = 16  # ulps of nu within which a slot's marginal rate has converged
_SIMPLEX_ATOL = 1e-9  # |sum_k tau_k - 1| an allocation may show
_KKT_ATOL = 1e-8  # KKT spread and slackness in bits an allocation may show
_KKT_RTOL = 1e-10  # ... and relative to the water level nu, where that is smaller
# ulps of tr R by which lambda_max(R + W) must pass it for joint relaying to
# win, the guard g of superiority_index; a K = 1 tie, lambda_max(R) = tr R,
# errs by at most 12.
_TIE_ULPS = 64
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


def _user_consts(c, k: int):
    """The slot constants (d, nr, hp) of user k of a realization, or of each
    trial of a ChannelBlock; ValidationError unless 0 <= k < K."""
    K = c.h_r.shape[-2]
    if not 0 <= k < K:
        raise ValidationError(f"user index {k} out of range for K={K}")
    d, nr, hp = user_snrs(c)
    return d[..., k], nr[..., k], hp


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


def _slot_derivs(d, nr, a, b, tau):
    """(R', R'') in nats at tau > 0 of R(tau) = tau*ln(1 + u),
    u = d/tau + a/(b*tau + nr), given a = hp*nr and b = hp + 1, den = b*tau + nr:
    R' = [ln(1+u) - u/(1+u)] + (u + tau*u')/(1+u), two terms >= 0
    (u + tau*u' = r = a*nr/den^2) that keep R' accurate when every rate is
    tiny, and R'' = (2u' + tau*u'')/(1+u) - tau*u'^2/(1+u)^2
    = -2b*r/(den*(1+u)) - tau*(u'/(1+u))^2. Arrays broadcast."""
    den = b * tau + nr
    q = a / den
    u = d / tau + q
    w = 1.0 + u
    rw = q * nr / den / w
    u1w = (d / (tau * tau) + q * b / den) / w  # -u'/(1+u)
    return _log_excess(u, w) + rw, -2.0 * b * rw / den - tau * u1w * u1w


def _marginal_at_zero(d, nr, hp):
    """R' in nats at a vanishing slot, its continuous limit: +inf with a direct
    link, else ln(1 + hp) when the relay path carries rate, else 0."""
    return np.where(d > 0.0, np.inf, np.where(nr > 0.0, np.log1p(hp), 0.0))


def single_user_relay_matrix(c, k: int) -> RelayMatrix:
    """Optimal relay matrix when user k is alone on the channel:
    sqrt(P_r / (1 + ||h_r||^2 P)) * h h_r^H / (||h|| ||h_r||), with its
    transmit power charged to user k alone, of a realization, or of each
    trial of a ChannelBlock. A zero channel on either hop yields F = 0 (the
    rate falls back to the direct link)."""
    _, nr, _ = _user_consts(c, k)
    one = slice(k, k + 1)
    alone = replace(c, h_r=c.h_r[..., one, :], h_d=c.h_d[..., one], P=c.P[..., one])
    h_r = c.h_r[..., k, :]
    hrn = np.linalg.norm(h_r, axis=-1)[..., None]
    v = np.divide(h_r, hrn, out=np.zeros_like(h_r), where=hrn > 0.0)  # a zero h_r keeps F = 0
    return RelayMatrix.beamformer(alone, v, np.sqrt(c.P_r / (1.0 + nr)))


def user_rate(c: ChannelRealization, k: int, tau):
    """Rate of user k in a slot of duration tau (power boosted to P/tau),
    continuously extended to 0 at tau = 0. Accepts a scalar or an array of
    durations. At tau = 1 it is the rate of user k alone with the matched
    relay matrix: log2(1 + |h_d|^2 P + ||h||^2 ||h_r||^2 P P_r /
    (1 + ||h||^2 P_r + ||h_r||^2 P))."""
    consts = _user_consts(c, k)
    tau_arr = np.asarray(tau, dtype=float)
    if not np.all((tau_arr >= 0) & (tau_arr <= 1)):
        raise ValidationError("slot durations must lie in [0, 1]")
    rate = _slot_rate(*consts, np.atleast_1d(tau_arr))
    return float(rate[0]) if tau_arr.ndim == 0 else rate


def user_rate_derivative(c: ChannelRealization, k: int, tau: float) -> float:
    """Marginal rate dR^(k)/dtau at tau > 0 (analytic form; strictly
    decreasing in tau)."""
    d, nr, hp = _user_consts(c, k)
    if not tau > 0:
        raise ValidationError(f"tau must be positive, got {tau}")
    return float(_slot_derivs(d, nr, hp * nr, hp + 1.0, np.array([float(tau)]))[0][0] / _LN2)


def _user_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 by pairwise halving, x[:h] + x[h:2h] with an odd last
    row added to the last entry: an order set by K alone, not by x's shape."""
    while len(x) > 1:
        h = len(x) // 2
        y = x[:h] + x[h : 2 * h]
        if len(x) % 2:
            y[-1] += x[-1]
        x = y
    return x[0]


def _water_fill(d, nr, hp, users):
    """The slot durations (K, N) of the Newton loop of block_slots on the
    users ``users`` (K, N) of each trial, every other slot closed, and the
    trials, as indices, that did not stop within _MAX_ITER passes. Live
    trials are gathered anew only after a pass on which some trial stops."""
    a, b = hp * nr, hp + 1.0  # the constants of _slot_derivs, formed once
    t = np.where(users, d + nr, 0.0)
    some = users.any(axis=0)
    t /= np.where(some, _user_sum(t), 1.0)
    for _ in range(2):  # a trial whose sum underflows to 0 keeps its tau
        snr = np.where(users, d + nr * (hp * t / (b * t + nr)), 0.0)
        total = _user_sum(snr)
        t = np.where((total > 0.0) & (total < np.inf), snr / total, t)
    # A trial with no user to serve stops on its first pass.
    L, tau, dL, nrL, aL, bL = np.arange(len(hp)), t, d, nr, a, b
    share = np.zeros_like(t)
    for _ in range(_MAX_ITER):
        if not L.size:
            break
        g, h = _slot_derivs(dL, nrL, aL, bL, tau)
        # nu = ref + rise, ref the g of the flattest slot, whose tau moves
        # most per ulp of nu: rise and the (ref - g_k)/h_k are then small
        # and exact. A closed slot, or one whose 1/R'' is not finite, takes
        # no step.
        inv = 1.0 / h
        step = (tau > 0.0) & (inv < 0.0) & (inv > -np.inf)
        inv[~step] = 0.0
        flattest = step & (inv == inv.min(axis=0))
        ref = np.where(flattest, g, -np.inf).max(axis=0)
        move = np.where(step, (ref - g) * inv, 0.0)
        rise = (1.0 - _user_sum(tau) - _user_sum(move)) / _user_sum(inv)
        nu = ref + rise
        delta = move + rise * inv
        nxt = np.where(step, tau * np.exp(np.minimum(np.maximum(delta / tau, -2.0), 2.0)), tau)
        stop = ((np.abs(nxt - tau) <= _TAU_RTOL * tau)
                | (np.abs(g - nu) <= _NU_ULPS * np.spacing(np.abs(nu)))).all(axis=0)
        tau = nxt
        if stop.any():
            t[:, L], share[:, L] = tau, inv
            keep = np.flatnonzero(~stop)
            L, tau, dL, nrL, aL, bL = (x.take(keep, -1) for x in (L, tau, dL, nrL, aL, bL))
    t[:, L] = tau
    # A slot stopped by the nu test may step far in ln tau, and one whose R'
    # is flat stops wherever it lies: the residual 1 - sum tau goes to the
    # open slots by 1/R'' of their last pass, Newton's share, or else by
    # rescaling. Where two slots are flat that share can take one below 0,
    # so there the residual goes by tau/R''.
    share = np.where(t > 0.0, share, 0.0)
    total, rest = _user_sum(share), 1.0 - _user_sum(t)
    shared = t + share * (rest / np.where(total < 0.0, total, 1.0))
    over = np.flatnonzero((shared < 0.0).any(axis=0))
    if over.size:
        w = t[:, over] * share[:, over]
        shared[:, over] = t[:, over] + w * (rest[over] / _user_sum(w))
    t = np.where(some, np.where(total < 0.0, shared, t / _user_sum(t)), 1.0 / len(d))
    return t, L


def block_slots(d: np.ndarray, nr: np.ndarray, hp: np.ndarray):
    """:func:`optimize_slots` for each trial of a block, from its SNRs d, nr
    (N, K) and hp (N,): its TdmaAllocation and its failures as
    {trial: message}, empty when every trial passed every check. The loop
    and its check hold users first, (K, N), so each reduction over users is
    one contiguous pass over the trials. Every relay-only user (d = 0) of a
    trial has the marginal rate ln(1 + hp) at a vanishing slot, so they hold
    a slot together or not at all: a trial with a direct link runs the loop
    on its direct-link users, and again on every user with rate where that
    level leaves a relay-only user slack; a trial without one runs it on its
    relay-only users. A trial's start, steps and stop use its own column
    alone, and sums over users the fixed order of _user_sum: no result
    depends on the rest of the block."""
    d, nr = d.T.copy(), nr.T.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        act, direct = _marginal_at_zero(d, nr, hp) > 0.0, d > 0.0
        linked = direct.any(axis=0)
        t, left = _water_fill(d, nr, hp, np.where(linked, direct, act))
        j = np.flatnonzero(linked & (act & ~direct).any(axis=0))
        if j.size:  # none where every user has a direct link, as at alpha > 0
            j = j[_kkt_gaps(d[:, j], nr[:, j], hp[j], t[:, j])[1] > 0.0]
            t[:, j], again = _water_fill(d[:, j], nr[:, j], hp[j], act[:, j])
            left = np.union1d(np.setdiff1d(left, j), j[again])
    alloc, why = _checked_allocation(d, nr, hp, t)
    why.update(dict.fromkeys(left.tolist(), f"water level not found in {_MAX_ITER} steps"))
    return alloc, why


def _kkt_gaps(d, nr, hp, tau):
    """(spread, slack, nu) in bits of slot durations tau, users first, (K,) or
    (K, N): the spread of the marginal rates over the open slots, the largest
    excess of a parked user's marginal rate at a vanishing slot over nu (0.0
    when none exceeds it), and nu, the largest marginal rate of an open slot."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        open_ = tau > 0.0
        g, _ = _slot_derivs(d, nr, hp * nr, hp + 1.0, np.where(open_, tau, 1.0))
        nu = np.where(open_, g, -np.inf).max(axis=0)
        spread = np.where(open_.any(axis=0), nu - np.where(open_, g, np.inf).min(axis=0), 0.0)
        excess = np.where(open_, -np.inf, _marginal_at_zero(d, nr, hp) - nu)
        slack = np.maximum(excess.max(axis=0), 0.0)
    return spread / _LN2, slack / _LN2, nu / _LN2


def _kkt_tolerance(nu):
    """The KKT spread or slackness in bits that slot durations at the level
    nu may show: _KKT_ATOL, or _KKT_RTOL of nu where that is smaller, so that
    a wrong allocation stays visible when every rate is tiny."""
    return np.minimum(_KKT_ATOL, _KKT_RTOL * nu)


def _checked_allocation(d, nr, hp, tau):
    """The TdmaAllocation of durations tau (K, N), tau and per_user_rate as
    (N, K) views, and its failures as {trial: message}: a KKT spread or
    slackness over _kkt_tolerance, or durations off the simplex, in that
    precedence."""
    spread, slack, nu = _kkt_gaps(d, nr, hp, tau)
    tol = _kkt_tolerance(nu)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rates = _slot_rate(d, nr, hp, tau)
    why = {}
    for name, gap in (("spread", spread), ("slackness", slack)):
        for j in np.flatnonzero(~(gap <= tol)).tolist():
            if j not in why:
                why[j] = f"KKT {name} {gap[j]:.3e} > {tol[j]:.3e}"
    simplex = np.all(tau >= 0.0, axis=0) & (np.abs(_user_sum(tau) - 1.0) <= _SIMPLEX_ATOL)
    for j in np.flatnonzero(~simplex).tolist():
        why.setdefault(j, "slot durations off the simplex")
    return TdmaAllocation(tau.T, rates.T, _user_sum(rates), spread), why


def optimize_slots(c: ChannelRealization) -> TdmaAllocation:
    """Find slot durations maximizing the TDMA sum rate.

    Newton's method on the KKT system R_k'(tau_k) = nu, sum_k tau_k = 1. Every
    relay-only user (d = 0) has R'(0) = ln(1 + hp), so they hold a slot
    together or not at all: with a direct link, the users that have one are
    solved first, and every user with rate again where that level leaves a
    relay-only user slack; without one, the relay-only users alone. Each
    solve starts from the unbounded-relay-power optimum tau_k ~ d_k + nr_k
    and takes two sweeps of tau_k ~ d_k + hp*nr_k*tau_k/((hp + 1)*tau_k +
    nr_k), each user's SNR over its own slot at this relay power: exact at
    P_r = 0, tau ~ d, and as P_r grows without bound. Each step linearizes
    every open slot as tau_k + delta_k, delta_k = (nu - g_k)/h_k with g_k and
    h_k its R' and R'', takes nu in closed form so that these sum to one, and
    moves the slot to tau_k*exp(delta_k/tau_k), the exponent clipped to +-2,
    so no slot closes. The steps stop once each slot has moved by at most
    1e-8 of itself, near rounding as Newton converges quadratically, or has
    its marginal rate within 16 ulps of nu; then the residual 1 - sum tau
    goes to the open slots in proportion to 1/R'' of the last step, Newton's
    own share, so that a slot whose R' is flat takes it and a steep slot
    stays at the level, or by tau/R'' where Newton's share would take a slot
    below 0; where no slot has a share, the durations are rescaled to sum to
    one. Sums over users take one pairwise order for any trial count. Users
    whose rate is identically zero get tau = 0; when no user carries rate
    the split is uniform. NumericalError is raised if the steps exceed their
    cap, the marginal rates of the users with a slot differ by more than
    1e-8 bits or 1e-10 of nu, where that is smaller, a user without a slot
    has a marginal rate at 0 above nu by as much, or the durations leave the
    simplex by more than 1e-9."""
    d, nr, hp = user_snrs(c)
    alloc, why = block_slots(d[None], nr[None], np.array([hp]))
    if why:
        raise NumericalError(why[0])
    return TdmaAllocation(*(field[0] for field in vars(alloc).values()))


def joint_beats_tdma_asymptotic(c: ChannelRealization) -> bool:
    """True iff joint relaying achieves a higher sum rate than optimally
    slotted TDMA as the relay power grows without bound:
    lam_max(R + W) > sum_k ||h_r^(k)||^2 P^(k)."""
    return bool(asymptotic_allocation(c).joint_wins)


def superiority_index(agg: ChannelAggregates) -> np.ndarray:
    """Each trial's superiority index mu = lambda_max(W, B), the largest
    x^H W x / x^H B x, with B = (tr R + g) I - R and g = _TIE_ULPS ulps of
    tr R, from aggregates with or without a trial axis: joint relaying beats
    TDMA at unbounded relay power iff mu > 1, i.e. iff lambda_max(R + W)
    passes tr R by more than g. mu is lambda_max of V W V^H for V the
    whitener of B, V B V^H = I; it is 0 where W = 0, NaN, which passes no
    threshold, where B is not positive definite, and inf where V W V^H
    overflows. R scales as t and W as (alpha t)^2 in scale_aggregates, so mu
    scales as alpha^2 t, up to the rounding of g."""
    M = agg.R.shape[-1]
    tr_R = agg.nr.sum(axis=-1)
    top = (tr_R + _TIE_ULPS * np.spacing(tr_R)).reshape(-1)
    R, W = agg.R.reshape(-1, M, M), agg.W.reshape(-1, M, M)
    mu = np.zeros(len(W))
    live = np.flatnonzero(W.reshape(-1, M * M).any(axis=-1))
    if live.size:
        live = slice(None) if live.size == len(W) else live  # no copies of R and W
        V, pd = whitener(top[live, None, None] * np.eye(M) - R[live])
        with np.errstate(over="ignore", invalid="ignore"):
            X = V @ W[live]
            X = X @ np.swapaxes(np.conjugate(V, out=V), -1, -2)  # V W V^H
        del V  # X alone while it is checked and decomposed
        big = ~np.isfinite(X).reshape(-1, M * M).all(axis=-1)
        X[big] = 0.0
        mu[live] = np.where(pd, np.where(big, np.inf, dominant_eigenvalue(X)), np.nan)
    return mu.reshape(tr_R.shape)


def block_asymptotic(agg: ChannelAggregates) -> AsymptoticResult:
    """:func:`asymptotic_allocation` for each trial of a block, or for one
    realization, from its aggregates; the verdict is superiority_index > 1,
    and lambda_max(R + W) serves joint_rate_inf alone."""
    lam = dominant_eigenvalue(agg.R + agg.W)
    weights = agg.d + agg.nr
    total = weights.sum(axis=-1)
    some = total > 0.0
    return AsymptoticResult(
        tau_inf=np.where(some[..., None], weights / np.where(some, total, 1.0)[..., None],
                         1.0 / weights.shape[-1]),
        rate_inf=np.log1p(total) / _LN2,
        joint_rate_inf=np.log1p(agg.s + lam) / _LN2,
        joint_wins=superiority_index(agg) > 1.0,
    )


def asymptotic_allocation(c: ChannelRealization) -> AsymptoticResult:
    """Closed-form limits as P_r grows without bound.

    The optimal durations become proportional to P^(k) (|h_d|^2 + ||h_r||^2)
    and the TDMA sum rate tends to log2(1 + sum_k P^(k)(|h_d|^2 + ||h_r||^2));
    the joint scheme tends to its power-unconstrained upper bound."""
    return block_asymptotic(compute_aggregates(c))
