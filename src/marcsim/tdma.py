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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log, log1p, sqrt, ulp

import numpy as np

from .channel import ChannelRealization, compute_aggregates
from .errors import NumericalError, ValidationError
from .joint import RelayMatrix
from .numerics import dominant_eigenpair

__all__ = [
    "TdmaAllocation",
    "AsymptoticResult",
    "single_user_relay_matrix",
    "single_user_rate",
    "user_rate",
    "user_rate_derivative",
    "optimize_slots",
    "kkt_slackness",
    "asymptotic_allocation",
    "joint_beats_tdma_asymptotic",
]

_LN2 = log(2.0)
_MAX_ITER = 200  # cap on either water-filling loop
_TAU_RTOL = 1e-10  # relative Newton step (or bracket) ending a slot search
_SUM_ATOL = 1e-14  # |sum_k tau_k - 1| ending the search for the level nu
_TIE_RTOL = 1e-12  # relative guard breaking asymptotic ties toward TDMA


@dataclass(frozen=True)
class TdmaAllocation:
    """Optimized slot durations with the rates they achieve."""

    tau: np.ndarray
    per_user_rate: np.ndarray
    sum_rate: float
    kkt_spread: float  # max - min marginal rate over users with tau > 0

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        rates = np.asarray(self.per_user_rate, dtype=float)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "per_user_rate", rates)
        if np.any(tau < 0):
            raise NumericalError("negative slot duration")
        if abs(float(tau.sum()) - 1.0) > 1e-9:
            raise NumericalError(f"slot durations sum to {tau.sum()!r}, not 1")
        if abs(float(rates.sum()) - self.sum_rate) > 1e-9:
            raise NumericalError("sum_rate does not match the per-user rates")


@dataclass(frozen=True)
class AsymptoticResult:
    """Unbounded-relay-power limits of both schemes."""

    tau_inf: np.ndarray
    rate_inf: float
    joint_rate_inf: float
    joint_wins: bool


def _slot_consts(c: ChannelRealization, users) -> list[tuple[float, float, float]]:
    """(d, nr, hp) for each of the given users of a realization:
    d = |h_d|^2 P, nr = ||h_r||^2 P, and hp = ||h||^2 P_r, common to all."""
    hp = float(np.linalg.norm(c.h) ** 2 * c.P_r)
    return [
        (float(abs(c.h_d[k]) ** 2 * c.P[k]), float(np.linalg.norm(c.h_r[k]) ** 2 * c.P[k]), hp)
        for k in users
    ]


def _user_consts(c: ChannelRealization, k: int) -> tuple[float, float, float]:
    """The slot constants (d, nr, hp) of user k alone; ValidationError unless
    0 <= k < K."""
    if not 0 <= k < c.K:
        raise ValidationError(f"user index {k} out of range for K={c.K}")
    return _slot_consts(c, (k,))[0]


def _slot_rate(d: float, nr: float, hp: float, tau: float) -> float:
    if tau <= 0.0:
        return 0.0
    x = d / tau
    if nr > 0.0 and hp > 0.0:
        x += hp * nr / ((hp + 1.0) * tau + nr)
    return tau * log1p(x) / _LN2


def _log_excess(u: float) -> float:
    """ln(1+u) - u/(1+u) >= 0 for u >= 0; below u = 1/4, where the two terms
    cancel, the series sum_{n>=2} t^n/n in t = u/(1+u)."""
    if u >= 0.25:
        return log1p(u) - u / (1.0 + u)
    t = u / (1.0 + u)
    total, power, n = 0.0, t * t, 2
    while total + power / n != total:
        total, power, n = total + power / n, power * t, n + 1
    return total


def _slot_derivs(d: float, nr: float, hp: float, tau: float) -> tuple[float, float]:
    """(R', R'') of R(tau) = tau*log2(1 + u), u = d/tau + a/(b*tau + nr) with
    a = hp*nr, b = hp + 1: R' = ([ln(1+u) - u/(1+u)] + (u + tau*u')/(1+u))/ln 2,
    two terms >= 0 (u + tau*u' = a*nr/(b*tau + nr)^2) that keep R' accurate
    when every rate is tiny, and
    R'' = ((2u' + tau*u'')/(1+u) - tau*u'^2/(1+u)^2)/ln 2. At tau = 0, R' is
    its continuous limit: +inf with a direct link, log2(1 + hp) without."""
    if d > 0.0 and tau <= 0.0:
        return inf, -inf
    a = hp * nr
    u = u1 = r = v = 0.0  # r = u + tau*u', v = 2u' + tau*u''
    if d > 0.0:
        u, u1 = d / tau, -d / (tau * tau)
    if a > 0.0:
        b = hp + 1.0
        den = b * tau + nr
        u += a / den
        u1 -= a * b / (den * den)
        r = a * nr / (den * den)
        v = -2.0 * r * b / den
    w = 1.0 + u
    return (_log_excess(u) + r / w) / _LN2, (v / w - tau * u1 * u1 / (w * w)) / _LN2


def _slot_deriv(d: float, nr: float, hp: float, tau: float) -> float:
    """Marginal rate dR/dtau of a slot of duration tau (see _slot_derivs)."""
    return _slot_derivs(d, nr, hp, tau)[0]


def single_user_relay_matrix(c: ChannelRealization, k: int) -> RelayMatrix:
    """Optimal relay matrix when user k is alone on the channel:
    sqrt(P_r / (1 + ||h_r||^2 P)) * h h_r^H / (||h|| ||h_r||), with its
    transmit power charged to user k alone.

    A zero channel on either hop yields F = 0 (the rate falls back to the
    direct link)."""
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
    return _slot_rate(*_user_consts(c, k), 1.0)


def user_rate(c: ChannelRealization, k: int, tau):
    """Rate of user k in a slot of duration tau (power boosted to P/tau),
    continuously extended to 0 at tau = 0. Accepts a scalar or an array of
    durations."""
    d, nr, hp = _user_consts(c, k)
    tau_arr = np.asarray(tau, dtype=float)
    if not np.all((tau_arr >= 0) & (tau_arr <= 1)):
        raise ValidationError("slot durations must lie in [0, 1]")
    if tau_arr.ndim == 0:
        return _slot_rate(d, nr, hp, float(tau_arr))
    out = np.zeros_like(tau_arr)
    pos = tau_arr > 0
    t = tau_arr[pos]
    x = d / t
    if nr > 0.0 and hp > 0.0:
        x = x + hp * nr / ((hp + 1.0) * t + nr)
    out[pos] = t * np.log1p(x) / _LN2
    return out


def user_rate_derivative(c: ChannelRealization, k: int, tau: float) -> float:
    """Marginal rate dR^(k)/dtau at tau > 0 (analytic form; strictly
    decreasing in tau)."""
    consts = _user_consts(c, k)
    if not tau > 0:
        raise ValidationError(f"tau must be positive, got {tau}")
    return _slot_deriv(*consts, tau)


def _slot_at_level(consts, g0: float, g1: float, nu: float, t: float):
    """(tau, dtau/dnu) of one user at the level nu: the root of R'(tau) = nu
    in (0, 1) by safeguarded Newton from t, or the end of [0, 1] where R'
    (g0 at 0, g1 at 1) does not reach nu."""
    if g0 <= nu:
        return 0.0, 0.0
    if g1 >= nu:
        return 1.0, 0.0
    lo, hi, t = 0.0, 1.0, t if 0.0 < t < 1.0 else 0.5
    for _ in range(_MAX_ITER):
        g, h = _slot_derivs(*consts, t)
        if not h < 0.0:  # R'' < 0 unless it underflows
            raise NumericalError(f"marginal rate flat at tau = {t}")
        step = (g - nu) / h
        if abs(step) <= _TAU_RTOL * t:
            return t - step, 1.0 / h
        lo, hi = (t, hi) if g > nu else (lo, t)
        if hi - lo <= _TAU_RTOL * hi:  # float R' resolves the root no better
            return t, 1.0 / h
        t = t - step if lo < t - step < hi else 0.5 * (lo + hi)
    raise NumericalError(f"slot at level {nu} not found in {_MAX_ITER} steps")


def optimize_slots(c: ChannelRealization, epsilon: float = 1e-8) -> TdmaAllocation:
    """Find slot durations maximizing the TDMA sum rate.

    Water-filling on the common marginal rate nu: each tau_k(nu) solves
    R_k'(tau_k) = nu by safeguarded Newton (0 when R_k'(0) <= nu), and nu
    solves ln sum_k tau_k(nu) = 0 by safeguarded Newton, with
    dtau_k/dnu = 1/R_k''(tau_k), inside [max_k R_k'(1), max_k R_k'(1/n)] over
    the n users with nonzero rate. Users whose rate is identically zero get
    tau = 0. NumericalError is raised if either search exceeds its iteration
    cap or the marginal rates of the users with a slot differ by more than
    epsilon.
    """
    if not epsilon > 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    K = c.K
    consts = _slot_consts(c, range(K))
    active = [k for k in range(K) if _slot_deriv(*consts[k], 0.0) > 0.0]
    tau = np.zeros(K)
    if not active:
        # Nothing carries rate; keep the simplex invariant with a uniform split.
        tau[:] = 1.0 / K
        return TdmaAllocation(
            tau=tau, per_user_rate=np.zeros(K), sum_rate=0.0, kkt_spread=0.0
        )

    n = len(active)
    users = [consts[k] for k in active]
    ends = [(_slot_deriv(*u, 0.0), _slot_deriv(*u, 1.0)) for u in users]
    at_uniform = [_slot_deriv(*u, 1.0 / n) for u in users]
    # At lo one user has the whole frame, so no level inside clips a slot at 1.
    lo, hi = max(g1 for _, g1 in ends), max(at_uniform)
    nu = prev = max(lo, sum(at_uniform) / n)
    t, dtdnu = [1.0 / n] * n, [0.0] * n
    for _ in range(_MAX_ITER):
        for i, u in enumerate(users):
            # Warm start on the tangent of tau_k(nu) at the previous level.
            guess = t[i] + dtdnu[i] * (nu - prev)
            t[i], dtdnu[i] = _slot_at_level(u, *ends[i], nu, guess)
        prev, total, slope = nu, sum(t), sum(dtdnu)
        if abs(total - 1.0) <= _SUM_ATOL:
            break
        lo, hi = (nu, hi) if total > 1.0 else (lo, nu)
        # Newton on ln(total), close to linear in nu when direct links dominate.
        nu = nu - total * log(total) / slope if slope else 0.5 * (lo + hi)
        if not lo < nu < hi:
            nu = 0.5 * (lo + hi)
        if abs(nu - prev) <= 2.0 * ulp(prev):  # float nu can get no closer
            break
    else:
        raise NumericalError(f"water level not found in {_MAX_ITER} steps")

    tau[active] = [ti / total for ti in t]
    rates = np.array([_slot_rate(*consts[k], tau[k]) for k in range(K)])
    live = [_slot_deriv(*consts[k], tau[k]) for k in active if tau[k] > 0.0]
    spread = max(live) - min(live)
    if not spread <= epsilon:
        raise NumericalError(f"KKT spread {spread:.3e} > {epsilon}", residual=spread)
    return TdmaAllocation(
        tau=tau, per_user_rate=rates, sum_rate=float(rates.sum()), kkt_spread=spread
    )


def kkt_slackness(c: ChannelRealization, tau) -> float:
    """Complementary-slackness violation of slot durations tau: the largest
    excess of R_k'(0) over nu, the largest marginal rate among users with a
    slot, over users with tau_k = 0 (0.0 when none exceeds nu). tau must hold
    K durations in [0, 1], at least one of them positive."""
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (c.K,) or not np.all((tau >= 0) & (tau <= 1)) or not np.any(tau > 0):
        raise ValidationError(f"need {c.K} slot durations in [0, 1], not all zero, got {tau}")
    g = [_slot_deriv(*u, t) for u, t in zip(_slot_consts(c, range(c.K)), tau)]
    nu = max(g[k] for k in range(c.K) if tau[k] > 0.0)
    return max([0.0] + [g[k] - nu for k in range(c.K) if tau[k] == 0.0])


def joint_beats_tdma_asymptotic(c: ChannelRealization) -> bool:
    """True iff joint relaying achieves a higher sum rate than optimally
    slotted TDMA as the relay power grows without bound:
    lam_max(R + W) > sum_k ||h_r^(k)||^2 P^(k)."""
    return asymptotic_allocation(c).joint_wins


def asymptotic_allocation(c: ChannelRealization) -> AsymptoticResult:
    """Closed-form limits as P_r grows without bound.

    The optimal durations become proportional to P^(k) (|h_d|^2 + ||h_r||^2)
    and the TDMA sum rate tends to log2(1 + sum_k P^(k)(|h_d|^2 + ||h_r||^2));
    the joint scheme tends to its power-unconstrained upper bound."""
    relay_norms = np.linalg.norm(c.h_r, axis=1) ** 2
    relay_sum = float(np.sum(relay_norms * c.P))
    weights = c.P * (np.abs(c.h_d) ** 2 + relay_norms)
    total = float(weights.sum())
    if total > 0.0:
        tau_inf = weights / total
        rate_inf = log1p(total) / _LN2
    else:
        tau_inf = np.full(c.K, 1.0 / c.K)
        rate_inf = 0.0
    agg = compute_aggregates(c)
    lam, _ = dominant_eigenpair(agg.R + agg.W)
    joint_rate_inf = float(log1p(agg.s + lam) / _LN2)
    return AsymptoticResult(
        tau_inf=tau_inf,
        rate_inf=rate_inf,
        joint_rate_inf=joint_rate_inf,
        # lam_max(R + W) > sum_k ||h_r^(k)||^2 P^(k), strictly and with a
        # relative guard so exact ties (e.g. K = 1, where lam equals the
        # sum) resolve to TDMA under float noise.
        joint_wins=lam > relay_sum + _TIE_RTOL * max(1.0, relay_sum),
    )
