"""Joint relaying: sum rate of a given relay matrix plus bounds on the best one.

All users transmit simultaneously and a single amplification matrix F serves
them. The exact sum rate of any F is available in two algebraically
equivalent forms (a 2x2 log-det and a closed form in the channel
aggregates). :func:`lower_bound` evaluates, from one aggregate build and the
dominant eigenpairs of R and R + W,

* ``r_up1``   -- an upper bound that drops the positive-semidefinite cross
  term T,
* ``r_up2``   -- an upper bound that lets the relay power grow without bound,
* ``r_lower`` -- the achievable rate of rank-one beamforming along the
  dominant direction of R + W, scaled to spend the full relay budget.

Rates are bits per channel use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import log

import numpy as np

from .channel import (
    ChannelAggregates, ChannelRealization, _relay_matrix, compute_aggregates, effective_channel,
    relay_tx_power,
)
from .errors import NumericalError
from .numerics import dominant_eigenpair, quadratic_form

__all__ = [
    "RelayMatrix", "JointRateBounds", "sum_rate_logdet", "sum_rate_closed", "relay_matrix_ub1",
    "lower_bound", "block_bounds",
]

_ORDER_SLACK = 1e-9
_LN2 = log(2.0)


@dataclass(frozen=True)
class RelayMatrix:
    """An amplification matrix together with its relay transmit power."""

    F: np.ndarray
    tx_power: float

    @classmethod
    def beamformer(cls, c, v: np.ndarray, gain) -> "RelayMatrix":
        """Rank-one relay matrix gain * h v^H / ||h||, with its transmit power
        charged to the users of c, a realization, or each trial of a
        ChannelBlock with v (N, M_r) and gain (N,). F = 0 when h = 0: there is
        no relay-to-receiver link to beamform onto."""
        hn = np.linalg.norm(c.h, axis=-1)[..., None]
        u = np.divide(c.h, hn, out=np.zeros_like(c.h), where=hn > 0.0)
        F = np.asarray(gain)[..., None, None] * (u[..., :, None] * v.conj()[..., None, :])
        return cls(F=F, tx_power=relay_tx_power(F, c))


@dataclass(frozen=True)
class JointRateBounds:
    """Upper bounds, the achievable rank-one rate, and its relay matrix; as
    (N,) arrays, with f_lower None, for a block."""

    r_up1: float
    r_up2: float
    r_lower: float
    f_lower: RelayMatrix | None
    gamma: float

    @property
    def r_up_min(self) -> float:
        return np.minimum(self.r_up1, self.r_up2)


def _as_matrix(F) -> np.ndarray:
    return F.F if isinstance(F, RelayMatrix) else np.asarray(F, dtype=complex)


def sum_rate_logdet(F, c):
    """Ground-truth sum rate log2 det(I + sum_k P^(k) h_eff h_eff^H),
    evaluated as a closed-form 2x2 determinant, of a realization, or of each
    trial of a ChannelBlock with a stack F."""
    heff = effective_channel(_as_matrix(F), c)
    a, b, P = heff[..., 0], heff[..., 1], c.P
    saa = np.sum(P * np.abs(a) ** 2, axis=-1)
    sbb = np.sum(P * np.abs(b) ** 2, axis=-1)
    # det(I + sum) = 1 + saa + sbb + (saa*sbb - |m12|^2), the Gram term taken
    # by the Lagrange identity as sum_{j<k} P_j P_k |a_j b_k - a_k b_j|^2:
    # saa*sbb - |m12|^2 cancels when one user dominates, and at K = 1 exactly
    ab = a[..., :, None] * b[..., None, :]
    minors = np.abs(ab - np.swapaxes(ab, -1, -2)) ** 2
    x = saa + sbb + (P[..., None, :] @ minors @ P[..., :, None])[..., 0, 0] / 2.0
    return np.log1p(x) / _LN2


def sum_rate_closed(F, c):
    """Same sum rate via the aggregate form
    log2(1 + s + h^H F (R + W) F^H h / r), r = 1 + h^H F F^H h, of a
    realization, or of each trial of a ChannelBlock with a stack F."""
    F = _relay_matrix(_as_matrix(F), c)
    agg = compute_aggregates(c)
    fh = (np.swapaxes(F, -1, -2).conj() @ c.h[..., None])[..., 0]
    r = 1.0 + (fh.conj() * fh).real.sum(axis=-1)
    x = agg.s + quadratic_form(fh, agg.R + agg.W) / r
    return np.log1p(np.maximum(x, 0.0)) / _LN2


def relay_matrix_ub1(c: ChannelRealization) -> RelayMatrix:
    """Rank-one matrix maximizing the cross-term-free objective: beamform the
    dominant direction of R onto h, scaled to meet the power budget with
    equality."""
    lam_r, v_r = dominant_eigenpair(compute_aggregates(c).R)
    return RelayMatrix.beamformer(c, v_r, np.sqrt(c.P_r / (1.0 + lam_r)))


def block_bounds(P_r, agg: ChannelAggregates, run=...):
    """The bounds of :func:`lower_bound` for each trial of a block, or for one
    realization, from its relay power P_r and aggregates: the JointRateBounds,
    the directions v of R + W that f_lower beamforms, and the failures as
    {row: message}, empty unless a rate is below -1e-9 or r_lower exceeds an
    upper bound by more than 1e-9 (row 0 for a realization). lambda_max(R) and
    the top eigenpair of R + W, free of P_r, come from one eigen-solve of the
    stack [R, R + W] per realization, agg's matrices holding each once and run
    giving a trial's row of them; the rates per trial, from its P_r, s and hp."""
    S = np.empty((2, *agg.R.shape), complex)  # [R, R + W], with no R + W temporary
    S[0] = agg.R
    np.add(agg.R, agg.W, out=S[1])
    lam, V = dominant_eigenpair(S)
    lam_r, lam_rw, v = lam[0], lam[1], V[1]
    vRv = np.sum(v.conj() * (agg.R @ v[..., None])[..., 0], axis=-1).real
    lam_r, lam_rw, v, vRv = lam_r[run], lam_rw[run], v[run], vRv[run]
    gamma = np.sqrt(P_r / (1.0 + vRv))
    g = agg.hp / (1.0 + vRv)  # ||h||^2 gamma^2
    b = JointRateBounds(
        r_up1=(np.log1p(agg.s) + np.log1p(lam_r * agg.hp / (1.0 + agg.hp + lam_r))) / _LN2,
        r_up2=np.log1p(agg.s + lam_rw) / _LN2,
        r_lower=np.log1p(agg.s + lam_rw * g / (1.0 + g)) / _LN2,
        f_lower=None,
        gamma=gamma,
    )
    ordered = (np.minimum(b.r_up_min, b.r_lower) >= -_ORDER_SLACK) & (
        b.r_lower <= b.r_up_min + _ORDER_SLACK)
    return b, v, dict.fromkeys(np.flatnonzero(~ordered).tolist(),
                               "joint bounds out of order or negative")


def lower_bound(c: ChannelRealization) -> JointRateBounds:
    """Both upper bounds and the achievable rank-one rate of one realization:

    * r_up1 = log2((1+s) (1 + lam_max(R) ||h||^2 P_r / (1 + ||h||^2 P_r + lam_max(R)))),
      tighter than r_up2 when the relay power is small;
    * r_up2 = log2(1 + s + lam_max(R + W)), tight as P_r grows;
    * r_lower = log2(1 + s + ||h||^2 lam_max(R+W) gamma^2 / (1 + ||h||^2 gamma^2)),
      the rate of f_lower, which beamforms the dominant direction v of R + W
      onto h with gain gamma spending the relay budget exactly
      (gamma^2 = P_r / v^H (I + R) v).

    When h = 0, f_lower is 0 and r_lower = r_up1 = log2(1 + s). NumericalError
    is raised when the rates are out of order or negative.
    """
    b, v, why = block_bounds(c.P_r, compute_aggregates(c))
    if why:
        raise NumericalError(why[0])
    return replace(b, f_lower=RelayMatrix.beamformer(c, v, b.gamma))
