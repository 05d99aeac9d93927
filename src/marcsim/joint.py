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
    ChannelAggregates, ChannelRealization, compute_aggregates, effective_channel, relay_tx_power,
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
    def beamformer(cls, c: ChannelRealization, v: np.ndarray, gain: float) -> "RelayMatrix":
        """Rank-one relay matrix gain * h v^H / ||h||, with its transmit power
        charged to the users of c. F = 0 when h = 0: there is no
        relay-to-receiver link to beamform onto."""
        hn = float(np.linalg.norm(c.h))
        if hn == 0.0:
            F = np.zeros((c.M_r, c.M_r), dtype=complex)
        else:
            F = gain * np.outer(c.h / hn, v.conj())
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


def sum_rate_logdet(F, c: ChannelRealization) -> float:
    """Ground-truth sum rate log2 det(I + sum_k P^(k) h_eff h_eff^H),
    evaluated as a closed-form 2x2 determinant."""
    F = _as_matrix(F)
    heff = np.array([effective_channel(F, c, k) for k in range(c.K)])
    a, b = heff[:, 0], heff[:, 1]
    saa = float(np.sum(c.P * np.abs(a) ** 2))
    sbb = float(np.sum(c.P * np.abs(b) ** 2))
    m12 = complex(np.sum(c.P * a * b.conj()))
    # det(I + sum) = (1+saa)(1+sbb) - |m12|^2, evaluated as 1 + x for accuracy
    x = saa + sbb + saa * sbb - abs(m12) ** 2
    return float(np.log1p(max(x, 0.0)) / _LN2)


def sum_rate_closed(F, c: ChannelRealization) -> float:
    """Same sum rate via the aggregate form
    log2(1 + s + h^H F (R + W) F^H h / r), r = 1 + h^H F F^H h."""
    F = _as_matrix(F)
    agg = compute_aggregates(c)
    fh = F.conj().T @ c.h
    r = 1.0 + float(np.real(fh.conj() @ fh))
    x = agg.s + quadratic_form(fh, agg.R + agg.W) / r
    return float(np.log1p(max(x, 0.0)) / _LN2)


def relay_matrix_ub1(c: ChannelRealization) -> RelayMatrix:
    """Rank-one matrix maximizing the cross-term-free objective: beamform the
    dominant direction of R onto h, scaled to meet the power budget with
    equality."""
    lam_r, v_r = dominant_eigenpair(compute_aggregates(c).R)
    return RelayMatrix.beamformer(c, v_r, np.sqrt(c.P_r / (1.0 + lam_r)))


def block_bounds(blk, agg: ChannelAggregates):
    """The bounds of :func:`lower_bound` for each trial of a ChannelBlock, or
    for one realization, from its aggregates: the JointRateBounds, the
    directions v of R + W that f_lower beamforms, and a failure message per
    trial, "" unless a rate is below -1e-9 or r_lower exceeds an upper bound
    by more than 1e-9."""
    lam_r, _ = dominant_eigenpair(agg.R)
    lam_rw, v = dominant_eigenpair(agg.R + agg.W)
    vRv = np.sum(v.conj() * (agg.R @ v[..., None])[..., 0], axis=-1).real
    gamma = np.sqrt(blk.P_r / (1.0 + vRv))
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
    return b, v, np.where(ordered, "", "joint bounds out of order or negative")


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
    b, v, why = block_bounds(c, compute_aggregates(c))
    if why:
        raise NumericalError(str(why))
    return replace(b, f_lower=RelayMatrix.beamformer(c, v, b.gamma))
