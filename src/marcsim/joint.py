"""Joint relaying: sum rate of a given relay matrix plus bounds on the best one.

All users transmit simultaneously and a single amplification matrix F serves
them. The exact sum rate of any F is available in two algebraically
equivalent forms (a 2x2 log-det and a closed form in the channel
aggregates). The optimal F is not known; this module provides

* ``upper_bound_1``  -- drop the positive-semidefinite cross term T,
* ``upper_bound_2``  -- let the relay power grow without bound,
* ``lower_bound``    -- rank-one beamforming along the dominant direction of
  R + W, scaled to spend the full relay budget (achievable).

Rates are bits per channel use.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from .channel import (
    ChannelAggregates,
    ChannelRealization,
    compute_aggregates,
    effective_channel,
    relay_tx_power,
)
from .errors import DegenerateChannelError, NumericalError
from .numerics import dominant_eigenpair, quadratic_form

__all__ = [
    "RelayMatrix",
    "JointRateBounds",
    "sum_rate_logdet",
    "sum_rate_closed",
    "relay_matrix_ub1",
    "upper_bound_1",
    "upper_bound_2",
    "relay_matrix_lower",
    "lower_bound",
]

_ORDER_SLACK = 1e-9
_LN2 = log(2.0)


@dataclass(frozen=True)
class RelayMatrix:
    """An amplification matrix together with its relay transmit power."""

    F: np.ndarray
    tx_power: float

    @classmethod
    def for_channel(cls, F: np.ndarray, c: ChannelRealization) -> "RelayMatrix":
        return cls(F=np.asarray(F, dtype=complex), tx_power=relay_tx_power(F, c))


@dataclass(frozen=True)
class JointRateBounds:
    """Upper bounds, the achievable rank-one rate, and its relay matrix."""

    r_up1: float
    r_up2: float
    r_lower: float
    f_lower: RelayMatrix
    gamma: float

    def __post_init__(self):
        if min(self.r_up1, self.r_up2, self.r_lower) < -_ORDER_SLACK:
            raise NumericalError("negative rate in joint bounds")
        if self.r_lower > min(self.r_up1, self.r_up2) + _ORDER_SLACK:
            raise NumericalError(
                "lower bound exceeds an upper bound: "
                f"lower={self.r_lower!r}, up1={self.r_up1!r}, up2={self.r_up2!r}"
            )

    @property
    def r_up_min(self) -> float:
        return min(self.r_up1, self.r_up2)


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


@dataclass(frozen=True)
class _JointPass:
    """What every joint bound and relay matrix reads, computed once: the
    realization, its aggregates, ||h|| and the dominant eigenpairs of R and
    R + W."""

    c: ChannelRealization
    agg: ChannelAggregates
    hn: float
    lam_r: float
    v_r: np.ndarray
    lam_rw: float
    v_rw: np.ndarray

    @classmethod
    def of(cls, c: ChannelRealization) -> "_JointPass":
        agg = compute_aggregates(c)
        lam_r, v_r = dominant_eigenpair(agg.R)
        lam_rw, v_rw = dominant_eigenpair(agg.R + agg.W)
        return cls(c, agg, float(np.linalg.norm(c.h)), lam_r, v_r, lam_rw, v_rw)

    def r_up1(self) -> float:
        hp, lam = self.hn**2 * self.c.P_r, self.lam_r
        return float((np.log1p(self.agg.s) + np.log1p(lam * hp / (1.0 + hp + lam))) / _LN2)

    def r_up2(self) -> float:
        return float(np.log1p(self.agg.s + self.lam_rw) / _LN2)

    def beamformer(self, v: np.ndarray, gain: float) -> RelayMatrix:
        """Rank-one relay matrix gain * h v^H / ||h||."""
        if self.hn == 0.0:
            raise DegenerateChannelError("relay-to-receiver channel h is zero")
        F = gain * np.outer(self.c.h / self.hn, v.conj())
        return RelayMatrix.for_channel(F, self.c)

    def lower(self) -> tuple[RelayMatrix, float]:
        """The rank-one beamformer along v_rw and its gain gamma."""
        gamma = float(np.sqrt(self.c.P_r / (1.0 + quadratic_form(self.v_rw, self.agg.R))))
        return self.beamformer(self.v_rw, gamma), gamma


def relay_matrix_ub1(c: ChannelRealization) -> RelayMatrix:
    """Rank-one matrix maximizing the cross-term-free objective: beamform the
    dominant direction of R onto h, scaled to meet the power budget with
    equality."""
    p = _JointPass.of(c)
    return p.beamformer(p.v_r, np.sqrt(p.c.P_r / (1.0 + p.lam_r)))


def upper_bound_1(c: ChannelRealization) -> float:
    """log2((1+s) (1 + lam_max(R) ||h||^2 P_r / (1 + ||h||^2 P_r + lam_max(R)))).

    Tighter than :func:`upper_bound_2` when the relay power is small."""
    return _JointPass.of(c).r_up1()


def upper_bound_2(c: ChannelRealization) -> float:
    """log2(1 + s + lam_max(R + W)): the relay-power-unconstrained bound,
    tight as P_r grows."""
    return _JointPass.of(c).r_up2()


def relay_matrix_lower(c: ChannelRealization) -> tuple[RelayMatrix, float]:
    """Achievable rank-one choice: beamform the dominant direction of R + W
    onto h with gain gamma spending the relay budget exactly
    (gamma^2 = P_r / v^H (I + R) v)."""
    return _JointPass.of(c).lower()


def lower_bound(c: ChannelRealization) -> JointRateBounds:
    """Achievable sum rate of the rank-one beamformer, bundled with both
    upper bounds:
    r_lower = log2(1 + s + ||h||^2 lam_max(R+W) gamma^2 / (1 + ||h||^2 gamma^2)).
    """
    p = _JointPass.of(c)
    f_lower, gamma = p.lower()
    g = p.hn**2 * gamma**2
    r_lower = float(np.log1p(p.agg.s + p.lam_rw * g / (1.0 + g)) / _LN2)
    return JointRateBounds(
        r_up1=p.r_up1(), r_up2=p.r_up2(), r_lower=r_lower, f_lower=f_lower, gamma=gamma
    )

