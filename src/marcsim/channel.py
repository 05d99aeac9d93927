"""Channel model: one realization of the multiple-access relay channel.

A realization holds the user-to-relay vectors h_r^(k), the scalar direct
links h_d^(k), the relay-to-receiver vector h (stored unconjugated; the
forward channel is h^H), per-user transmit powers P^(k) and the relay power
budget P_r. The noise at the relay and at the receiver has unit variance, so
every power is a signal-to-noise ratio; a channel JSON file that states a
noise variance N0 is folded to unit noise when it is parsed.

Fading model used by :func:`sample_channel`: every entry of h_r and h is
circularly-symmetric complex Gaussian with unit variance, the direct links
are CN(0, alpha^2), and the per-user powers are uniform on [0, P_max].

The cross-difference matrix W of :func:`compute_aggregates` is defined as a
sum over user pairs but formed from its Gram factor, in O(K M_r^2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "ScenarioConfig",
    "ChannelRealization",
    "ChannelAggregates",
    "trial_rng",
    "sample_channel",
    "relay_tx_power",
    "compute_aggregates",
    "effective_channel",
    "realization_to_json",
    "realization_from_json",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario parameters for sampling channel realizations."""

    K: int = 2  # number of users
    M_r: int = 2  # relay antennas
    P_max: float = 10.0  # per-user power drawn uniformly from [0, P_max]
    P_r: float = 10.0  # relay power budget
    alpha: float = 1.0  # direct-link strength multiplier
    seed: int = 0

    def __post_init__(self):
        if self.K < 1 or self.M_r < 1:
            raise ValidationError(f"K and M_r must be >= 1, got K={self.K}, M_r={self.M_r}")
        for name in ("P_max", "P_r", "alpha"):
            val = getattr(self, name)
            if not np.isfinite(val):
                raise ValidationError(f"{name} must be finite, got {val}")
        if self.P_max <= 0:
            raise ValidationError(f"P_max must be positive, got {self.P_max}")
        if self.P_r < 0 or self.alpha < 0:
            raise ValidationError("P_r and alpha must be nonnegative")
        if not 0 <= int(self.seed) < 2**64:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of all channel coefficients plus the power budgets."""

    h_r: np.ndarray  # (K, M_r) user-to-relay channels
    h_d: np.ndarray  # (K,) user-to-receiver direct links
    h: np.ndarray  # (M_r,) relay-to-receiver channel (forward channel is h^H)
    P: np.ndarray  # (K,) per-user transmit powers
    P_r: float

    def __post_init__(self):
        h_r = np.atleast_2d(np.asarray(self.h_r, dtype=complex))
        h_d = np.atleast_1d(np.asarray(self.h_d, dtype=complex))
        h = np.atleast_1d(np.asarray(self.h, dtype=complex))
        P = np.atleast_1d(np.asarray(self.P, dtype=float))
        object.__setattr__(self, "h_r", h_r)
        object.__setattr__(self, "h_d", h_d)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "P", P)
        K, M_r = h_r.shape
        if K < 1 or M_r < 1:
            raise ValidationError(f"K and M_r must be >= 1, got K={K}, M_r={M_r}")
        if h_d.shape != (K,) or P.shape != (K,) or h.shape != (M_r,):
            raise ValidationError(
                "inconsistent shapes: h_r %s, h_d %s, h %s, P %s"
                % (h_r.shape, h_d.shape, h.shape, P.shape)
            )
        for name, arr in (("h_r", h_r), ("h_d", h_d), ("h", h)):
            if not np.all(np.isfinite(arr.view(float))):
                raise ValidationError(f"{name} has non-finite entries")
        if not np.all(np.isfinite(P)) or np.any(P < 0):
            raise ValidationError("P must be finite and nonnegative")
        if not np.isfinite(self.P_r) or self.P_r < 0:
            raise ValidationError(f"P_r must be finite and nonnegative, got {self.P_r}")
        for arr in (h_r, h_d, h, P):
            arr.flags.writeable = False

    @property
    def K(self) -> int:
        return self.h_r.shape[0]

    @property
    def M_r(self) -> int:
        return self.h_r.shape[1]


@dataclass(frozen=True)
class ChannelAggregates:
    """Quantities the reformulated sum-rate is built from.

    s is the direct-link SNR sum, R the relay-side signal covariance, T the
    rank-one direct/relay cross term, and W the pairwise cross-difference
    matrix satisfying s*R - T = W, formed as a Gram product Y Y^H (PSD).
    """

    s: float
    R: np.ndarray
    T: np.ndarray
    W: np.ndarray


def trial_rng(seed: int, trial_index: int, retry: int = 0) -> np.random.Generator:
    """Independent, reproducible substream for one Monte Carlo trial.

    Streams are keyed on (seed, trial_index, retry), so trials can run in
    any order or in parallel and still produce identical draws. retry > 0
    gives a flagged replacement stream after a numerical failure.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial_index), int(retry)))
    return np.random.default_rng(ss)


def _cn(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly-symmetric complex Gaussian, unit variance per entry."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def sample_channel(cfg: ScenarioConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one realization. Draw order (h_r, h, h_d, P) is fixed so a given
    stream state always yields the same realization. The draws already have
    the constructor's dtypes and shapes; of its checks only alpha * CN, which
    can overflow, can fail, so the realization is built without the others."""
    h_r = _cn(rng, (cfg.K, cfg.M_r))
    h = _cn(rng, cfg.M_r)
    h_d = cfg.alpha * _cn(rng, cfg.K)
    P = rng.uniform(0.0, cfg.P_max, cfg.K)
    if not np.all(np.isfinite(h_d.view(float))):
        raise ValidationError("h_d has non-finite entries")
    c = object.__new__(ChannelRealization)
    c.__dict__.update(h_r=h_r, h_d=h_d, h=h, P=P, P_r=cfg.P_r)
    for arr in (h_r, h_d, h, P):
        arr.flags.writeable = False
    return c


def relay_tx_power(F: np.ndarray, c: ChannelRealization) -> float:
    """Average transmit power of the relay for amplification matrix F:
    trace(F (I + sum_k h_r^(k) P^(k) h_r^(k)^H) F^H)."""
    F = np.asarray(F, dtype=complex)
    if F.shape != (c.M_r, c.M_r):
        raise ValidationError(
            f"F must be {c.M_r}x{c.M_r}, got shape {F.shape}"
        )
    G = np.eye(c.M_r) + (c.h_r.T * c.P) @ c.h_r.conj()
    return float(np.trace(F @ G @ F.conj().T).real)


def compute_aggregates(c: ChannelRealization) -> ChannelAggregates:
    """Build (s, R, T, W) from a realization.

    W is defined as the pair sum over j < k of P^(j) P^(k) w_jk w_jk^H with
    w_jk = h_d^(k) h_r^(j) - h_d^(j) h_r^(k), so s*R - T = W exactly. It is
    formed in O(K M_r^2) as Y Y^H with Y = sqrt(s) G - u d^T / sqrt(s), where G
    has columns g_k = sqrt(P^(k)) h_r^(k), d_k = sqrt(P^(k)) h_d^(k) and
    u = G conj(d), so T = u u^H. As for the pair sum, W = 0 exactly when s = 0
    or fewer than two users have power. ValidationError is raised when
    s * tr(R), which bounds T and W, overflows a float."""
    h_r, h_d, P = c.h_r, c.h_d, c.P
    s = float(np.sum(np.abs(h_d) ** 2 * P))
    R = (h_r.T * P) @ h_r.conj()
    R = 0.5 * (R + R.conj().T)
    tr_R = float(np.trace(R).real)
    if not math.isfinite(s * tr_R):
        raise ValidationError(f"channel SNRs overflow a float: s = {s:.3e}, tr R = {tr_R:.3e}")
    u = (P * h_d.conj()) @ h_r
    T = np.outer(u, u.conj())
    if s == 0.0 or np.count_nonzero(P) < 2:
        W = np.zeros_like(R)
    else:
        root_P, root_s = np.sqrt(P), math.sqrt(s)
        Y = root_s * (h_r.T * root_P) - np.outer(u, root_P * h_d) / root_s
        W = Y @ Y.conj().T
    return ChannelAggregates(s=s, R=R, T=T, W=W)


def effective_channel(F: np.ndarray, c: ChannelRealization, k: int) -> np.ndarray:
    """Two-component stacked channel of user k (relayed path, direct path)
    after normalizing the relayed path's noise:
    [r^(-1/2) h^H F h_r^(k), h_d^(k)] with r = 1 + h^H F F^H h."""
    F = np.asarray(F, dtype=complex)
    if not 0 <= k < c.K:
        raise ValidationError(f"user index {k} out of range for K={c.K}")
    if F.shape != (c.M_r, c.M_r):
        raise ValidationError(f"F must be {c.M_r}x{c.M_r}, got shape {F.shape}")
    fh = F.conj().T @ c.h
    r = 1.0 + float(np.real(fh.conj() @ fh))
    relayed = (c.h.conj() @ F @ c.h_r[k]) / np.sqrt(r)
    return np.array([relayed, c.h_d[k]])


def realization_to_json(c: ChannelRealization) -> str:
    """Serialize a realization; complex numbers become [re, im] pairs."""

    def pair(z: complex) -> list[float]:
        return [float(np.real(z)), float(np.imag(z))]

    doc = {
        "h_r": [[pair(z) for z in row] for row in c.h_r],
        "h_d": [pair(z) for z in c.h_d],
        "h": [pair(z) for z in c.h],
        "P": [float(p) for p in c.P],
        "P_r": float(c.P_r),
    }
    return json.dumps(doc, indent=2)


def realization_from_json(text: str) -> ChannelRealization:
    """Parse a realization from the JSON layout written by
    :func:`realization_to_json`.

    An optional noise variance "N0" (finite, > 0) is folded into the powers,
    P -> P/N0 and P_r -> P_r/N0, giving the equivalent unit-noise
    realization."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc

    def unpair(obj) -> complex:
        if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
            raise ValidationError(f"expected [re, im] pair, got {obj!r}")
        return complex(float(obj[0]), float(obj[1]))

    try:
        h_r = np.array([[unpair(z) for z in row] for row in doc["h_r"]])
        h_d = np.array([unpair(z) for z in doc["h_d"]])
        h = np.array([unpair(z) for z in doc["h"]])
        P = np.array([float(p) for p in doc["P"]])
        P_r = float(doc["P_r"])
        N0 = float(doc.get("N0", 1.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed realization document: {exc}") from exc
    if h_r.ndim != 2:
        raise ValidationError("h_r must be a list of per-user channel vectors")
    if not (np.isfinite(N0) and N0 > 0):
        raise ValidationError(f"N0 must be finite and positive, got {N0}")
    return ChannelRealization(h_r=h_r, h_d=h_d, h=h, P=P / N0, P_r=P_r / N0)
