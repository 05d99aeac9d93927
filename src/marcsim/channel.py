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
sum over user pairs but formed from its Gram factor, in O(K M_r^2). A
:class:`ChannelBlock` stacks realizations of one shape on a leading trial
axis; the aggregates and the block kernels of ``joint`` and ``tdma`` take it
whole, and the same code serves a single realization.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence, default_rng

from .errors import ValidationError

__all__ = [
    "ScenarioConfig", "ChannelRealization", "ChannelBlock", "ChannelAggregates", "trial_rng",
    "sample_channel", "sample_block", "relay_tx_power", "compute_aggregates", "effective_channel",
    "realization_to_json", "realization_from_json",
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
        for name, dtype, ndmin in (("h_r", complex, 2), ("h_d", complex, 1), ("h", complex, 1),
                                   ("P", float, 1)):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=dtype, ndmin=ndmin))
        h_r, h_d, h, P = self.h_r, self.h_d, self.h, self.P
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
class ChannelBlock:
    """Realizations of one (K, M_r) shape stacked on a leading trial axis:
    h_r (N, K, M_r), h_d (N, K), h (N, M_r), P (N, K) and P_r (N,)."""

    h_r: np.ndarray
    h_d: np.ndarray
    h: np.ndarray
    P: np.ndarray
    P_r: np.ndarray

    @classmethod
    def stack(cls, realizations) -> "ChannelBlock":
        cs = tuple(realizations)
        return cls(*(np.array([getattr(c, f.name) for c in cs]) for f in fields(cls)))


@dataclass(frozen=True)
class ChannelAggregates:
    """Quantities the reformulated sum-rate is built from.

    s is the direct-link SNR sum, R the relay-side signal covariance, T the
    rank-one direct/relay cross term, and W the pairwise cross-difference
    matrix satisfying s*R - T = W, formed as a Gram product Y Y^H (PSD).
    d, nr and hp are the SNRs of :func:`user_snrs`, so s = sum d and
    tr R = sum nr. Aggregates of a ChannelBlock carry its leading trial axis.
    """

    s: float
    R: np.ndarray
    T: np.ndarray
    W: np.ndarray
    d: np.ndarray
    nr: np.ndarray
    hp: float


def trial_rng(seed: int, trial_index: int, retry: int = 0) -> Generator:
    """Independent, reproducible substream for one Monte Carlo trial.

    Streams are keyed on (seed, trial_index, retry), so trials can run in
    any order or in parallel and still produce identical draws. retry > 0
    gives a flagged replacement stream after a numerical failure.
    """
    ss = SeedSequence(entropy=int(seed), spawn_key=(int(trial_index), int(retry)))
    return default_rng(ss)


def _hash_steps(init: int, mult: int, n: int) -> list:
    """The (xor, multiplier) uint32 constants of n successive steps of a
    SeedSequence hash walk that starts at init; they do not depend on data."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return [(np.uint32(a), np.uint32(b)) for a, b in zip(h, h[1:])]


# numpy's SeedSequence (pool of 4 words) on the 6 entropy words of a trial
# key takes 24 mixing hash steps and 8 output steps; PCG64 then seeds with
# two steps of its 128-bit LCG.
_MIX_STEPS = _hash_steps(0x43B0D7E5, 0x931E8875, 24)
_OUT_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _substream_states(seeds, trials, retry: int) -> Iterator[dict]:
    """The PCG64 state of ``trial_rng(seed, t, retry)`` for each (seed, t)
    pair, hashed for all pairs at once and yielded one dict at a time.

    SeedSequence hashes the entropy words [seed (two words), 0, 0, t, retry]
    here as uint32 array arithmetic, and PCG64's two seeding steps run on
    Python ints. Every t and retry must be below 2**32 and every seed below
    2**64, so that each key has exactly these six words."""
    seeds, n = np.array(seeds, dtype=np.uint64), len(trials)
    words = [seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32),
             np.zeros(n, np.uint32), np.zeros(n, np.uint32),
             np.array(trials, dtype=np.uint32), np.full(n, retry, np.uint32)]
    steps = iter(_MIX_STEPS)

    def hashmix(v, step):
        v = (v ^ step[0]) * step[1]
        return v ^ (v >> _SHIFT)

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> _SHIFT)

    pool = [hashmix(w, next(steps)) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src], next(steps)))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w, next(steps)))
    out = [hashmix(pool[i % 4], step).astype(np.uint64) for i, step in enumerate(_OUT_STEPS)]
    # little-endian uint32 pairs -> uint64: state high, state low, seq high, seq low
    hi_lo = [(out[j] | out[j + 1] << np.uint64(32)).tolist() for j in range(0, 8, 2)]
    for s_hi, s_lo, q_hi, q_lo in zip(*hi_lo):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def _coefficients(z: np.ndarray, alpha, K: int, M: int):
    """(h_r, h, h_d) from the normals z (..., 2 (K M + M + K)) of one draw per
    row: real and then imaginary parts of CN(0, 1) h_r, h and h_d in turn, h_d
    scaled by alpha. ValidationError when alpha * CN overflows, the one
    realization check a draw can fail."""

    def cn(lo: int, n: int) -> np.ndarray:
        return (z[..., lo : lo + n] + 1j * z[..., lo + n : lo + 2 * n]) / np.sqrt(2.0)

    with np.errstate(over="ignore"):
        h_d = alpha * cn(2 * (K * M + M), K)
    if not np.all(np.isfinite(h_d)):
        raise ValidationError("h_d has non-finite entries")
    return cn(0, K * M).reshape(*z.shape[:-1], K, M), cn(2 * K * M, M), h_d


def _draw(rng: Generator, z: np.ndarray, u: np.ndarray) -> None:
    """Fill one draw's normals z (see _coefficients) and then the uniforms u
    on [0, 1) that scale to its powers. u * P_max equals
    ``rng.uniform(0.0, P_max)`` bit for bit on the same stream state."""
    rng.standard_normal(out=z)
    rng.random(out=u)


def sample_channel(cfg: ScenarioConfig, rng: Generator) -> ChannelRealization:
    """Draw one realization: the coefficients and then P, uniform on
    [0, P_max], so a given stream state always yields the same realization."""
    K, M = cfg.K, cfg.M_r
    z, P = np.empty(2 * (K * M + M + K)), np.empty(K)
    _draw(rng, z, P)
    h_r, h, h_d = _coefficients(z, cfg.alpha, K, M)
    return ChannelRealization(h_r=h_r, h_d=h_d, h=h, P=P * cfg.P_max, P_r=cfg.P_r)


def sample_block(cfgs, trials, retry: int = 0) -> ChannelBlock:
    """One realization per (scenario, trial index) pair, all of one (K, M_r)
    shape: the draw :func:`sample_channel` makes from
    ``trial_rng(cfg.seed, t, retry)``, as a block. The substreams are seeded
    in bulk (_substream_states) and drawn in turn by one generator."""
    if (not cfgs or len(cfgs) != len(trials) or len({(c.K, c.M_r) for c in cfgs}) > 1
            or min(trials) < 0 or max(trials) >= 2**32 or not 0 <= retry < 2**32):
        raise ValidationError("a block needs scenarios of one (K, M_r), at least one, each "
                              "with a trial index in [0, 2**32), and a retry in [0, 2**32)")
    K, M = cfgs[0].K, cfgs[0].M_r
    z, P = np.empty((len(cfgs), 2 * (K * M + M + K))), np.empty((len(cfgs), K))
    bitgen = PCG64()  # every draw sets its own state first
    rng = Generator(bitgen)
    for i, state in enumerate(_substream_states([int(c.seed) for c in cfgs], trials, retry)):
        bitgen.state = state
        _draw(rng, z[i], P[i])
    P *= np.array([[cfg.P_max] for cfg in cfgs])
    h_r, h, h_d = _coefficients(z, np.array([[cfg.alpha] for cfg in cfgs]), K, M)
    return ChannelBlock(h_r=h_r, h_d=h_d, h=h, P=P, P_r=np.array([cfg.P_r for cfg in cfgs]))


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


def user_snrs(c):
    """Each user's direct-link SNR d = |h_d^(k)|^2 P^(k) and relay-hop SNR
    nr = ||h_r^(k)||^2 P^(k) (last axis), and the relay-to-receiver SNR
    hp = ||h||^2 P_r, of a realization or a ChannelBlock."""
    d, r, h = (np.square(a, out=a) for a in map(np.abs, (c.h_d, c.h_r, c.h)))  # x ** 2
    return np.multiply(d, c.P, out=d), r.sum(axis=-1) * c.P, h.sum(axis=-1) * c.P_r


def compute_aggregates(c) -> ChannelAggregates:
    """Build (s, R, T, W, d, nr, hp) from a realization or, with a leading
    trial axis, from a ChannelBlock.

    W is defined as the pair sum over j < k of P^(j) P^(k) w_jk w_jk^H with
    w_jk = h_d^(k) h_r^(j) - h_d^(j) h_r^(k), so s*R - T = W exactly. It is
    formed in O(K M_r^2) as Y Y^H with Y = sqrt(s) G - u d^T / sqrt(s), where G
    has columns g_k = sqrt(P^(k)) h_r^(k), d_k = sqrt(P^(k)) h_d^(k) and
    u = G conj(d), so T = u u^H. As for the pair sum, W = 0 exactly when s = 0
    or fewer than two users have power. ValidationError is raised, before
    anything else is formed, when s * tr(R), which bounds T and W, overflows
    a float in any trial."""
    h_r, h_d, P = c.h_r, c.h_d, c.P
    with np.errstate(over="ignore", invalid="ignore"):
        d, nr, hp = user_snrs(c)
        s, tr_R = d.sum(axis=-1), nr.sum(axis=-1)
        fits = np.isfinite(s * tr_R)
    if not fits.all():
        i = np.argmin(fits)
        raise ValidationError("channel SNRs overflow a float: "
                              f"s = {np.ravel(s)[i]:.3e}, tr R = {np.ravel(tr_R)[i]:.3e}")
    G = np.swapaxes(h_r, -1, -2)
    A, B = G * P[..., None, :], h_r.conj()  # work arrays, reused below through out=
    R = A @ B
    # C order, so that a block's matrix products take one path at any stack
    # size and a trial's values do not depend on its block.
    R = np.ascontiguousarray(0.5 * (R + np.swapaxes(R, -1, -2).conj()))
    u = ((P * h_d.conj())[..., None, :] @ h_r)[..., 0, :]
    T = u[..., :, None] * u.conj()[..., None, :]
    gram = (s > 0.0) & (np.count_nonzero(P, axis=-1) >= 2)
    root_P, root_s = np.sqrt(P)[..., None, :], np.sqrt(np.where(gram, s, 1.0))[..., None, None]
    Y = np.multiply(G, root_P, out=A)
    ud = np.multiply(u[..., :, None], root_P * h_d[..., None, :], out=B.reshape(G.shape))
    Y *= root_s
    Y -= np.divide(ud, root_s, out=ud)
    W = np.where(gram[..., None, None], Y @ np.conjugate(np.swapaxes(Y, -1, -2), out=B), 0.0)
    return ChannelAggregates(s=s, R=R, T=T, W=W, d=d, nr=nr, hp=hp)


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
