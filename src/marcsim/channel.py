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
:func:`sample_block` draws many trials of one scenario's (K, M_r) and seed
on the same substreams, at alpha = P_max = P_r = 1; its callers scale the
draws by their own alpha (through :func:`direct_links`) and powers, or
scale the draws' aggregates to them by :func:`scale_aggregates`.

The cross-difference matrix W of :func:`compute_aggregates` is defined as a
sum over user pairs but formed from its Gram factor, in O(K M_r^2). A
:class:`ChannelBlock` stacks realizations of one shape on a leading trial
axis; the aggregates, the per-F kernels (with a stack of F) and the block
kernels of ``joint`` and ``tdma`` take it whole, and the same code serves a
single realization.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from math import isfinite

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence, default_rng

from .errors import ValidationError

__all__ = [
    "ScenarioConfig", "ChannelRealization", "ChannelBlock", "ChannelAggregates", "trial_rng",
    "sample_channel", "sample_block", "relay_tx_power", "compute_aggregates", "scale_aggregates",
    "effective_channel", "realization_to_json", "realization_from_json",
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
            if not isfinite(val):
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


def trial_rng(seed: int, trial_index: int) -> Generator:
    """Independent, reproducible substream for one Monte Carlo trial.

    Streams are keyed on (seed, trial_index, 0), so trials can run in any
    order or in parallel and still produce identical draws.
    """
    ss = SeedSequence(entropy=int(seed), spawn_key=(int(trial_index), 0))
    return default_rng(ss)


def _hash_steps(init: int, mult: int, n: int) -> list:
    """The (xor, multiplier) uint32 constants of n successive steps of a
    SeedSequence hash walk that starts at init; they do not depend on data."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return list(zip(h, h[1:]))


# numpy's SeedSequence (pool of 4 words) on the 6 entropy words of a trial
# key takes 24 mixing hash steps and 8 output steps; PCG64 then seeds with
# two steps of its 128-bit LCG. The last 8 mixing steps, 4 for each of the
# words t and 0, and the output steps are stacked as (xor, multiplier)
# columns.
_MIX_STEPS = _hash_steps(0x43B0D7E5, 0x931E8875, 24)
_WORD_STEPS = np.array(_MIX_STEPS[16:], np.uint32).reshape(2, 4, 2).transpose(0, 2, 1)[..., None]
_OUT_STEPS = np.array(_hash_steps(0x8B51F9DD, 0x58F38DED, 8), np.uint32).T[..., None]
_MIX_L, _MIX_R, _SHIFT, _MASK32 = 0xCA01F9DD, 0x4973F715, 16, 0xFFFFFFFF
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _hashmix(v, xor, mult):
    """One SeedSequence hash step, on uint32 arrays or on Python ints."""
    v = (v ^ xor) * mult & _MASK32
    return v ^ (v >> _SHIFT)


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ (r >> _SHIFT)


def _seed_pool(seed: int) -> list:
    """The 4-word SeedSequence pool after its first 16 hash steps, which
    read only the seed words (seed low, seed high, 0, 0)."""
    steps = iter(_MIX_STEPS)
    pool = [_hashmix(w, *next(steps)) for w in (seed & _MASK32, seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(steps)))
    return pool


def _substream_states(seed: int, trials) -> Iterator[dict]:
    """The PCG64 state of ``trial_rng(seed, t)`` for each trial t, hashed
    for all trials at once and yielded one dict at a time.

    SeedSequence hashes the entropy words [seed (two words), 0, 0, t, 0]:
    the seed words once, as Python ints, and then t and 0 into a (4, N)
    pool, one stacked hash step and one mix per word, and its 8 output words
    as one (8, N) array; PCG64's two seeding steps run on Python ints. Every
    t must be below 2**32 and the seed below 2**64, so that each key has
    exactly these six words."""
    pool = np.array(_seed_pool(int(seed)), dtype=np.uint32)[:, None]
    for word, steps in zip((np.array(trials, dtype=np.uint32), np.uint32(0)), _WORD_STEPS):
        pool = _mix(pool, _hashmix(word, *steps))
    out = _hashmix(pool[[0, 1, 2, 3] * 2], *_OUT_STEPS).astype(np.uint64)
    # little-endian uint32 pairs -> uint64: state high, state low, seq high, seq low
    hi_lo = (out[0::2] | out[1::2] << np.uint64(32)).tolist()
    for s_hi, s_lo, q_hi, q_lo in zip(*hi_lo):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def _coefficients(z: np.ndarray, K: int, M: int):
    """(h_r, h, h_d) from the normals z (..., 2 (K M + M + K)) of one draw per
    row: real and then imaginary parts of CN(0, 1) h_r, h and h_d in turn,
    h_d at alpha = 1."""

    def cn(lo: int, n: int) -> np.ndarray:
        return (z[..., lo : lo + n] + 1j * z[..., lo + n : lo + 2 * n]) / np.sqrt(2.0)

    return cn(0, K * M).reshape(*z.shape[:-1], K, M), cn(2 * K * M, M), cn(2 * (K * M + M), K)


def direct_links(alpha, h_d: np.ndarray) -> np.ndarray:
    """The direct links alpha * h_d of a draw whose links at alpha = 1 are
    h_d. ValidationError when the product overflows, the one realization
    check a draw can fail."""
    with np.errstate(over="ignore"):
        h_d = alpha * h_d
    if not np.all(np.isfinite(h_d)):
        raise ValidationError("h_d has non-finite entries")
    return h_d


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
    h_r, h, h_d = _coefficients(z, K, M)
    return ChannelRealization(h_r=h_r, h_d=direct_links(cfg.alpha, h_d), h=h, P=P * cfg.P_max,
                              P_r=cfg.P_r)


def sample_block(scen: ScenarioConfig, trials) -> ChannelBlock:
    """The unit draws of scen's (K, M_r) and seed, one row per trial index
    t: the draw :func:`sample_channel` makes from ``trial_rng(scen.seed, t)``
    at alpha = P_max = P_r = 1, whatever scen's alpha and powers. A caller
    scales h_d by its alpha, through :func:`direct_links`, P by its P_max
    and P_r by its P_r. The substreams are seeded in bulk, by
    _substream_states."""
    trials = np.asarray(trials)
    if not trials.size or trials.min() < 0 or trials.max() >= 2**32:
        raise ValidationError("a block needs at least one trial index, each in [0, 2**32)")
    K, M = scen.K, scen.M_r
    z, P = np.empty((len(trials), 2 * (K * M + M + K))), np.empty((len(trials), K))
    bitgen = PCG64()  # every draw sets its own state first
    rng = Generator(bitgen)
    for i, state in enumerate(_substream_states(scen.seed, trials)):
        bitgen.state = state
        _draw(rng, z[i], P[i])
    h_r, h, h_d = _coefficients(z, K, M)
    return ChannelBlock(h_r=h_r, h_d=h_d, h=h, P=P, P_r=np.ones(len(trials)))


def _relay_matrix(F, c) -> np.ndarray:
    """F as a complex array; ValidationError unless it holds one M_r x M_r
    matrix for each trial of c, a realization or a ChannelBlock."""
    F = np.asarray(F, dtype=complex)
    M = c.h.shape[-1]
    if F.shape != c.h.shape[:-1] + (M, M):
        raise ValidationError(f"F must be {M}x{M} per trial, got shape {F.shape}")
    return F


def relay_tx_power(F: np.ndarray, c):
    """Average transmit power of the relay for amplification matrix F:
    trace(F (I + sum_k h_r^(k) P^(k) h_r^(k)^H) F^H), of a realization, or of
    each trial of a ChannelBlock with a stack F (N, M_r, M_r)."""
    F = _relay_matrix(F, c)
    G = np.eye(c.h.shape[-1]) + (np.swapaxes(c.h_r, -1, -2) * c.P[..., None, :]) @ c.h_r.conj()
    return np.trace(F @ G @ np.swapaxes(F, -1, -2).conj(), axis1=-2, axis2=-1).real


def user_snrs(c):
    """Each user's direct-link SNR d = |h_d^(k)|^2 P^(k) and relay-hop SNR
    nr = ||h_r^(k)||^2 P^(k) (last axis), and the relay-to-receiver SNR
    hp = ||h||^2 P_r, of a realization or a ChannelBlock."""
    d, r, h = (np.square(a, out=a) for a in map(np.abs, (c.h_d, c.h_r, c.h)))  # x ** 2
    return np.multiply(d, c.P, out=d), r.sum(axis=-1) * c.P, h.sum(axis=-1) * c.P_r


def sum_snrs(d: np.ndarray, nr: np.ndarray):
    """s = sum d of each trial. ValidationError, naming the first such
    trial's s and tr R = sum nr, when s * tr R, which bounds T and W,
    overflows a float in any trial."""
    with np.errstate(over="ignore", invalid="ignore"):
        s, tr_R = d.sum(axis=-1), nr.sum(axis=-1)
        fits = np.isfinite(s * tr_R)
    if not fits.all():
        i = np.argmin(fits)
        raise ValidationError("channel SNRs overflow a float: "
                              f"s = {np.ravel(s)[i]:.3e}, tr R = {np.ravel(tr_R)[i]:.3e}")
    return s


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
    s = sum_snrs(d, nr)
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


def scale_aggregates(c, agg: ChannelAggregates, rows, alpha, t) -> ChannelAggregates:
    """The aggregates of rows ``rows`` (... for all) of the unit draws c, a
    block or a realization at alpha = P_max = 1 with aggregates ``agg``, at
    direct-link scale alpha and user power scale t, numbers or arrays over
    the rows. d, nr and s are formed from the scaled draw, alpha h_d through
    direct_links and P times t, with compute_aggregates' checks in its order:
    they and the error messages are bit for bit a build's at the scaled draw.
    R scales as t, and T and W as (alpha t)^2, by alpha t twice, as its
    square overflows first: a build's to rounding. hp does not scale."""
    alpha, t = np.asarray(alpha, dtype=float), np.asarray(t, dtype=float)
    h_d, P = direct_links(alpha[..., None], c.h_d[rows]), c.P[rows] * t[..., None]
    with np.errstate(over="ignore", invalid="ignore"):  # user_snrs' d and nr
        d = np.square(np.abs(h_d)) * P
        gains = np.abs(c.h_r)
        nr = np.square(gains, out=gains).sum(axis=-1)[rows] * P
    s, at = sum_snrs(d, nr), (alpha * t)[..., None, None]
    T, W = agg.T[rows] * at, agg.W[rows] * at
    T *= at
    W *= at
    return ChannelAggregates(s=s, R=agg.R[rows] * t[..., None, None], T=T, W=W,
                             d=d, nr=nr, hp=agg.hp[rows])


def effective_channel(F: np.ndarray, c) -> np.ndarray:
    """Every user's two-component stacked channel (relayed path, direct path)
    after normalizing the relayed path's noise, (..., K, 2):
    [r^(-1/2) h^H F h_r^(k), h_d^(k)] with r = 1 + h^H F F^H h, of a
    realization, or of each trial of a ChannelBlock with a stack F."""
    F = _relay_matrix(F, c)
    hF = c.h.conj()[..., None, :] @ F  # h^H F as a row, the conjugate of F^H h
    r = 1.0 + (hF.conj() * hF).real.sum(axis=(-2, -1))
    relayed = (hF @ np.swapaxes(c.h_r, -1, -2))[..., 0, :] / np.sqrt(r)[..., None]
    return np.stack([relayed, c.h_d], axis=-1)


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
    with np.errstate(over="ignore"):  # the realization rejects a P that overflows
        P = P / N0
    return ChannelRealization(h_r=h_r, h_d=h_d, h=h, P=P, P_r=P_r / N0)
