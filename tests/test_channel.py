import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import PCG64, SeedSequence

from marcsim import (
    ChannelRealization,
    ScenarioConfig,
    compute_aggregates,
    effective_channel,
    realization_from_json,
    realization_to_json,
    relay_tx_power,
    sample_block,
    sample_channel,
    scale_aggregates,
    trial_rng,
)
from marcsim.channel import _coefficients, _substream_states, direct_links
from marcsim.errors import ValidationError
from marcsim.harness import invariant_suite
from marcsim.numerics import is_hermitian, quadratic_form

from conftest import scaled_block


def test_zero_alpha_kills_direct_links(make_channel):
    c = make_channel(seed=1, alpha=0.0, K=5)
    assert np.all(c.h_d == 0)


def test_same_seed_bit_identical():
    cfg = ScenarioConfig(K=4, M_r=3, seed=99)
    c1 = sample_channel(cfg, trial_rng(99, 7))
    c2 = sample_channel(cfg, trial_rng(99, 7))
    assert np.array_equal(c1.h_r, c2.h_r)
    assert np.array_equal(c1.h_d, c2.h_d)
    assert np.array_equal(c1.h, c2.h)
    assert np.array_equal(c1.P, c2.P)


@pytest.mark.parametrize("K, M_r, alpha", [(1, 1, 0.0), (3, 2, 1.0), (10, 4, 0.3), (50, 8, 0.1)])
def test_sample_matches_public_construction(K, M_r, alpha):
    # The sampler skips the constructor's checks and draws all normals in one
    # call; on the same streams it must build the realizations the public
    # constructor builds from one call per real or imaginary part, alone and,
    # at alpha = P_max = P_r = 1, as a block seeded in bulk, whatever order
    # the block lists its trials in, also for a two-word seed.
    for seed in (4, 2**32 + 5):
        cfg = ScenarioConfig(K=K, M_r=M_r, alpha=alpha, P_max=5.0, P_r=2.0, seed=seed)
        order = np.random.default_rng(K).permutation(50)
        blk = sample_block(cfg, order.tolist())
        unit = {"h_r": blk.h_r, "h_d": direct_links(alpha, blk.h_d), "h": blk.h, "P": blk.P * 5.0}
        for i, t in enumerate(order):
            c = sample_channel(cfg, trial_rng(seed, t))
            rng = trial_rng(seed, t)

            def cn(shape):
                return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

            h_r, h = cn((K, M_r)), cn(M_r)
            h_d = alpha * cn(K)
            ref = ChannelRealization(h_r=h_r, h_d=h_d, h=h, P=rng.uniform(0.0, 5.0, K), P_r=2.0)
            for name in ("h_r", "h_d", "h", "P"):
                got, want = getattr(c, name), getattr(ref, name)
                assert np.array_equal(got, want) and got.dtype == want.dtype, name
                assert got.shape == want.shape and not got.flags.writeable, name
                assert np.array_equal(unit[name][i], want), name
            assert c.P_r == ref.P_r and type(c.P_r) is type(ref.P_r)
        assert np.array_equal(blk.P_r, np.ones(50))


def test_sample_overflowing_direct_links_rejected():
    # alpha only has to be finite, so alpha * CN can overflow; the error comes
    # without a RuntimeWarning, which the test configuration turns into one
    cfg = ScenarioConfig(K=50, M_r=8, alpha=1e308, seed=0)
    with pytest.raises(ValidationError, match="h_d has non-finite entries"):
        sample_channel(cfg, trial_rng(0, 0))
    with pytest.raises(ValidationError, match="h_d has non-finite entries"):
        invariant_suite(cfg, n_trials=2)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def coefficients_reference(z, alpha, K, M):
    """The complex division _coefficients stands for: each CN part divided
    by sqrt(2) as a whole; h_d then scaled by alpha, as direct_links does."""

    def cn(lo, n):
        return (z[..., lo : lo + n] + 1j * z[..., lo + n : lo + 2 * n]) / np.sqrt(2.0)

    with np.errstate(over="ignore"):
        h_d = alpha * cn(2 * (K * M + M), K)
    return cn(0, K * M).reshape(*z.shape[:-1], K, M), cn(2 * K * M, M), h_d


@pytest.mark.parametrize("zeros", ["none", "h only", "every part"])
def test_coefficients_are_numpys_complex_division_bit_for_bit(rng, zeros):
    # Normals with near-overflow entries and, in some parts, +0 and -0, where
    # the division gives a zero a sign that depends on the other half of its
    # complex number, so that a rewrite as real products would differ.
    K, M = 4, 3
    lo_h, lo_hd = 2 * K * M, 2 * (K * M + M)
    z = rng.standard_normal((60, 2 * (K * M + M + K)))
    z[rng.random(z.shape) < 0.1] = 1.7e308
    z[rng.random(z.shape) < 0.1] = -1.7e308
    zero_cols = {"none": slice(0, 0), "h only": slice(lo_h, lo_hd), "every part": slice(None)}
    mask = np.zeros(z.shape, bool)
    mask[:, zero_cols[zeros]] = rng.random(z[:, zero_cols[zeros]].shape) < 0.3
    z[mask] = np.where(rng.random(mask.sum()) < 0.5, 0.0, -0.0)
    assert (z.size - np.count_nonzero(z) > 0) == (zeros != "none")
    alpha = rng.uniform(0.0, 1.0, (60, 1))
    alpha[::7] = 0.0
    for zs, alphas in ((z, alpha), (z[5], 0.3)):  # a block, and one draw as sample_channel's
        h_r, h, h_d = _coefficients(zs, K, M)
        got, want = (h_r, h, direct_links(alphas, h_d)), coefficients_reference(zs, alphas, K, M)
        for name, g, w in zip(("h_r", "h", "h_d"), got, want):
            assert same_bits(g, w), (zeros, name)


def test_direct_links_reject_overflow():
    # alpha * 10 / sqrt(2) overflows at alpha = 1e308, not at 1e307, in a
    # block's rows and in one draw, as sample_channel scales it
    h_d = np.full((3, 2), 10.0 / np.sqrt(2.0) + 0j)
    with pytest.raises(ValidationError, match="h_d has non-finite entries"):
        direct_links(np.array([[1.0], [1e308], [1.0]]), h_d)
    assert np.isfinite(direct_links(np.array([[1e307]] * 3), h_d)).all()
    with pytest.raises(ValidationError, match="h_d has non-finite entries"):
        direct_links(1e308, h_d[0])


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
def test_bulk_seeding_matches_seed_sequence(seed):
    # numpy's own SeedSequence and PCG64 are the oracle for every key the
    # harness can form, (seed, t, 0), also the top trial index, which
    # check's probes take
    trials = list(range(4999)) + [2**32 - 1]
    got = _substream_states(seed, trials)
    for t, state in zip(trials, got, strict=True):
        assert state == PCG64(SeedSequence(seed, spawn_key=(t, 0))).state, t


def test_sample_block_draws_the_oracle_streams_at_the_key_bounds():
    # the largest seed and trial index a block takes: each row is the unit
    # draw sample_channel makes from numpy's own SeedSequence stream
    unit = ScenarioConfig(K=3, M_r=2, P_max=1.0, P_r=1.0, alpha=1.0, seed=2**64 - 1)
    trials = [0, 2**31, 2**32 - 1]
    blk = sample_block(replace(unit, alpha=0.5, P_max=4.0), trials)
    for i, t in enumerate(trials):
        rng = np.random.Generator(PCG64(SeedSequence(2**64 - 1, spawn_key=(t, 0))))
        want = sample_channel(unit, rng)
        for name in ("h_r", "h_d", "h", "P"):
            assert np.array_equal(getattr(blk, name)[i], getattr(want, name)), (t, name)


def test_sample_block_rejects_malformed_blocks():
    cfg = ScenarioConfig(K=2, M_r=2, seed=5)
    for trials in ([0, 2**32], [-1], [], range(0)):
        with pytest.raises(ValidationError, match="a block needs at least one trial index"):
            sample_block(cfg, trials)


@pytest.mark.parametrize("K, M_r", [(1, 1), (2, 3), (10, 4), (50, 8)])
def test_scaled_aggregates_match_a_build_at_the_scaled_draw(K, M_r):
    # Aggregates built once at alpha = P_max = 1 and scaled to a cell, for
    # every draw or for rows picked with repeats, equal those built from the
    # draws at the cell's alpha and P_max: s, d, nr and hp bit for bit, and
    # R, T and W to 1e-13 of each trial's largest entry, at every alpha and
    # power a table can take.
    base = ScenarioConfig(K=K, M_r=M_r, P_r=3.0, seed=6)
    trials = np.arange(40)
    c = scaled_block([replace(base, alpha=1.0, P_max=1.0)] * 40, trials)
    unit = compute_aggregates(c)
    for rows in (..., np.array([5, 0, 5, 39, 17])):
        drawn = trials[rows]
        for alpha in (0.0, 1e-3, 0.3, 1.0, 7.0):
            for t in (1e-4, 1.0, 10.0, 1e8):
                got = scale_aggregates(c, unit, rows, alpha, t)
                want = compute_aggregates(
                    scaled_block([replace(base, alpha=alpha, P_max=t)] * len(drawn), drawn))
                for name in ("s", "d", "nr", "hp"):
                    g, w = getattr(got, name), getattr(want, name)
                    assert g.shape == w.shape and g.tobytes() == w.tobytes(), (name, alpha, t)
                for name in ("R", "T", "W"):
                    g, w = (np.reshape(getattr(a, name), (len(drawn), -1)) for a in (got, want))
                    scale = np.abs(w).max(axis=1, keepdims=True)
                    assert np.all(np.abs(g - w) <= 1e-13 * scale), (name, alpha, t)
    # one realization, with no trial axis, scales as its block row
    one = sample_channel(replace(base, alpha=1.0, P_max=1.0), trial_rng(6, 0))
    got = scale_aggregates(one, compute_aggregates(one), ..., 0.3, 10.0)
    row = scale_aggregates(c, unit, ..., 0.3, 10.0)
    for name in ("s", "R", "T", "W", "d", "nr", "hp"):
        assert np.array_equal(getattr(got, name), getattr(row, name)[0]), name


def test_different_trials_differ():
    cfg = ScenarioConfig(K=2, M_r=2, seed=5)
    c1 = sample_channel(cfg, trial_rng(5, 0))
    c2 = sample_channel(cfg, trial_rng(5, 1))
    assert not np.array_equal(c1.h_r, c2.h_r)


def test_sampling_moments():
    # unit entry variance for h, alpha^2 for the direct links, uniform powers
    cfg = ScenarioConfig(K=2, M_r=2, P_max=4.0, alpha=0.5, seed=3)
    rng = trial_rng(3, 0)
    n = 100_000
    h_sq, hd_sq, powers = [], [], []
    for _ in range(n // 100):
        c = sample_channel(cfg, rng)
        h_sq.append(np.abs(c.h) ** 2)
        hd_sq.append(np.abs(c.h_d) ** 2)
        powers.append(c.P)
    h_sq = np.concatenate(h_sq)
    hd_sq = np.concatenate(hd_sq)
    powers = np.concatenate(powers)
    assert abs(h_sq.mean() - 1.0) < 0.02
    se = hd_sq.std() / np.sqrt(hd_sq.size)
    assert abs(hd_sq.mean() - 0.25) < 3 * se
    assert powers.min() >= 0 and powers.max() <= 4.0
    assert abs(powers.mean() - 2.0) < 0.05


def test_relay_tx_power_trivial(make_channel):
    c = make_channel(K=2, M_r=3)
    assert relay_tx_power(np.zeros((3, 3)), c) == 0.0
    c0 = ChannelRealization(
        h_r=np.zeros((2, 3)), h_d=np.zeros(2), h=np.ones(3), P=[1.0, 2.0], P_r=1.0
    )
    assert relay_tx_power(np.eye(3), c0) == pytest.approx(3.0)


def test_relay_tx_power_matches_naive(make_channel, rng):
    for seed in range(10):
        c = make_channel(seed=seed, K=3, M_r=3)
        F = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        G = np.eye(3, dtype=complex)
        for k in range(c.K):
            G += c.P[k] * np.outer(c.h_r[k], c.h_r[k].conj())
        naive = np.trace(F @ G @ F.conj().T).real
        assert relay_tx_power(F, c) == pytest.approx(naive, abs=1e-10 * max(1, abs(naive)))


def test_relay_tx_power_quadratic_scaling(make_channel, rng):
    c = make_channel(K=2, M_r=2)
    F = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    base = relay_tx_power(F, c)
    for gamma in (0.5, 2.0, 7.0):
        assert relay_tx_power(gamma * F, c) == pytest.approx(
            gamma**2 * base, rel=1e-10
        )


def test_relay_tx_power_shape_validation(make_channel):
    c = make_channel(M_r=2)
    with pytest.raises(ValidationError):
        relay_tx_power(np.zeros((3, 3)), c)


def test_aggregates_single_user(make_channel):
    c = make_channel(K=1, M_r=3)
    agg = compute_aggregates(c)
    assert np.all(agg.W == 0)
    assert np.allclose(agg.s * agg.R, agg.T, atol=1e-12, rtol=1e-12)


def test_aggregates_no_direct_links(make_channel):
    c = make_channel(K=3, M_r=2, alpha=0.0)
    agg = compute_aggregates(c)
    assert agg.s == 0.0
    assert np.all(agg.T == 0)
    assert np.all(agg.W == 0)


@pytest.mark.parametrize("K", [1, 2, 3, 5])
@pytest.mark.parametrize("M_r", [1, 2, 4])
def test_aggregates_identity(make_channel, K, M_r):
    # the W construction must reproduce s*R - T exactly
    for seed in range(5):
        c = make_channel(seed=seed, K=K, M_r=M_r)
        agg = compute_aggregates(c)
        lhs = agg.s * agg.R - agg.T
        scale = max(1.0, np.max(np.abs(lhs)), np.max(np.abs(agg.W)))
        assert np.max(np.abs(lhs - agg.W)) <= 1e-10 * scale


def _pair_loop_w(c):
    # reference: the pairwise sum of P_j P_k w_jk w_jk^H over j < k, one pair
    # at a time
    ref = np.zeros((c.M_r, c.M_r), dtype=complex)
    for j in range(c.K):
        for k in range(j + 1, c.K):
            w = c.h_d[k] * c.h_r[j] - c.h_d[j] * c.h_r[k]
            ref += c.P[j] * c.P[k] * np.outer(w, w.conj())
    return ref


@pytest.mark.parametrize("K", [1, 2, 10, 50])
@pytest.mark.parametrize("M_r", [1, 4, 8])
def test_w_matches_pair_loop(make_channel, K, M_r):
    # The Gram form cancels sqrt(s) G against u d^T / sqrt(s); weak, strong
    # and absent direct links at 80 dB stress that cancellation.
    settings = [(1.0, 10.0)] + [(alpha, 1e8) for alpha in (0.0, 1e-6, 10.0, 1e6)]
    for alpha, P_max in settings:
        for seed in range(3):
            c = make_channel(seed=seed, K=K, M_r=M_r, alpha=alpha, P_max=P_max)
            ref = _pair_loop_w(c)
            W = compute_aggregates(c).W
            assert W.shape == (M_r, M_r)
            if K == 1 or alpha == 0.0:
                assert np.all(W == 0)
            assert np.max(np.abs(W - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
            # only one user transmits: every pair term, and so W, is exactly 0
            lone = ChannelRealization(h_r=c.h_r, h_d=c.h_d, h=c.h,
                                      P=np.where(np.arange(K) == K // 2, c.P, 0.0), P_r=c.P_r)
            assert np.all(_pair_loop_w(lone) == 0)
            assert np.all(compute_aggregates(lone).W == 0)


def aggregates_reference(c) -> dict:
    """compute_aggregates' values as its earlier expressions formed them, a
    fresh array for every step."""
    h_r, h_d, P = c.h_r, c.h_d, c.P
    sq = np.abs(c.h_r) ** 2, np.abs(c.h) ** 2
    d, nr, hp = np.abs(c.h_d) ** 2 * c.P, sq[0].sum(axis=-1) * c.P, sq[1].sum(axis=-1) * c.P_r
    s = d.sum(axis=-1)
    G = np.swapaxes(h_r, -1, -2)
    R = (G * P[..., None, :]) @ h_r.conj()
    R = np.ascontiguousarray(0.5 * (R + np.swapaxes(R, -1, -2).conj()))
    u = ((P * h_d.conj())[..., None, :] @ h_r)[..., 0, :]
    T = u[..., :, None] * u.conj()[..., None, :]
    gram = (s > 0.0) & (np.count_nonzero(P, axis=-1) >= 2)
    root_P, root_s = np.sqrt(P)[..., None, :], np.sqrt(np.where(gram, s, 1.0))[..., None, None]
    Y, ud = G * root_P, u[..., :, None] * (root_P * h_d[..., None, :])
    Y *= root_s
    ud /= root_s
    Y -= ud
    W = np.where(gram[..., None, None], Y @ np.swapaxes(Y, -1, -2).conj(), 0.0)
    return dict(s=s, R=R, T=T, W=W, d=d, nr=nr, hp=hp, gram=gram)


@pytest.mark.parametrize("K", [1, 3, 50])
@pytest.mark.parametrize("M_r", [1, 2, 8])
def test_aggregates_match_the_reference_expressions_bit_for_bit(K, M_r):
    # a block and its single realizations, with trials where no user or one
    # user has power, so that the Gram factor is skipped, and where one user
    # is silent
    scens = [ScenarioConfig(K=K, M_r=M_r, alpha=a, P_max=10.0, P_r=3.0, seed=7)
             for a in (0.0, 0.1, 1.0)]
    blk = scaled_block(scens * 8, list(range(24)))
    P = blk.P.copy()
    P[::4] = 0.0
    P[1::4, 1:] = 0.0
    P[2::4, 0] = 0.0
    blk = replace(blk, P=P)
    want = aggregates_reference(blk)
    assert not want.pop("gram").all()
    got = compute_aggregates(blk)
    for name, ref in want.items():
        assert same_bits(getattr(got, name), ref), name
    for i in range(len(P)):
        c = ChannelRealization(h_r=blk.h_r[i], h_d=blk.h_d[i], h=blk.h[i], P=P[i],
                               P_r=float(blk.P_r[i]))
        got, want = compute_aggregates(c), aggregates_reference(c)
        for name in "s R T W d nr hp".split():
            assert same_bits(getattr(got, name), want[name]), (i, name)


def test_aggregates_memory_is_gram_sized(make_channel):
    # Structural guard with no timing in it: at K=200, M_r=8 the 19,900 pair
    # vectors alone take 2.4 MiB, the Gram factor Y takes 25 KiB.
    c = make_channel(K=200, M_r=8)
    compute_aggregates(c)
    tracemalloc.start()
    try:
        compute_aggregates(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_aggregates_overflow_is_validation_error():
    # finite channels whose s, R or s*R (and so T and W) overflow a float
    for h_d, P, h_r in ((1e200, 1.0, 1.0), (1.0, 1e308, 10.0), (1e80, 1.0, 1e80)):
        c = ChannelRealization(h_r=[[h_r]], h_d=[h_d], h=[1.0], P=[P], P_r=1.0)
        with pytest.raises(ValidationError, match="overflow a float"):
            compute_aggregates(c)


def test_aggregates_hermitian_psd(make_channel, rng):
    for seed in range(8):
        c = make_channel(seed=seed, K=4, M_r=3)
        agg = compute_aggregates(c)
        scale = max(1.0, np.max(np.abs(agg.W)))
        for M in (agg.R, agg.T, agg.W):
            assert is_hermitian(M)
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert quadratic_form(x, M) >= -1e-10 * scale


def test_effective_channel_zero_relay(make_channel):
    c = make_channel(K=2, M_r=2)
    he = effective_channel(np.zeros((2, 2)), c)
    assert he.shape == (2, 2)
    assert he[1, 0] == 0
    assert he[1, 1] == c.h_d[1]


def test_effective_channel_scalar_hand_case():
    c = ChannelRealization(h_r=[[1.0]], h_d=[0.3 + 0.4j], h=[1.0], P=[1.0], P_r=1.0)
    he = effective_channel(np.array([[1.0]]), c)[0]
    assert he[0] == pytest.approx(1 / np.sqrt(2))
    assert he[1] == 0.3 + 0.4j


def test_effective_channel_cauchy_schwarz(make_channel, rng):
    for seed in range(10):
        c = make_channel(seed=seed, K=3, M_r=3)
        F = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        r = 1.0 + np.linalg.norm(F.conj().T @ c.h) ** 2
        heff = effective_channel(F, c)
        for k in range(c.K):
            he = heff[k]
            bound = np.linalg.norm(F.conj().T @ c.h) * np.linalg.norm(c.h_r[k])
            assert abs(he[0]) <= bound / np.sqrt(r) + 1e-12


def test_effective_channel_shape_validation(make_channel):
    c = make_channel(K=2)
    with pytest.raises(ValidationError):
        effective_channel(np.zeros((3, 3)), c)


def test_json_roundtrip(make_channel):
    c = make_channel(seed=17, K=3, M_r=2)
    text = realization_to_json(c)
    assert "N0" not in json.loads(text)
    c2 = realization_from_json(text)
    assert np.array_equal(c.h_r, c2.h_r)
    assert np.array_equal(c.h_d, c2.h_d)
    assert np.array_equal(c.h, c2.h)
    assert np.array_equal(c.P, c2.P)
    assert c.P_r == c2.P_r


def test_json_rejects_garbage():
    with pytest.raises(ValidationError):
        realization_from_json("not json at all {")
    with pytest.raises(ValidationError):
        realization_from_json('{"h_r": [[1.0]], "h_d": [[0,0]], "h": [[0,0]], "P": [1]}')


def test_json_folds_noise(make_channel):
    # A document's noise variance is folded into the powers; channels are kept.
    c = make_channel(seed=2)
    doc = json.loads(realization_to_json(c))
    cn = realization_from_json(json.dumps({**doc, "N0": 4}))
    assert np.array_equal(cn.P, c.P / 4.0)
    assert cn.P_r == c.P_r / 4.0
    for name in ("h_r", "h_d", "h"):
        assert np.array_equal(getattr(cn, name), getattr(c, name))


def test_realization_validation():
    with pytest.raises(ValidationError):
        ChannelRealization(h_r=[[1.0]], h_d=[1.0], h=[1.0], P=[-1.0], P_r=1.0)
    with pytest.raises(ValidationError):
        ChannelRealization(h_r=[[1.0]], h_d=[1.0, 2.0], h=[1.0], P=[1.0], P_r=1.0)
    with pytest.raises(ValidationError, match="K=0, M_r=2"):
        ChannelRealization(h_r=np.zeros((0, 2)), h_d=[], h=np.zeros(2), P=[], P_r=1.0)
    with pytest.raises(ValidationError, match="K=2, M_r=0"):
        ChannelRealization(h_r=np.zeros((2, 0)), h_d=[1.0, 1.0], h=[], P=[1.0, 1.0], P_r=1.0)
    doc = json.loads(realization_to_json(
        ChannelRealization(h_r=[[1.0]], h_d=[1.0], h=[1.0], P=[1.0], P_r=1.0)))
    for n0 in (0, -1, float("nan"), float("inf"), "x", 1e-320):
        with pytest.raises(ValidationError):
            realization_from_json(json.dumps({**doc, "N0": n0}))


def test_scenario_validation():
    with pytest.raises(ValidationError):
        ScenarioConfig(K=0)
    with pytest.raises(ValidationError):
        ScenarioConfig(P_max=0.0)
    with pytest.raises(ValidationError):
        ScenarioConfig(alpha=-0.5)
    for name in ("P_max", "P_r", "alpha"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValidationError, match=f"^{name} must be finite, got {bad}$"):
                ScenarioConfig(**{name: bad})
        for bad in ("1.0", None, 1j):
            with pytest.raises(TypeError):
                ScenarioConfig(**{name: bad})


def test_realizations_immutable(make_channel):
    c = make_channel()
    with pytest.raises(ValueError):
        c.P[0] = 5.0
    # the realization freezes its own copies, not the caller's arrays
    h_r = np.ones((2, 2), dtype=complex)
    c = ChannelRealization(h_r=h_r, h_d=np.ones(2, complex), h=np.ones(2, complex), P=np.ones(2),
                           P_r=1.0)
    assert h_r.flags.writeable and not c.h_r.flags.writeable
