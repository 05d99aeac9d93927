import json

import numpy as np
import pytest

from marcsim import (
    ChannelRealization,
    ScenarioConfig,
    compute_aggregates,
    effective_channel,
    realization_from_json,
    realization_to_json,
    relay_tx_power,
    sample_channel,
    trial_rng,
)
from marcsim.errors import ValidationError
from marcsim.numerics import is_hermitian, quadratic_form


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


@pytest.mark.parametrize("K", [1, 2, 10, 50])
@pytest.mark.parametrize("M_r", [1, 4, 8])
def test_w_matches_pair_loop(make_channel, K, M_r):
    # reference: the pairwise sum of P_j P_k w_jk w_jk^H over j < k, one pair
    # at a time
    for seed in range(3):
        c = make_channel(seed=seed, K=K, M_r=M_r)
        ref = np.zeros((M_r, M_r), dtype=complex)
        for j in range(K):
            for k in range(j + 1, K):
                w = c.h_d[k] * c.h_r[j] - c.h_d[j] * c.h_r[k]
                ref += c.P[j] * c.P[k] * np.outer(w, w.conj())
        W = compute_aggregates(c).W
        if K == 1:
            assert W.shape == (M_r, M_r) and np.all(W == 0)
        assert np.max(np.abs(W - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


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
    he = effective_channel(np.zeros((2, 2)), c, 1)
    assert he[0] == 0
    assert he[1] == c.h_d[1]


def test_effective_channel_scalar_hand_case():
    c = ChannelRealization(h_r=[[1.0]], h_d=[0.3 + 0.4j], h=[1.0], P=[1.0], P_r=1.0)
    he = effective_channel(np.array([[1.0]]), c, 0)
    assert he[0] == pytest.approx(1 / np.sqrt(2))
    assert he[1] == 0.3 + 0.4j


def test_effective_channel_cauchy_schwarz(make_channel, rng):
    for seed in range(10):
        c = make_channel(seed=seed, K=3, M_r=3)
        F = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        r = 1.0 + np.linalg.norm(F.conj().T @ c.h) ** 2
        for k in range(c.K):
            he = effective_channel(F, c, k)
            bound = np.linalg.norm(F.conj().T @ c.h) * np.linalg.norm(c.h_r[k])
            assert abs(he[0]) <= bound / np.sqrt(r) + 1e-12


def test_effective_channel_index_validation(make_channel):
    c = make_channel(K=2)
    with pytest.raises(ValidationError):
        effective_channel(np.zeros((2, 2)), c, 2)


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
    doc = json.loads(realization_to_json(
        ChannelRealization(h_r=[[1.0]], h_d=[1.0], h=[1.0], P=[1.0], P_r=1.0)))
    for n0 in (0, -1, float("nan"), float("inf"), "x"):
        with pytest.raises(ValidationError):
            realization_from_json(json.dumps({**doc, "N0": n0}))


def test_scenario_validation():
    with pytest.raises(ValidationError):
        ScenarioConfig(K=0)
    with pytest.raises(ValidationError):
        ScenarioConfig(P_max=0.0)
    with pytest.raises(ValidationError):
        ScenarioConfig(alpha=-0.5)


def test_realizations_immutable(make_channel):
    c = make_channel()
    with pytest.raises(ValueError):
        c.P[0] = 5.0
