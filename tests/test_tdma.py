from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from marcsim import (
    ChannelAggregates,
    ChannelBlock,
    ChannelRealization,
    ScenarioConfig,
    SweepConfig,
    asymptotic_allocation,
    estimate_superiority_probability,
    joint_beats_tdma_asymptotic,
    kkt_slackness,
    lower_bound,
    optimize_slots,
    relay_tx_power,
    sample_channel,
    single_user_rate,
    single_user_relay_matrix,
    sum_rate_logdet,
    trial_rng,
    user_rate,
    user_rate_derivative,
)
from marcsim import harness, tdma
from marcsim.channel import compute_aggregates, sample_block, scale_aggregates, user_snrs
from marcsim.errors import NumericalError, ValidationError
from marcsim.harness import _BLOCK_BYTES, _trial_bytes, db_to_linear
from marcsim.numerics import dominant_eigenvalue
from marcsim.tdma import _marginal_at_zero, _slot_derivs, block_asymptotic, block_slots

from conftest import scaled_block


def single_user(seed=0, M_r=2, alpha=1.0, P_max=10.0, P_r=10.0):
    rng = np.random.default_rng(seed)
    hr = (rng.standard_normal((1, M_r)) + 1j * rng.standard_normal((1, M_r))) / np.sqrt(2)
    h = (rng.standard_normal(M_r) + 1j * rng.standard_normal(M_r)) / np.sqrt(2)
    hd = alpha * (rng.standard_normal(1) + 1j * rng.standard_normal(1)) / np.sqrt(2)
    return ChannelRealization(h_r=hr, h_d=hd, h=h, P=rng.uniform(0, P_max, 1), P_r=P_r)


# --------------------------------------------------------------------------
# single-user building blocks
# --------------------------------------------------------------------------

def test_single_user_matrix_scalar_hand_case(scalar_ones_channel):
    fm = single_user_relay_matrix(scalar_ones_channel, 0)
    assert fm.F[0, 0] == pytest.approx(1 / np.sqrt(2))
    assert fm.tx_power == pytest.approx(1.0, rel=1e-8)


def test_single_user_matrix_zero_relay_power(scalar_ones_channel):
    from dataclasses import replace

    c = replace(scalar_ones_channel, P_r=0.0)
    assert np.all(single_user_relay_matrix(c, 0).F == 0)


def test_single_user_matrix_zero_channel_falls_back():
    c = ChannelRealization(h_r=[[0.0]], h_d=[2.0], h=[1.0], P=[1.0], P_r=1.0)
    assert np.all(single_user_relay_matrix(c, 0).F == 0)
    assert single_user_rate(c, 0) == pytest.approx(np.log2(1 + 4))


def test_single_user_matrix_power_equality():
    for seed in range(8):
        c = single_user(seed=seed, M_r=3, P_r=4.0)
        fm = single_user_relay_matrix(c, 0)
        assert relay_tx_power(fm.F, c) == pytest.approx(4.0, rel=1e-8)


def test_single_user_matrix_power_charged_to_its_user():
    # only user k transmits in its slot, so F spends the budget on k alone
    c = sample_channel(ScenarioConfig(K=3, M_r=2, P_r=10.0, seed=1), trial_rng(1, 0))
    for k in range(c.K):
        fm = single_user_relay_matrix(c, k)
        alone = ChannelRealization(
            h_r=c.h_r[k : k + 1], h_d=c.h_d[k : k + 1], h=c.h, P=c.P[k : k + 1], P_r=c.P_r
        )
        assert fm.tx_power == pytest.approx(10.0, rel=1e-8)
        assert fm.tx_power == pytest.approx(relay_tx_power(fm.F, alone), rel=1e-12)


def test_single_user_rate_matches_logdet_oracle():
    for seed in range(10):
        c = single_user(seed=seed, M_r=3)
        fm = single_user_relay_matrix(c, 0)
        assert single_user_rate(c, 0) == pytest.approx(
            sum_rate_logdet(fm, c), abs=1e-10
        )


def test_single_user_rate_all_ones(scalar_ones_channel):
    assert single_user_rate(scalar_ones_channel, 0) == pytest.approx(np.log2(7 / 3))
    assert single_user_rate(scalar_ones_channel, 0) == pytest.approx(
        lower_bound(scalar_ones_channel).r_lower, abs=1e-12
    )


# --------------------------------------------------------------------------
# slotted rate and its derivative
# --------------------------------------------------------------------------

def test_user_rate_full_slot_reduces_to_single_user(make_channel):
    c = make_channel(seed=1, K=3)
    for k in range(3):
        assert user_rate(c, k, 1.0) == pytest.approx(single_user_rate(c, k), rel=1e-12)


def test_user_rate_zero_power_is_zero(make_channel):
    c = ChannelRealization(
        h_r=np.ones((2, 2)), h_d=np.ones(2), h=np.ones(2), P=[0.0, 1.0], P_r=1.0
    )
    for tau in (0.0, 0.2, 1.0):
        assert user_rate(c, 0, tau) == 0.0


def test_user_rate_power_boost_identity(make_channel):
    from dataclasses import replace

    tau = 0.3
    for seed in range(6):
        c = make_channel(seed=seed, K=2, M_r=3)
        boosted = replace(c, P=c.P / tau)
        for k in range(2):
            assert user_rate(c, k, tau) == pytest.approx(
                tau * single_user_rate(boosted, k), abs=1e-10
            )


def test_user_rate_vectorized_matches_scalar(make_channel):
    c = make_channel(seed=2, K=2)
    taus = np.linspace(0.0, 1.0, 11)
    vec = user_rate(c, 0, taus)
    for t, v in zip(taus, vec):
        assert v == pytest.approx(user_rate(c, 0, float(t)), abs=1e-14)


def test_user_rate_validates_range(make_channel):
    c = make_channel()
    with pytest.raises(ValidationError):
        user_rate(c, 0, -0.1)
    with pytest.raises(ValidationError):
        user_rate(c, 0, 1.5)


def test_user_rate_rejects_nan(make_channel):
    c = make_channel()
    with pytest.raises(ValidationError):
        user_rate(c, 0, float("nan"))
    with pytest.raises(ValidationError):
        user_rate(c, 0, np.array([0.5, np.nan]))


def test_single_user_rate_is_the_full_slot_rate(make_channel):
    # one slot-rate formula: the single-user rate is the rate of a full slot
    for seed in range(5):
        c = make_channel(seed=seed, K=3, alpha=(0.0, 1.0)[seed % 2])
        for k in range(3):
            assert single_user_rate(c, k) == user_rate(c, k, 1.0)


def test_derivative_matches_finite_differences(make_channel):
    rng = np.random.default_rng(7)
    for seed in range(30):
        c = make_channel(seed=seed, K=3, M_r=2, alpha=(0.0, 0.5, 1.0)[seed % 3])
        k = int(rng.integers(0, 3))
        tau = float(rng.uniform(1e-3, 0.999))
        h = 1e-6 * tau
        fd = (user_rate(c, k, tau + h) - user_rate(c, k, tau - h)) / (2 * h)
        an = user_rate_derivative(c, k, tau)
        assert an == pytest.approx(fd, rel=1e-5), f"analytic {an} vs FD {fd}"


def test_derivative_strictly_decreasing(make_channel):
    c = make_channel(seed=3, K=2)
    taus = np.linspace(0.01, 1.0, 25)
    vals = [user_rate_derivative(c, 0, float(t)) for t in taus]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_derivative_vanishes_at_huge_tau(make_channel):
    c = make_channel(seed=4, K=2)
    assert user_rate_derivative(c, 0, 1e6) <= 1e-5


def test_derivative_unbounded_near_zero_with_direct_link(make_channel):
    # grows like log2(1/tau): each factor 1e6 adds ~log2(1e6) ~ 19.9
    c = make_channel(seed=5, K=2, alpha=1.0)
    d6 = user_rate_derivative(c, 0, 1e-6)
    d12 = user_rate_derivative(c, 0, 1e-12)
    assert d6 > user_rate_derivative(c, 0, 0.5)
    assert d12 - d6 == pytest.approx(np.log2(1e6), abs=0.5)


def test_derivative_validates_tau(make_channel):
    c = make_channel()
    with pytest.raises(ValidationError):
        user_rate_derivative(c, 0, 0.0)


def test_derivative_rejects_nan(make_channel):
    # a NaN slot once reached the _log_excess series, which never ended on it
    c = make_channel()
    with pytest.raises(ValidationError):
        user_rate_derivative(c, 0, float("nan"))


def test_user_rate_concave(make_channel):
    rng = np.random.default_rng(11)
    for seed in range(10):
        c = make_channel(seed=seed, K=2)
        t1, t2 = sorted(rng.uniform(0.01, 1.0, 2))
        mid = user_rate(c, 0, (t1 + t2) / 2)
        assert mid >= (user_rate(c, 0, t1) + user_rate(c, 0, t2)) / 2 - 1e-12


# --------------------------------------------------------------------------
# slot optimization
# --------------------------------------------------------------------------

def grid_search(c, step=1e-3):
    """Brute-force simplex maximum of the TDMA sum rate (K <= 3)."""
    K = c.K
    if K == 1:
        return user_rate(c, 0, 1.0)
    t = np.arange(0.0, 1.0 + step / 2, step)
    if K == 2:
        return float(np.max(user_rate(c, 0, t) + user_rate(c, 1, 1.0 - t)))
    T1, T2 = np.meshgrid(t, t, indexing="ij")
    mask = T1 + T2 <= 1.0 + 1e-12
    T1, T2 = T1[mask], T2[mask]
    T3 = np.clip(1.0 - T1 - T2, 0.0, 1.0)
    return float(np.max(user_rate(c, 0, T1) + user_rate(c, 1, T2) + user_rate(c, 2, T3)))


def test_two_identical_users_split_evenly():
    hr = np.array([[0.6 + 0.2j, -0.3j], [0.6 + 0.2j, -0.3j]])
    c = ChannelRealization(
        h_r=hr, h_d=[0.5 + 0.1j, 0.5 + 0.1j], h=[1.0, 0.4j], P=[2.0, 2.0], P_r=3.0
    )
    alloc = optimize_slots(c)
    assert alloc.kkt_spread <= 1e-10
    assert np.allclose(alloc.tau, [0.5, 0.5], atol=1e-7)


def test_single_user_gets_whole_slot(make_channel):
    c = make_channel(seed=6, K=1)
    alloc = optimize_slots(c)
    assert alloc.tau[0] == 1.0
    assert alloc.sum_rate == pytest.approx(single_user_rate(c, 0), rel=1e-12)
    assert alloc.kkt_spread == 0.0


@pytest.mark.parametrize("K", [2, 3])
def test_matches_brute_force_grid(make_channel, K):
    for seed in range(10):
        c = make_channel(seed=seed, K=K, M_r=2)
        alloc = optimize_slots(c)
        best = grid_search(c)
        assert alloc.sum_rate >= best - 1e-4, (
            f"iterative {alloc.sum_rate} below grid {best}"
        )
        assert abs(alloc.sum_rate - best) <= 1e-4
        assert alloc.kkt_spread <= 1e-8


@pytest.mark.xfail(strict=True, raises=NumericalError,
                   reason="the slot optimizer stops at a KKT spread of 1.3e-5 bits, over its "
                          "tolerance of 1.5e-9, though its sum rate is within 1e-11 of a scalar "
                          "search over tau")
def test_slots_converge_with_snrs_thirty_decades_apart():
    # Outside the sampler's domain: one user's relay-hop SNR is 4e17 and its
    # direct one 2e-5, the other's 1e-14 and 5e3. About 1 in 2,000-5,000
    # such trials fails.
    c = ChannelRealization(h_r=[[1.0], [1.0]], h_d=[6.884954422695724e-12, 675354483.9043907],
                           h=[1.0], P=[4.312e17, 1.196e-14], P_r=26763.07)
    alloc = optimize_slots(c)
    assert alloc.kkt_spread <= 1e-8


# Extreme but valid inputs: no relay power, no direct links, 80 dB relay
# power, a single scalar user, far more users than relay antennas, and rates
# of ~1e-19 bits (-60 dB powers, no relay power).
EXTREME_CASES = [
    dict(K=5, M_r=2, P_r=0.0),
    dict(K=5, M_r=2, alpha=0.0),
    dict(K=5, M_r=2, P_r=1e8),
    dict(K=1, M_r=1),
    dict(K=50, M_r=2),
    dict(K=10, M_r=4, alpha=1e-6, P_max=1e-6, P_r=0.0),
]


def test_allocation_invariants(make_channel):
    cases = [dict(seed=s, K=5, M_r=2, alpha=(0.0, 1.0)[s % 2]) for s in range(20)]
    cases += [dict(case, seed=s) for case in EXTREME_CASES for s in range(4)]
    for case in cases:
        c = make_channel(**case)
        alloc = optimize_slots(c)
        assert np.all(np.isfinite(alloc.tau)), case
        assert abs(alloc.tau.sum() - 1.0) <= 1e-9, case
        assert np.all(alloc.tau >= 0), case
        assert alloc.sum_rate == pytest.approx(alloc.per_user_rate.sum(), abs=1e-9)
        assert alloc.kkt_spread <= 1e-8, case
        assert kkt_slackness(c, alloc.tau) <= 1e-8, case


def test_slot_rates_match_a_single_user_logdet_reference():
    # A slot of length tau_k is user k alone at power P_k / tau_k with P_r
    # unchanged, for tau_k of the time: its rate is tau_k times the log-det
    # rate of that user's own optimal relay matrix, evaluated by the log-det
    # formula rather than the closed form _slot_rate the optimizer reports.
    cfg = ScenarioConfig(K=10, M_r=4, alpha=0.3, P_r=db_to_linear(20.0), seed=21)
    worst = 0.0
    for t in range(300):
        c = sample_channel(cfg, trial_rng(cfg.seed, t))
        alloc = optimize_slots(c)
        for k in np.flatnonzero(alloc.tau > 0.0):
            alone = ChannelRealization(h_r=c.h_r[k : k + 1], h_d=c.h_d[k : k + 1], h=c.h,
                                       P=c.P[k : k + 1] / alloc.tau[k], P_r=c.P_r)
            ref = alloc.tau[k] * sum_rate_logdet(single_user_relay_matrix(alone, 0), alone)
            worst = max(worst, abs(ref - alloc.per_user_rate[k]) / ref)
    assert worst <= 1e-12


@pytest.mark.parametrize("K, M_r", [(1, 1), (3, 2), (10, 4), (50, 1)])
def test_kkt_spread_far_inside_its_fixed_threshold(K, M_r):
    # The KKT check fails a trial above 1e-8 bits. Over the extremes (P_r = 0
    # and 80 dB, alpha = 0, K = 1, M_r = 1, K >> M_r) the spread stays four
    # orders of magnitude inside it, so the check never stops a run.
    cfgs = [ScenarioConfig(K=K, M_r=M_r, P_max=p_max, P_r=p_r, alpha=alpha, seed=12)
            for alpha, p_r, p_max in product((0.0, 0.1, 1.0, 10.0), (0.0, 1.0, 1e4, 1e8),
                                             (1.0, 10.0, 1e3))]
    blk = scaled_block([cfg for cfg in cfgs for _ in range(5)], list(range(5 * len(cfgs))))
    alloc, why = block_slots(*user_snrs(blk))
    assert not why, why
    assert np.max(alloc.kkt_spread) <= 1e-12


def test_failing_trial_fails_alone(monkeypatch):
    # Even rows have one user with rate, which the first Newton step leaves
    # at the whole frame; odd rows have three. The last row's rates all
    # underflow: every R'' reads 0, so no slot steps and the uniform start
    # stays.
    blk = scaled_block([ScenarioConfig(K=3, M_r=2, seed=5)] * 6, range(6))
    d, nr, hp = user_snrs(blk)
    d[::2, 1:] = nr[::2, 1:] = 0.0
    d, nr, hp = np.vstack([d, [0.0] * 3]), np.vstack([nr, [1e-200] * 3]), np.append(hp, 1e-200)
    ref, ref_why = block_slots(d, nr, hp)
    assert not ref_why, ref_why
    monkeypatch.setattr(tdma, "_MAX_ITER", 1)
    alloc, why = block_slots(d, nr, hp)
    assert why == dict.fromkeys([1, 3, 5], "water level not found in 1 steps")
    passed = ~np.isin(np.arange(len(hp)), list(why))
    for name, field in vars(alloc).items():
        assert np.array_equal(field[passed], getattr(ref, name)[passed]), name
    assert np.array_equal(alloc.tau[passed][:3], [[1.0, 0.0, 0.0]] * 3)
    assert np.array_equal(alloc.tau[-1], np.full(3, 1.0 / 3.0))


def _log_uniform_draws(K, lo, hi, N=2000):
    """SNRs (d, nr, hp) of N trials, log-uniform on [10^lo, 10^hi], 40 % of
    users without a direct link."""
    rng = np.random.default_rng(K)
    d, nr = 10.0 ** rng.uniform(lo, hi, (2, N, K))
    hp = 10.0 ** rng.uniform(lo, hi, N)
    d[rng.random((N, K)) < 0.4] = 0.0
    return d, nr, hp


@pytest.mark.parametrize("K, lo, hi", [pytest.param(K, -6.0, 8.0, id=str(K)) for K in (2, 3, 6)]
                         + [pytest.param(K, -12.0, 12.0, id=f"{K}-24-decades") for K in (2, 3, 6)])
def test_parked_users_meet_complementary_slackness(monkeypatch, K, lo, hi):
    # SNRs log-uniform on [10^lo, 10^hi], 40 % of users without a direct
    # link: a parked user's marginal rate at a vanishing slot must not exceed
    # the level of the users that kept a slot. Over 24 decades some levels
    # fall below 1e-12 nats, where the absolute 1e-8-bit KKT checks are blind.
    # Direct-link slots step in ln tau, so no trial takes a long approach
    # from a slot decades off its optimum: each ends within 40 passes.
    monkeypatch.setattr(tdma, "_MAX_ITER", 40)
    N = 2000
    d, nr, hp = _log_uniform_draws(K, lo, hi, N)
    alloc, why = block_slots(d, nr, hp)
    assert not why, why
    parked = alloc.tau == 0.0
    g, _ = _slot_derivs(d, nr, hp[:, None] * nr, hp[:, None] + 1.0,
                        np.where(parked, 1.0, alloc.tau))
    nu = np.where(parked, -np.inf, g).max(axis=1, keepdims=True)
    assert parked.any(axis=1).sum() >= N // 10
    assert not np.any(parked & (_marginal_at_zero(d, nr, hp[:, None]) > nu))


# SNRs d, nr and hp of a trial on which an earlier Newton loop parked user 1
# although its marginal rate at a vanishing slot, ln(1 + hp) = 1.14e-7 nats,
# is above the level nu = 1.65e-8 nats of user 0: a sum rate 3 % below the
# optimum, tau = (0.0203, 0.9797).
PLANTED = np.array([[2.43e-6, 0.0]]), np.array([[0.615, 5.02e11]]), np.array([[1.14e-7]])


@pytest.mark.parametrize("scale", [1.0, 1e-3])
def test_slot_check_rejects_a_planted_wrong_allocation(scale):
    # The spread of a slot 1 % off the optimum (3e-10 bits) lies below the
    # absolute 1e-8 bits, and so does the slackness (1.4e-10 bits) at scale
    # 1e-3 of d and hp: only the bound relative to nu sees them.
    d, nr, hp = PLANTED[0] * scale, PLANTED[1], PLANTED[2] * scale
    alloc, why = block_slots(d, nr, hp[:, 0])
    assert not why and 0.0 < alloc.tau[0, 0] < 0.03
    off = alloc.tau * [[1.01, 1.0]]
    off[0, 1] = 1.0 - off[0, 0]
    for tau, name, absolute_sees in ((np.array([[1.0, 0.0]]), "slackness", scale == 1.0),
                                     (off, "spread", False)):
        _, why = tdma._checked_allocation(d.T, nr.T, hp[:, 0], tau.T)
        assert why[0].startswith(f"KKT {name} "), why
        spread, slack, _ = tdma._kkt_gaps(d.T, nr.T, hp[:, 0], tau.T)
        assert (max(spread[0], slack[0]) > tdma._KKT_ATOL) == absolute_sees


def _criterion_8_blocks():
    """The SNRs (d, nr, hp) of the criterion-8 draws (K=10, M_r=4, 1,000
    trials per cell, seed 8), in the blocks a one-worker sweep makes."""
    base = ScenarioConfig(K=10, M_r=4, P_max=10.0, P_r=1.0, alpha=1.0, seed=8)
    scens = [replace(base, alpha=a, P_r=db_to_linear(db))
             for a, db in product((0.1, 1.0), (0.0, 10.0, 20.0, 30.0, 40.0))]
    n, size = 1000, _BLOCK_BYTES // _trial_bytes(base.K, base.M_r)
    for lo in range(0, len(scens) * n, size):
        items = range(lo, min(lo + size, len(scens) * n))
        yield user_snrs(scaled_block([scens[i % len(scens)] for i in items],
                                     [i // len(scens) for i in items]))


def test_newton_steps_on_criterion_8_draws(monkeypatch):
    # each Newton pass of a block and its final KKT spread call _slot_derivs
    # once: 92 passes and 12 checks, exactly, so that a derivative taken
    # outside _slot_derivs would show
    calls = []
    monkeypatch.setattr(tdma, "_slot_derivs", lambda *a: calls.append(1) or _slot_derivs(*a))
    for snrs in _criterion_8_blocks():
        assert not block_slots(*snrs)[1]
    assert len(calls) == 92 + 12


def test_the_newton_stop_moves_sum_rates_by_rounding_only(monkeypatch):
    # A pass stops a slot that moved by at most _TAU_RTOL = 1e-8 of itself:
    # Newton converges quadratically, so the next step would be near
    # rounding. Solving on to 1e-12 moves no sum rate by more than 4 ulps.
    # The durations sum to one to rounding: without their final rescaling a
    # K = 2 trial of the 24 decades ends 8e-10 off the simplex.
    draws = [*_criterion_8_blocks(), *(_log_uniform_draws(K, -12.0, 12.0) for K in (2, 3, 6))]
    stopped = [block_slots(*snrs) for snrs in draws]
    monkeypatch.setattr(tdma, "_TAU_RTOL", 1e-12)
    for (alloc, why), snrs in zip(stopped, draws):
        ref, ref_why = block_slots(*snrs)
        assert not why and not ref_why
        ulps = np.abs(alloc.sum_rate - ref.sum_rate) / np.spacing(np.abs(ref.sum_rate))
        assert np.max(ulps) <= 4.0
        assert np.max(np.abs(alloc.tau.sum(axis=1) - 1.0)) <= 1e-15


def _row_test_draws():
    """SNRs (d, nr, hp) of 100 trials each: the criterion-8 cells at four
    shapes, whose users all have a direct link, and the first trials of the
    24-decade draws, with 40 % of users relay-only."""
    for K, M_r in ((3, 2), (10, 4), (16, 4), (50, 8)):
        base = ScenarioConfig(K=K, M_r=M_r, P_max=10.0, alpha=1.0, seed=8)
        scens = [replace(base, alpha=a, P_r=db_to_linear(db))
                 for a, db in product((0.1, 1.0), (0.0, 10.0, 20.0, 30.0, 40.0))]
        trials = [i // len(scens) for i in range(10 * len(scens))]
        yield user_snrs(scaled_block(scens * 10, trials))
    for K in (2, 3, 6):
        yield tuple(x[:100] for x in _log_uniform_draws(K, -12.0, 12.0))


def test_a_block_row_solved_alone_is_bit_identical():
    # a trial's start, steps and stop use its own row alone, and sums over
    # users take one fixed order, so each row of a block equals its
    # solution as a block of one and in a split of the block, 1 + 69 + the
    # rest: numpy's own sum over the users of a (K, N) array changes its
    # order with N, and would fail here from K = 8 up. The relay-only slots
    # of the 24-decade draws take their linear steps and parking by flat
    # index into the live trials, which must not mix rows either.
    for d, nr, hp in _row_test_draws():
        K = d.shape[1]
        alloc, why = block_slots(d, nr, hp)
        assert not why
        rows = [slice(j, j + 1) for j in range(len(hp))]
        for parts in (rows, [slice(0, 1), slice(1, 70), slice(70, None)]):
            solved = [block_slots(d[part], nr[part], hp[part]) for part in parts]
            assert not any(why_part for _, why_part in solved)
            for name, field in vars(alloc).items():
                joined = np.concatenate([getattr(part, name) for part, _ in solved])
                assert np.array_equal(joined, field), (K, len(parts), name)


@pytest.mark.parametrize("alpha, P_max", [(1.0, 10.0), (1e-6, 1e-6)])
def test_zero_relay_power_slots_proportional_to_direct_snr(monkeypatch, alpha, P_max):
    # with P_r = 0 user k's rate is tau*log2(1 + d_k/tau), so equal marginal
    # rates mean equal d_k/tau_k: tau_k = d_k / sum(d). At -60 dB every rate
    # is ~1e-19 bits and the marginal rates ~1e-38. That is the start, so a
    # block of these trials ends in one pass.
    scen = ScenarioConfig(K=10, M_r=4, alpha=alpha, P_max=P_max, P_r=0.0, seed=77)
    for t in range(200):
        c = sample_channel(scen, trial_rng(77, t))
        d = np.abs(c.h_d) ** 2 * c.P
        tau = optimize_slots(c).tau
        assert np.max(np.abs(tau - d / d.sum())) <= 1e-12, t
    d, nr, hp = user_snrs(scaled_block([scen] * 200, range(200)))
    monkeypatch.setattr(tdma, "_MAX_ITER", 1)
    alloc, why = block_slots(d, nr, hp)
    assert not why, why
    assert np.max(np.abs(alloc.tau - d / d.sum(axis=1, keepdims=True))) <= 1e-12


def test_kkt_slackness_flags_a_starved_user():
    # with direct links the marginal rate at a vanishing slot is unbounded,
    # so a user left without a slot violates complementary slackness
    c = ChannelRealization(
        h_r=np.ones((2, 1)), h_d=np.ones(2), h=np.ones(1), P=[1.0, 1.0], P_r=1.0
    )
    assert kkt_slackness(c, [0.5, 0.5]) == 0.0
    assert kkt_slackness(c, [0.0, 1.0]) == np.inf


@pytest.mark.parametrize(
    "tau", [[0.0, 0.0, 0.0], [0.5, 0.5], [0.2, 0.3, 0.5, 0.0], [0.5, np.nan, 0.5],
            [-0.5, 1.0, 0.5], [[0.5, 0.5, 0.0]]],
)
def test_kkt_slackness_validates_tau(make_channel, tau):
    with pytest.raises(ValidationError):
        kkt_slackness(make_channel(K=3), tau)


def test_kkt_slackness_validates_a_blocks_tau(make_channel):
    # a block takes one row of K durations per trial, each with a slot open
    c = [make_channel(seed=s, K=3) for s in (1, 2)]
    blk = ChannelBlock(*(np.stack([getattr(r, name) for r in c])
                         for name in ("h_r", "h_d", "h", "P", "P_r")))
    tau = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
    assert kkt_slackness(blk, tau).shape == (2,)
    for bad in (tau[0], tau[:1], tau[:, :2], [[0.5, 0.5, 0.0], [0.0, 0.0, 0.0]],
                [[0.5, 0.5, 0.0], [0.5, 1.5, 0.0]]):
        with pytest.raises(ValidationError):
            kkt_slackness(blk, bad)


def test_sum_rate_invariant_to_user_relabeling(make_channel):
    c = make_channel(seed=7, K=4, M_r=2)
    perm = [2, 0, 3, 1]
    cp = ChannelRealization(
        h_r=c.h_r[perm], h_d=c.h_d[perm], h=c.h, P=c.P[perm], P_r=c.P_r
    )
    a1 = optimize_slots(c)
    a2 = optimize_slots(cp)
    assert a1.sum_rate == pytest.approx(a2.sum_rate, abs=1e-10)
    assert np.allclose(a1.tau[perm], a2.tau, atol=1e-6)


def test_zero_power_user_is_excluded():
    c = ChannelRealization(
        h_r=np.ones((2, 1)), h_d=np.ones(2), h=np.ones(1), P=[0.0, 2.0], P_r=1.0
    )
    alloc = optimize_slots(c)
    assert alloc.tau[0] == 0.0
    assert alloc.tau[1] == 1.0
    assert alloc.per_user_rate[0] == 0.0


def test_all_degenerate_users():
    c = ChannelRealization(
        h_r=np.ones((2, 1)), h_d=np.ones(2), h=np.ones(1), P=[0.0, 0.0], P_r=1.0
    )
    alloc = optimize_slots(c)
    assert alloc.sum_rate == 0.0
    assert abs(alloc.tau.sum() - 1.0) <= 1e-9


def test_a_flat_marginal_rate_keeps_the_only_slot():
    # relay-only user with nr / hp ~ 4e16: R' is flat to rounding, and R'(1)
    # is not below R'(0) = ln(1 + hp) in floats; the slot must stay open
    c = ChannelRealization(h_r=[[244365 + 580972j]], h_d=[0.0], h=[0.234 - 0.921j],
                           P=[82770.0], P_r=1.0)
    alloc = optimize_slots(c)
    assert np.array_equal(alloc.tau, [1.0])
    assert alloc.sum_rate == pytest.approx(single_user_rate(c, 0), rel=1e-15)


def test_corner_solution_pins_weak_user_to_zero():
    # user 0 has no direct link, so its marginal rate stays finite as its
    # slot vanishes; user 1 dominates and should take the whole frame
    cases = [
        ([[1.0], [1.0]], [0.0, 10.0], [1.0], [1.0, 10.0]),
        # user 0's marginal rate at a vanishing slot (5.98 bits) lies just
        # below user 1's at a full slot (6.97 bits)
        ([[1.881], [106.387]], [0.0, 14.393], [7.888], [1.0, 1.0]),
    ]
    for h_r, h_d, h, P in cases:
        c = ChannelRealization(h_r=h_r, h_d=h_d, h=h, P=P, P_r=1.0)
        alloc = optimize_slots(c)
        assert alloc.kkt_spread <= 1e-10
        best = grid_search(c, step=1e-4)
        assert alloc.sum_rate >= best - 1e-4
        assert alloc.tau[0] == 0.0
        assert alloc.tau[1] == 1.0


# --------------------------------------------------------------------------
# asymptotics
# --------------------------------------------------------------------------

def test_asymptotic_single_user(make_channel):
    c = make_channel(seed=8, K=1, M_r=2)
    res = asymptotic_allocation(c)
    assert res.tau_inf[0] == pytest.approx(1.0)
    assert not res.joint_wins
    assert res.joint_rate_inf == pytest.approx(res.rate_inf, abs=1e-9)


def test_asymptotic_no_direct_links_tdma_wins(make_channel):
    for seed in range(50):
        c = make_channel(seed=seed, K=4, M_r=(1, 2, 4)[seed % 3], alpha=0.0)
        assert not joint_beats_tdma_asymptotic(c)
        res = asymptotic_allocation(c)
        assert not res.joint_wins
        assert res.joint_rate_inf <= res.rate_inf + 1e-9


def test_asymptotic_matches_high_power_optimization(make_channel):
    for seed in range(5):
        c = make_channel(seed=seed, K=3, M_r=4, P_r=1e8)
        alloc = optimize_slots(c)
        assert alloc.kkt_spread <= 1e-10
        res = asymptotic_allocation(c)
        assert np.max(np.abs(alloc.tau - res.tau_inf)) <= 1e-3
        assert abs(alloc.sum_rate - res.rate_inf) <= 1e-3


def test_predicate_agrees_with_rate_comparison(make_channel):
    disagreements = 0
    for seed in range(300):
        K = (1, 2, 3, 5)[seed % 4]
        c = make_channel(seed=seed, K=K, M_r=(1, 2, 4)[seed % 3],
                         alpha=(0.1, 0.5, 1.0)[seed % 3])
        res = asymptotic_allocation(c)
        gap = res.joint_rate_inf - res.rate_inf
        if abs(gap) > 1e-9:
            disagreements += joint_beats_tdma_asymptotic(c) != (gap > 0)
    assert disagreements == 0


def test_one_relay_antenna_joint_wins_with_two_users():
    # At M_r = 1, lam_max(R + W) - tr R = W = sR - T, a sum of P_j P_k |w_jk|^2
    # terms, so joint relaying wins whenever two users transmit. The tie
    # guard must be relative only: an absolute floor called draws with
    # tr R ~ 4e-4 and W up to 8.6e-13 ties (14 of 2,000 at K = 2, alpha = 0.01,
    # P_max = -20 dB), although no rounding can make W that large.
    for K in (2, 3, 10, 50):
        base = ScenarioConfig(K=K, M_r=1, seed=3)
        cfg = SweepConfig(base, (-20.0, 0.0, 10.0, 40.0), alpha_values=(0.01, 0.1, 1.0),
                          n_trials=2000)
        rows = estimate_superiority_probability(cfg).rows
        assert [r.probability for r in rows] == [1.0] * 12, K


def test_the_tie_guard_is_tens_of_ulps_wide():
    # lambda_max(R + W) must pass tr R by 64 ulps for joint relaying to win.
    # A K = 1 tie, W = 0, errs by at most 12 ulps, and stays TDMA's at every
    # shape and power; at M_r = 1 and K = 2 a W of 1e-13 tr R (450 ulps) is a
    # win. A guard of 1e-12 tr R (about 4,500 ulps) called that draw a tie,
    # and 130 of the 2,000 seed-3 draws at alpha = 0.001, P_max = -40 dB,
    # although W > 0 on every one.
    one = ChannelRealization(h_r=[[1.0]], h_d=[0.0], h=[1.0], P=[2.0], P_r=1.0)
    two = ChannelRealization(h_r=[[1.0], [1.0]], h_d=[0.0, np.sqrt(2e-13)], h=[1.0],
                             P=[1.0, 1.0], P_r=1.0)
    assert not asymptotic_allocation(one).joint_wins and asymptotic_allocation(two).joint_wins
    base = ScenarioConfig(K=2, M_r=1, seed=3)
    cfg = SweepConfig(base, (-40.0,), alpha_values=(0.001,), n_trials=2000)
    assert estimate_superiority_probability(cfg).rows[0].probability >= 0.998
    for M_r in (1, 2, 4, 8):
        cfg = SweepConfig(replace(base, K=1, M_r=M_r), (-40.0, 0.0, 40.0, 80.0),
                          alpha_values=(0.0, 0.001, 1.0), n_trials=500)
        assert {r.probability for r in estimate_superiority_probability(cfg).rows} == {0.0}


def test_the_superiority_index_scales_as_alpha_squared_p_max():
    # R scales as t and W as (alpha t)^2, so mu at (alpha, t) is alpha^2 t
    # times the unit draw's mu. Only the guard g, 64 ulps of tr R, scales by
    # rounding, by up to a factor 2, and moves mu by about g over the gap
    # tr R - lambda_max(R): on the draws whose gap is a tenth of tr R or
    # more, mu scales to 1e-12 of itself.
    for K, M_r in ((2, 2), (3, 8), (10, 4), (50, 8), (100, 2)):
        c = sample_block(ScenarioConfig(K=K, M_r=M_r, seed=4), np.arange(50))
        unit = compute_aggregates(c)
        mu = tdma.superiority_index(unit)
        assert np.all(mu > 0.0), (K, M_r)
        tr_R = unit.nr.sum(axis=-1)
        wide = tr_R - dominant_eigenvalue(unit.R) >= 0.1 * tr_R
        assert wide.sum() >= 15, (K, M_r)
        for alpha, t in product((1e-3, 0.3, 1.0, 7.0), (1e-4, 1.0, 10.0, 1e8)):
            got = tdma.superiority_index(scale_aggregates(c, unit, ..., alpha, t))
            want = alpha * alpha * t * mu
            assert np.all(np.abs(got - want)[wide] <= 1e-12 * want[wide]), (K, M_r, alpha, t)


def test_the_superiority_index_is_zero_without_cross_terms():
    # W = 0 for K = 1, for alpha = 0 and when one user alone has power: mu
    # is 0 and TDMA wins, however small tr R - lambda_max(R) is
    for M_r in (1, 4):
        c = sample_block(ScenarioConfig(K=1, M_r=M_r, seed=2), np.arange(30))
        agg = compute_aggregates(c)
        assert np.array_equal(tdma.superiority_index(agg), np.zeros(30))
        assert not block_asymptotic(agg).joint_wins.any()
        c = sample_block(ScenarioConfig(K=4, M_r=M_r, seed=2), np.arange(30))
        agg = scale_aggregates(c, compute_aggregates(c), ..., 0.0, 10.0)
        assert np.array_equal(tdma.superiority_index(agg), np.zeros(30))
        assert not block_asymptotic(agg).joint_wins.any()
    alone = ChannelRealization(h_r=[[1.0, 1j, 0.5], [0.3, -1.0, 2j]], h_d=[1.0, 2.0],
                               h=[1.0, 0.0, 1.0], P=[3.0, 0.0], P_r=1.0)
    agg = compute_aggregates(alone)
    assert tdma.superiority_index(agg) == 0.0 and not asymptotic_allocation(alone).joint_wins


def test_the_superiority_index_takes_parallel_relay_links():
    # Parallel h_r make R rank one, so B = (tr R + g) I - R has an
    # eigenvalue of about g and its Cholesky factor may not exist; at M_r = 1
    # every h_r is parallel and B is g alone. W then lies along R's one
    # direction and lambda_max(R + W) = tr R + tr W: no case raises, and
    # the verdict is that comparison's wherever it is clear of the guard.
    rng = np.random.default_rng(6)
    for K, M_r in ((2, 1), (5, 1), (2, 3), (6, 8)):
        for scale in (1e-9, 1e-6, 1e-3, 1.0):
            v = rng.standard_normal(M_r) + 1j * rng.standard_normal(M_r)
            gains = rng.standard_normal((40, K)) + 1j * rng.standard_normal((40, K))
            h_d = scale * (rng.standard_normal((40, K)) + 1j * rng.standard_normal((40, K)))
            blk = ChannelBlock(h_r=gains[..., None] * v, h_d=h_d, h=np.ones((40, M_r)),
                               P=rng.uniform(size=(40, K)), P_r=np.ones(40))
            agg = compute_aggregates(blk)
            mu = tdma.superiority_index(agg)
            assert not np.isnan(mu).any(), (K, M_r, scale)
            lam, tr_R = dominant_eigenvalue(agg.R + agg.W), agg.nr.sum(axis=-1)
            clear = np.abs(lam - tr_R) > 1e3 * np.spacing(tr_R)
            assert clear.sum() >= (20 if scale >= 1e-6 else 0), (K, M_r, scale)
            assert np.array_equal((mu > 1.0)[clear], (lam > tr_R)[clear]), (K, M_r, scale)


def test_the_superiority_index_is_nan_where_the_guard_is_passed():
    # lambda_max(R) can pass tr R + g only by rounding; B is then not
    # positive definite, mu is NaN and the verdict TDMA's, with no error.
    # Here R's lambda_max, 2, passes a tr R of 1.5 given in nr.
    R = np.array([[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 0.0]]])
    W = np.array([[[1.0, 0.5], [0.5, 1.0]]] * 2)
    agg = ChannelAggregates(s=np.ones(2), R=R, T=np.zeros_like(W), W=W,
                            d=np.ones((2, 2)), nr=np.array([[1.0, 1.0], [1.0, 0.5]]),
                            hp=np.ones(2))
    mu = tdma.superiority_index(agg)
    assert mu[0] == pytest.approx(1.5) and np.isnan(mu[1])
    assert block_asymptotic(agg).joint_wins.tolist() == [True, False]


def test_the_prob_verdict_is_monotone_in_alpha_squared_p_max():
    # a draw's verdict is alpha^2 P_max mu > 1 for its one mu: once joint
    # relaying wins at some alpha^2 P_max, it wins at every larger one
    base = ScenarioConfig(K=3, M_r=2, seed=12)
    cells = [replace(base, alpha=a, P_max=db_to_linear(db))
             for a in (1e-3, 0.1, 0.5, 1.0, 10.0) for db in (-40.0, -20.0, 0.0, 20.0, 40.0)]
    item = np.arange(200 * len(cells))
    powers = np.array([[s.alpha, s.P_max, s.P_r] for s in cells]).T.copy()
    wins, _ = harness._prob_block(base, powers, item // len(cells), item % len(cells))
    wins = wins.reshape(200, len(cells))
    c = np.array([s.alpha * (s.alpha * s.P_max) for s in cells])
    order = np.argsort(c, kind="stable")
    assert np.all(np.diff(wins[:, order].astype(int), axis=1) >= 0)
    assert 0 < wins.mean() < 1


def test_asymptotic_all_zero_weights():
    c = ChannelRealization(
        h_r=np.zeros((2, 1)), h_d=np.zeros(2), h=np.ones(1), P=[1.0, 1.0], P_r=1.0
    )
    res = asymptotic_allocation(c)
    assert np.allclose(res.tau_inf, 0.5)
    assert res.rate_inf == 0.0
    assert not res.joint_wins
