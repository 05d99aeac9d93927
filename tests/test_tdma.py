import numpy as np
import pytest

from marcsim import (
    ChannelRealization,
    asymptotic_allocation,
    joint_beats_tdma_asymptotic,
    kkt_slackness,
    lower_bound,
    optimize_slots,
    relay_tx_power,
    single_user_rate,
    single_user_relay_matrix,
    sum_rate_logdet,
    user_rate,
    user_rate_derivative,
)
from marcsim.errors import ValidationError


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
    """Brute-force simplex maximization of the TDMA sum rate (K <= 3)."""
    K = c.K
    if K == 1:
        return user_rate(c, 0, 1.0), np.array([1.0])
    t = np.arange(0.0, 1.0 + step / 2, step)
    if K == 2:
        tot = user_rate(c, 0, t) + user_rate(c, 1, 1.0 - t)
        i = int(np.argmax(tot))
        return float(tot[i]), np.array([t[i], 1.0 - t[i]])
    T1, T2 = np.meshgrid(t, t, indexing="ij")
    mask = T1 + T2 <= 1.0 + 1e-12
    T1, T2 = T1[mask], T2[mask]
    T3 = np.clip(1.0 - T1 - T2, 0.0, 1.0)
    tot = user_rate(c, 0, T1) + user_rate(c, 1, T2) + user_rate(c, 2, T3)
    i = int(np.argmax(tot))
    return float(tot[i]), np.array([T1[i], T2[i], T3[i]])


def test_two_identical_users_split_evenly():
    hr = np.array([[0.6 + 0.2j, -0.3j], [0.6 + 0.2j, -0.3j]])
    c = ChannelRealization(
        h_r=hr, h_d=[0.5 + 0.1j, 0.5 + 0.1j], h=[1.0, 0.4j], P=[2.0, 2.0], P_r=3.0
    )
    alloc = optimize_slots(c, 1e-10)
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
        alloc = optimize_slots(c, 1e-8)
        best, tau = grid_search(c)
        assert alloc.sum_rate >= best - 1e-4, (
            f"iterative {alloc.sum_rate} below grid {best}"
        )
        assert abs(alloc.sum_rate - best) <= 1e-4
        assert alloc.kkt_spread <= 1e-8


# Extreme but valid inputs: no relay power, no direct links, 80 dB relay
# power, a single scalar user, and far more users than relay antennas.
EXTREME_CASES = [
    dict(K=5, M_r=2, P_r=0.0),
    dict(K=5, M_r=2, alpha=0.0),
    dict(K=5, M_r=2, P_r=1e8),
    dict(K=1, M_r=1),
    dict(K=50, M_r=2),
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


def test_kkt_slackness_flags_a_starved_user():
    # with direct links the marginal rate at a vanishing slot is unbounded,
    # so a user left without a slot violates complementary slackness
    c = ChannelRealization(
        h_r=np.ones((2, 1)), h_d=np.ones(2), h=np.ones(1), P=[1.0, 1.0], P_r=1.0
    )
    assert kkt_slackness(c, [0.5, 0.5]) == 0.0
    assert kkt_slackness(c, [0.0, 1.0]) == np.inf


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
        alloc = optimize_slots(c, 1e-10)
        best, tau = grid_search(c, step=1e-4)
        assert alloc.sum_rate >= best - 1e-4
        assert alloc.tau[0] == 0.0
        assert alloc.tau[1] == 1.0


def test_epsilon_validation(make_channel):
    with pytest.raises(ValidationError):
        optimize_slots(make_channel(), epsilon=0.0)


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
        alloc = optimize_slots(c, 1e-10)
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


def test_asymptotic_all_zero_weights():
    c = ChannelRealization(
        h_r=np.zeros((2, 1)), h_d=np.zeros(2), h=np.ones(1), P=[1.0, 1.0], P_r=1.0
    )
    res = asymptotic_allocation(c)
    assert np.allclose(res.tau_inf, 0.5)
    assert res.rate_inf == 0.0
    assert not res.joint_wins
