import json

import numpy as np
import pytest

from marcsim import (
    ChannelRealization,
    asymptotic_allocation,
    compute_aggregates,
    lower_bound,
    optimize_slots,
    realization_from_json,
    relay_matrix_ub1,
    relay_tx_power,
    sum_rate_closed,
    sum_rate_logdet,
)
from marcsim.numerics import quadratic_form


def rand_f(rng, m):
    return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))


# --------------------------------------------------------------------------
# sum rate formulas
# --------------------------------------------------------------------------

def test_zero_power_zero_rate(rng):
    c = ChannelRealization(
        h_r=np.ones((2, 2)), h_d=np.ones(2), h=np.ones(2), P=[0.0, 0.0], P_r=1.0
    )
    assert sum_rate_logdet(rand_f(rng, 2), c) == 0.0


def test_direct_only_awgn_capacity():
    # F = 0, one user: plain AWGN capacity of the direct link, with the
    # document's N0 folded into the power
    c = realization_from_json(json.dumps(
        {"h_r": [[[1, 0]]], "h_d": [[2, 0]], "h": [[1, 0]], "P": [3.0], "P_r": 1.0, "N0": 2.0}))
    assert sum_rate_logdet(np.zeros((1, 1)), c) == pytest.approx(np.log2(1 + 4 * 3 / 2))


def test_zero_relay_matrix_gives_log_one_plus_s(make_channel):
    c = make_channel(seed=4, K=4, M_r=3)
    agg = compute_aggregates(c)
    assert sum_rate_closed(np.zeros((3, 3)), c) == pytest.approx(np.log2(1 + agg.s))


@pytest.mark.parametrize("K,M_r", [(1, 1), (2, 1), (3, 2), (4, 4), (5, 3)])
def test_logdet_equals_closed_form(make_channel, rng, K, M_r):
    for seed in range(6):
        c = make_channel(seed=seed, K=K, M_r=M_r)
        F = rand_f(rng, M_r)
        r1 = sum_rate_logdet(F, c)
        r2 = sum_rate_closed(F, c)
        assert abs(r1 - r2) <= 1e-10 * max(1.0, r1), f"logdet {r1} vs closed {r2}"


def test_logdet_of_a_single_user_does_not_cancel():
    # K = M_r = 1: the 2x2 Gram term of det(I + sum) is exactly zero, so a
    # form that subtracts |m12|^2 from saa*sbb is 1.3e-8 bits off here
    c = ChannelRealization(h_r=[[889 - 934j]], h_d=[-379 + 256j], h=[4528 + 742j],
                           P=[607.0], P_r=100.0)
    b = lower_bound(c)
    assert sum_rate_logdet(b.f_lower, c) == pytest.approx(b.r_lower, rel=1e-12, abs=0.0)


def test_closed_form_equals_pre_identity_variant(make_channel, rng):
    # same rate through (1+s)R - T instead of R + W
    for seed in range(6):
        c = make_channel(seed=seed, K=3, M_r=2)
        agg = compute_aggregates(c)
        F = rand_f(rng, 2)
        fh = F.conj().T @ c.h
        r = 1.0 + np.linalg.norm(fh) ** 2
        M = (1.0 + agg.s) * agg.R - agg.T
        variant = np.log2(1.0 + agg.s + quadratic_form(fh, M) / r)
        assert sum_rate_closed(F, c) == pytest.approx(variant, abs=1e-10)


# --------------------------------------------------------------------------
# first upper bound and its relay matrix
# --------------------------------------------------------------------------

def test_ub1_matrix_scalar_hand_case(scalar_ones_channel):
    fm = relay_matrix_ub1(scalar_ones_channel)
    assert fm.F[0, 0] == pytest.approx(1 / np.sqrt(2))
    assert fm.tx_power == pytest.approx(1.0, rel=1e-8)


def test_ub1_matrix_zero_relay_power(make_channel):
    c = make_channel(P_r=0.0)
    assert np.all(relay_matrix_ub1(c).F == 0)


def test_ub1_matrix_meets_power_with_equality(make_channel):
    for seed in range(8):
        c = make_channel(seed=seed, K=3, M_r=3, P_r=5.0)
        fm = relay_matrix_ub1(c)
        assert fm.tx_power == pytest.approx(5.0, rel=1e-8)
        assert relay_tx_power(fm.F, c) == pytest.approx(5.0, rel=1e-8)


def test_ub1_matrix_rank_one(make_channel):
    for seed in range(5):
        c = make_channel(seed=seed, K=4, M_r=4)
        sv = np.linalg.svd(relay_matrix_ub1(c).F, compute_uv=False)
        assert sv[1] <= 1e-10 * sv[0]


def test_upper_bound_1_hand_value():
    c = ChannelRealization(h_r=[[1.0]], h_d=[0.0], h=[1.0], P=[1.0], P_r=1.0)
    assert lower_bound(c).r_up1 == pytest.approx(np.log2(4 / 3), abs=1e-12)


def test_upper_bound_1_no_feasible_scalar_beats_it(rng):
    # dense scan over scalar relay gains stays below the bound
    c = ChannelRealization(h_r=[[1.0]], h_d=[0.0], h=[1.0], P=[1.0], P_r=1.0)
    bound = lower_bound(c).r_up1
    best = 0.0
    for f in np.linspace(-1.5, 1.5, 2001):
        F = np.array([[f]], dtype=complex)
        if relay_tx_power(F, c) <= 1.0 + 1e-12:
            best = max(best, sum_rate_logdet(F, c))
    assert best <= bound + 1e-9


def test_upper_bound_1_zero_relay_power(make_channel):
    c = make_channel(seed=6, P_r=0.0)
    agg = compute_aggregates(c)
    assert lower_bound(c).r_up1 == pytest.approx(np.log2(1 + agg.s))


def test_upper_bound_1_dominates_its_own_matrix(make_channel):
    for seed in range(10):
        c = make_channel(seed=seed, K=3, M_r=2)
        assert lower_bound(c).r_up1 >= sum_rate_logdet(relay_matrix_ub1(c), c) - 1e-9


# --------------------------------------------------------------------------
# second upper bound
# --------------------------------------------------------------------------

def test_upper_bound_2_single_user(make_channel):
    c = make_channel(seed=8, K=1, M_r=3)
    agg = compute_aggregates(c)
    expected = np.log2(1 + agg.s + np.linalg.norm(c.h_r[0]) ** 2 * c.P[0])
    assert lower_bound(c).r_up2 == pytest.approx(expected, rel=1e-10)


def test_upper_bound_2_zero_channels():
    c = ChannelRealization(
        h_r=np.zeros((2, 2)), h_d=np.zeros(2), h=np.zeros(2), P=[1.0, 1.0], P_r=1.0
    )
    assert lower_bound(c).r_up2 == 0.0


def test_upper_bound_2_tight_at_huge_relay_power(make_channel):
    for seed in range(5):
        c = make_channel(seed=seed, K=3, M_r=2, P_r=1e6)
        b = lower_bound(c)
        assert b.r_up2 - b.r_lower <= 1e-4


# --------------------------------------------------------------------------
# achievable rank-one beamformer
# --------------------------------------------------------------------------

def test_lower_matrix_single_user_direction_matches_ub1(make_channel):
    c = make_channel(seed=9, K=1, M_r=3)
    f1 = relay_matrix_ub1(c).F
    f2 = lower_bound(c).f_lower
    # same rank-one direction up to a real scale (W = 0 for K = 1)
    ratio = f2.F.ravel() / f1.ravel()
    assert np.allclose(ratio, ratio[0], atol=1e-9)


def test_lower_matrix_zero_relay_power(make_channel):
    c = make_channel(seed=10, P_r=0.0)
    b = lower_bound(c)
    assert b.gamma == 0.0
    assert np.all(b.f_lower.F == 0)


def test_lower_matrix_power_equality(make_channel):
    for seed in range(8):
        c = make_channel(seed=seed, K=3, M_r=3, P_r=7.0)
        b = lower_bound(c)
        assert b.f_lower.tx_power == pytest.approx(7.0, rel=1e-8)
        assert b.gamma > 0


def test_lower_bound_scalar_hand_value(scalar_ones_channel):
    b = lower_bound(scalar_ones_channel)
    assert b.r_lower == pytest.approx(np.log2(7 / 3), abs=1e-12)
    assert b.gamma**2 == pytest.approx(0.5, rel=1e-12)


def test_lower_bound_zero_relay_power(make_channel):
    c = make_channel(seed=11, P_r=0.0)
    agg = compute_aggregates(c)
    assert lower_bound(c).r_lower == pytest.approx(np.log2(1 + agg.s))


def test_lower_bound_achieved_by_its_matrix(make_channel):
    for seed in range(10):
        c = make_channel(seed=seed, K=4, M_r=3)
        b = lower_bound(c)
        assert abs(b.r_lower - sum_rate_logdet(b.f_lower, c)) <= 1e-9


def test_bound_ordering_random_instances(make_channel):
    for seed in range(200):
        K = 1 + seed % 5
        M_r = (1, 2, 4)[seed % 3]
        c = make_channel(seed=seed, K=K, M_r=M_r, alpha=(0.0, 0.3, 1.0)[seed % 3])
        b = lower_bound(c)
        assert b.r_lower <= min(b.r_up1, b.r_up2) + 1e-9
        assert b.r_lower >= 0


def test_rates_monotone_in_relay_power(make_channel):
    from dataclasses import replace

    c = make_channel(seed=12, K=3, M_r=2)
    prev_lower, prev_up1 = -1.0, -1.0
    for pr in np.logspace(-2, 4, 10):
        b = lower_bound(replace(c, P_r=float(pr)))
        assert b.r_lower >= prev_lower - 1e-10
        assert b.r_up1 >= prev_up1 - 1e-10
        prev_lower, prev_up1 = b.r_lower, b.r_up1


def test_eigvec_phase_invariance(make_channel, rng):
    c = make_channel(seed=13, K=3, M_r=3)
    b = lower_bound(c)
    base = sum_rate_logdet(b.f_lower, c)
    hn = np.linalg.norm(c.h)
    # rebuild F with the eigen-direction rotated by an arbitrary phase
    from marcsim.numerics import dominant_eigenpair

    agg = compute_aggregates(c)
    _, v = dominant_eigenpair(agg.R + agg.W)
    for theta in (0.3, 1.2, 2.9):
        F = b.gamma * np.outer(c.h / hn, (np.exp(1j * theta) * v).conj())
        assert sum_rate_logdet(F, c) == pytest.approx(base, abs=1e-10)


def test_degenerate_relay_receiver_channel():
    # h = 0: no link to beamform onto, so both rank-one matrices are F = 0,
    # the relay adds nothing, and the power-unconstrained bound stays finite
    c = ChannelRealization(
        h_r=[[1.0, 0.5], [0.2, 1.0]], h_d=[1.0, 0.5j], h=np.zeros(2), P=[1.0, 2.0], P_r=1.0
    )
    b = lower_bound(c)
    assert np.all(b.f_lower.F == 0) and b.f_lower.tx_power == 0.0
    assert np.all(relay_matrix_ub1(c).F == 0)
    direct = np.log2(1 + compute_aggregates(c).s)
    assert b.r_lower == b.r_up1 == pytest.approx(direct, rel=1e-15)
    assert np.isfinite(b.r_up2) and b.r_up2 >= b.r_lower


def test_diagnostic_rate_stays_below_bounds(make_channel):
    for seed in range(10):
        c = make_channel(seed=seed, K=3, M_r=2)
        b = lower_bound(c)
        assert sum_rate_logdet(relay_matrix_ub1(c), c) <= min(b.r_up1, b.r_up2) + 1e-9


@pytest.mark.parametrize("P_r", [0.0, 10.0, 1e8])
@pytest.mark.parametrize("h_d", [(0.0, 0.0), (1.0, 1j)], ids=["no-direct", "direct"])
def test_repeated_top_eigenvalues(h_d, P_r):
    # h_r = I and equal powers give R = 2I, whose top eigenvalue is repeated;
    # without direct links W = 0, so R + W has a repeated one too
    c = ChannelRealization(h_r=np.eye(2), h_d=h_d, h=[1.0, 1.0], P=[2.0, 2.0], P_r=P_r)
    agg = compute_aggregates(c)
    assert np.array_equal(agg.R, 2.0 * np.eye(2)) and (any(h_d) or not agg.W.any())
    b = lower_bound(c)
    assert np.all(np.isfinite([b.r_lower, b.r_up1, b.r_up2]))
    assert 0.0 <= b.r_lower <= b.r_up_min + 1e-9
    assert abs(b.r_lower - sum_rate_logdet(b.f_lower, c)) <= 1e-12
    assert abs(b.f_lower.tx_power - P_r) <= 1e-12 * P_r
    optimize_slots(c)
    asymptotic_allocation(c)
