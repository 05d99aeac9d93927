"""Property tests of both table evaluators over the sampler's whole domain.

Hypothesis draws a scenario of K 1-12 users and M_r 1-6 relay antennas, a
seed and up to three trial indices, and several cells of alpha (0, or 1e-8
to 1e6), P_max (1e-6 to 1e8) and P_r (0, or 1e-6 to 1e8). Every item of a
block must pass every check the kernels make, since a failed check stops a
run: no failure message, finite metrics, r_lower <= r_up_min + 1e-9 and slot
durations on the simplex. The same holds with users planted at zero power,
which the sampler never draws, and they get no slot. On single draws of the
same domain, r_lower is the log-det rate of its own relay matrix. Beyond the
sampler's domain, the slot optimizer reaches the level on blocks of SNRs
that lie up to 30 decades apart. The examples are derandomized, so a run is
reproducible, and no example database is kept.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import marcsim.harness as harness_mod
from marcsim import ScenarioConfig, lower_bound, sample_channel, sum_rate_logdet, trial_rng
from marcsim.harness import METRICS
from marcsim.tdma import _SIMPLEX_ATOL, block_slots

PROPERTY = settings(max_examples=1000, derandomize=True, database=None, deadline=None)


def _power(lo: float, hi: float, zero: bool):
    """10^x for x uniform on [lo, hi], and 0 too when ``zero``."""
    powers = st.floats(lo, hi).map(lambda x: 10.0 ** x)
    return st.one_of(st.just(0.0), powers) if zero else powers


def _cell():
    """alpha, P_max and P_r of a cell of the sampler's domain."""
    return st.tuples(_power(-8.0, 6.0, True), _power(-6.0, 8.0, False), _power(-6.0, 8.0, True))


@st.composite
def blocks(draw, min_users: int = 1):
    """An evaluator's arguments: the base scenario, the (3, cells) array of
    the cells' alpha, P_max and P_r, and each item's trial and cell index,
    trial by trial over every cell, as _trial_block lists them."""
    scen = ScenarioConfig(K=draw(st.integers(min_users, 12)), M_r=draw(st.integers(1, 6)),
                          seed=draw(st.integers(0, 2**64 - 1)))
    trials = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3, unique=True))
    cells = draw(st.lists(_cell(), min_size=2, max_size=4))
    items = np.arange(len(trials) * len(cells))
    return (scen, np.array(cells).T.copy(), np.array(trials)[items // len(cells)],
            items % len(cells))


@PROPERTY
@given(blocks())
def test_every_sweep_item_passes_its_checks(block):
    allocs, real = [], harness_mod.block_slots

    def recorded(*args):
        allocs.append(real(*args))
        return allocs[-1]

    with mock.patch.object(harness_mod, "block_slots", recorded):
        values, why = harness_mod._sweep_block(*block)
    assert not why, why
    assert np.isfinite(values).all()
    lower, up_min = (values[:, METRICS.index(m)] for m in ("joint_lower", "joint_up_min"))
    assert (lower <= up_min + 1e-9).all(), np.max(lower - up_min)
    ((alloc, _),) = allocs
    assert (alloc.tau >= 0.0).all()
    assert (np.abs(alloc.tau.sum(axis=1) - 1.0) <= _SIMPLEX_ATOL).all()


@PROPERTY
@given(blocks())
def test_every_superiority_item_passes_its_checks(block):
    wins, why = harness_mod._prob_block(*block)
    assert not why, why
    assert wins.dtype == bool and wins.shape == block[2].shape


@st.composite
def silenced(draw):
    """A block of at least two users, as ``blocks`` draws it, and a set of
    users, not all of them, planted at zero power in every draw."""
    block = draw(blocks(min_users=2))
    K = block[0].K
    return block, draw(st.lists(st.integers(0, K - 1), min_size=1, max_size=K - 1, unique=True))


@PROPERTY
@given(silenced())
def test_users_at_zero_power_get_no_slot(case):
    # A user at zero power carries no rate, on either hop: the bounds stay
    # finite and ordered, no check fails, and the user gets no slot, except
    # where no user carries rate (alpha = 0 and P_r = 0), where the split is
    # uniform.
    block, zero = case
    allocs, real_slots, real_sample = [], harness_mod.block_slots, harness_mod.sample_block

    def recorded(*args):
        allocs.append(real_slots(*args))
        return allocs[-1]

    def planted(scen, trials):
        blk = real_sample(scen, trials)
        blk.P[:, zero] = 0.0
        return blk

    with (mock.patch.object(harness_mod, "sample_block", planted),
          mock.patch.object(harness_mod, "block_slots", recorded)):
        values, why = harness_mod._sweep_block(*block)
        wins, why_prob = harness_mod._prob_block(*block)
    assert not why and not why_prob, (why, why_prob)
    assert np.isfinite(values).all() and wins.shape == block[2].shape
    lower, up_min = (values[:, METRICS.index(m)] for m in ("joint_lower", "joint_up_min"))
    assert (lower <= up_min + 1e-9).all(), np.max(lower - up_min)
    ((alloc, _),) = allocs
    alpha, _, p_r = block[1][:, block[3]]
    served = (alpha > 0.0) | (p_r > 0.0)
    assert (alloc.tau[served][:, zero] == 0.0).all()
    assert (alloc.tau[~served] == 1.0 / block[0].K).all()
    assert (np.abs(alloc.tau.sum(axis=1) - 1.0) <= _SIMPLEX_ATOL).all()


@st.composite
def draws(draw):
    """One draw of the sampler's domain: a scenario of K 1-12 users, M_r 1-6
    relay antennas and a cell, sampled at a trial index of its seed."""
    alpha, p_max, p_r = draw(_cell())
    scen = ScenarioConfig(K=draw(st.integers(1, 12)), M_r=draw(st.integers(1, 6)), P_max=p_max,
                          P_r=p_r, alpha=alpha, seed=draw(st.integers(0, 2**64 - 1)))
    return sample_channel(scen, trial_rng(scen.seed, draw(st.integers(0, 2**32 - 1))))


@PROPERTY
@given(draws())
def test_r_lower_is_the_logdet_rate_of_its_relay_matrix(c):
    # r_lower, from the aggregates and the top eigenpair of R + W, against
    # the 2 x 2 log-det rate of f_lower, formed from the channel alone
    b = lower_bound(c)
    ref = sum_rate_logdet(b.f_lower, c)
    assert abs(b.r_lower - ref) <= 1e-12 * abs(ref), (b.r_lower, ref)


@st.composite
def far_apart_snrs(draw):
    """The SNRs d, nr (500, K) and hp (500,) of a block of 500 trials of K
    1-8 users, each log-uniform from 1e-15 to 1e15, from a drawn seed, with
    a drawn share of 0, 0.3 or 0.6 of the users relay-only (d = 0): outside
    the sampler's domain, where a user whose relay hop saturates, nr >> hp,
    has a nearly flat marginal rate."""
    K, rng = draw(st.integers(1, 8)), np.random.default_rng(draw(st.integers(0, 2**64 - 1)))
    share = draw(st.sampled_from((0.0, 0.3, 0.6)))
    d, nr = 10.0 ** rng.uniform(-15.0, 15.0, (2, 500, K))
    hp = 10.0 ** rng.uniform(-15.0, 15.0, 500)
    d[rng.random((500, K)) < share] = 0.0
    return d, nr, hp


@settings(PROPERTY, max_examples=100)
@given(far_apart_snrs())
def test_slots_reach_the_level_with_snrs_thirty_decades_apart(snrs):
    # A flat slot beside a steep one, the hard case, is about 1 in 2,600 of
    # these trials without relay-only users: 100 blocks of 500 trials hold
    # about 19. With them, stepping relay-only slots linearly and parking
    # them inside the Newton loop fails about 1 in 13,000 (tools/slot_scan.py).
    alloc, why = block_slots(*snrs)
    assert not why, why
    assert (np.abs(alloc.tau.sum(axis=1) - 1.0) <= _SIMPLEX_ATOL).all()
