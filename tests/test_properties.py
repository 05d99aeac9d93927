"""Property tests of both table evaluators over the sampler's whole domain.

Hypothesis draws a scenario of K 1-12 users and M_r 1-6 relay antennas, a
seed and up to three trial indices, and several cells of alpha (0, or 1e-8
to 1e6), P_max (1e-6 to 1e8) and P_r (0, or 1e-6 to 1e8). Every item of a
block must pass every check the kernels make, since a failed check stops a
run: no failure message, finite metrics, r_lower <= r_up_min + 1e-9 and slot
durations on the simplex. The examples are derandomized, so a run is
reproducible, and no example database is kept.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import marcsim.harness as harness_mod
from marcsim import ScenarioConfig
from marcsim.harness import METRICS
from marcsim.tdma import _SIMPLEX_ATOL

PROPERTY = settings(max_examples=1000, derandomize=True, database=None, deadline=None)


def _power(lo: float, hi: float, zero: bool):
    """10^x for x uniform on [lo, hi], and 0 too when ``zero``."""
    powers = st.floats(lo, hi).map(lambda x: 10.0 ** x)
    return st.one_of(st.just(0.0), powers) if zero else powers


@st.composite
def blocks(draw):
    """An evaluator's arguments: the base scenario, the (3, cells) array of
    the cells' alpha, P_max and P_r, and each item's trial and cell index,
    trial by trial over every cell, as _trial_block lists them."""
    scen = ScenarioConfig(K=draw(st.integers(1, 12)), M_r=draw(st.integers(1, 6)),
                          seed=draw(st.integers(0, 2**64 - 1)))
    trials = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3, unique=True))
    cells = draw(st.lists(st.tuples(_power(-8.0, 6.0, True), _power(-6.0, 8.0, False),
                                    _power(-6.0, 8.0, True)), min_size=2, max_size=4))
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
