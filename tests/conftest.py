import os

import numpy as np
import pytest

import marcsim.harness as harness_mod
from marcsim import ChannelBlock, ChannelRealization, ScenarioConfig, sample_channel, trial_rng
from marcsim.channel import direct_links, sample_block


def scaled_block(scens, trials) -> ChannelBlock:
    """The block whose row i is sample_channel(scens[i], trial_rng(scens[i].seed,
    trials[i])), for scenarios of one (K, M_r): sample_block's unit
    draws, one call per seed, with each row's direct links scaled by its
    alpha, its powers by its P_max and its relay power set to its P_r."""
    trials, groups = np.asarray(trials), {}
    for i, scen in enumerate(scens):
        groups.setdefault(scen.seed, []).append(i)
    units = [sample_block(scens[rows[0]], trials[rows]) for rows in groups.values()]
    at = np.argsort(np.concatenate(list(groups.values())))  # each item's row of the units
    h_r, h_d, h, P = (np.concatenate([getattr(u, name) for u in units])[at]
                      for name in ("h_r", "h_d", "h", "P"))
    alpha, P_max, P_r = (np.array([getattr(s, name) for s in scens])
                         for name in ("alpha", "P_max", "P_r"))
    return ChannelBlock(h_r=h_r, h_d=direct_links(alpha[:, None], h_d), h=h,
                        P=P * P_max[:, None], P_r=P_r)


@pytest.fixture
def make_channel():
    """Factory for random realizations with a controlled seed."""

    def _make(seed=0, K=3, M_r=2, alpha=1.0, P_max=10.0, P_r=10.0, trial=0):
        cfg = ScenarioConfig(K=K, M_r=M_r, P_max=P_max, P_r=P_r, alpha=alpha, seed=seed)
        return sample_channel(cfg, trial_rng(seed, trial))

    return _make


@pytest.fixture
def scalar_ones_channel():
    """K=1, M_r=1, every coefficient and power equal to one."""
    return ChannelRealization(h_r=[[1.0]], h_d=[1.0], h=[1.0], P=[1.0], P_r=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def inline_pool(monkeypatch):
    """Stands in for the harness's process pool: runs the blocks in this
    process. Returns the list of the pool sizes asked for."""
    sizes = []

    class InlineExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", InlineExecutor)
    return sizes


@pytest.fixture
def any_run_forks(monkeypatch):
    """Lets a parallel run of any size start its pool: each process then
    needs one trial of its own, not _MIN_PROCESS_WORK, so that small tables
    exercise the pool."""
    monkeypatch.setattr(harness_mod, "_MIN_PROCESS_WORK", 1)


@pytest.fixture
def pin_cpu_count(monkeypatch):
    """Pins the CPU count that caps the harness's worker count, so that pool
    sizes do not depend on the machine. Call it with the count."""
    return lambda n: monkeypatch.setattr(os, "cpu_count", lambda: n)
