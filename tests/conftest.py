import os

import numpy as np
import pytest

import marcsim.harness as harness_mod
from marcsim import ChannelRealization, ScenarioConfig, sample_channel, trial_rng


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
