import numpy as np
import pytest

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
