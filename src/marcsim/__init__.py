"""Sum-rate analysis for a K-user Gaussian multiple-access channel with a
multi-antenna amplify-and-forward relay and direct links.

Two transmit schemes are covered: joint relaying (everyone at once, with
upper/lower bounds on the best achievable sum rate) and TDMA (one user per
slot, with the optimal relay matrices and slot durations), plus a Monte
Carlo harness comparing them over fading ensembles.

The package namespace is the union of its modules' ``__all__``.
"""

from . import channel, errors, harness, joint, numerics, tdma
from .channel import *  # noqa: F403
from .errors import *  # noqa: F403
from .harness import *  # noqa: F403
from .joint import *  # noqa: F403
from .numerics import *  # noqa: F403
from .tdma import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (channel, errors, harness, joint, numerics, tdma)
    for name in module.__all__
]
