"""Sum-rate analysis for a K-user Gaussian multiple-access channel with a
multi-antenna amplify-and-forward relay and direct links.

Two transmit schemes are covered: joint relaying (everyone at once, with
upper/lower bounds on the best achievable sum rate) and TDMA (one user per
slot, with the optimal relay matrices and slot durations), plus a Monte
Carlo harness comparing them over fading ensembles.
"""

from .channel import (
    ChannelAggregates,
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
from .errors import DegenerateChannelError, NumericalError, ValidationError
from .harness import (
    ProbResult,
    RealizationMetrics,
    SweepConfig,
    SweepResult,
    estimate_superiority_probability,
    evaluate_realization,
    invariant_suite,
    run_sweep,
)
from .joint import (
    JointRateBounds,
    RelayMatrix,
    lower_bound,
    relay_matrix_lower,
    relay_matrix_ub1,
    sum_rate_closed,
    sum_rate_logdet,
    upper_bound_1,
    upper_bound_2,
)
from .numerics import dominant_eigenpair, is_hermitian, quadratic_form
from .tdma import (
    AsymptoticResult,
    TdmaAllocation,
    asymptotic_allocation,
    joint_beats_tdma_asymptotic,
    kkt_slackness,
    optimize_slots,
    single_user_rate,
    single_user_relay_matrix,
    user_rate,
    user_rate_derivative,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelAggregates",
    "ChannelRealization",
    "ScenarioConfig",
    "compute_aggregates",
    "effective_channel",
    "realization_from_json",
    "realization_to_json",
    "relay_tx_power",
    "sample_channel",
    "trial_rng",
    "DegenerateChannelError",
    "NumericalError",
    "ValidationError",
    "ProbResult",
    "RealizationMetrics",
    "SweepConfig",
    "SweepResult",
    "estimate_superiority_probability",
    "evaluate_realization",
    "invariant_suite",
    "run_sweep",
    "JointRateBounds",
    "RelayMatrix",
    "lower_bound",
    "relay_matrix_lower",
    "relay_matrix_ub1",
    "sum_rate_closed",
    "sum_rate_logdet",
    "upper_bound_1",
    "upper_bound_2",
    "dominant_eigenpair",
    "is_hermitian",
    "quadratic_form",
    "AsymptoticResult",
    "TdmaAllocation",
    "asymptotic_allocation",
    "joint_beats_tdma_asymptotic",
    "kkt_slackness",
    "optimize_slots",
    "single_user_rate",
    "single_user_relay_matrix",
    "user_rate",
    "user_rate_derivative",
]
