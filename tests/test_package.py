import marcsim
from marcsim import channel, errors, harness, joint, numerics, tdma

MODULES = (channel, errors, harness, joint, numerics, tdma)


def test_package_reexports_every_module_all():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(marcsim, name) is getattr(module, name), (module.__name__, name)
    assert len(marcsim.__all__) == len(set(marcsim.__all__))
    assert set(marcsim.__all__) == {name for m in MODULES for name in m.__all__}


def test_package_keeps_its_public_names():
    public = """ChannelAggregates ChannelRealization ScenarioConfig compute_aggregates
        effective_channel realization_from_json realization_to_json relay_tx_power
        sample_channel trial_rng NumericalError ValidationError ProbResult
        RealizationMetrics SweepConfig SweepResult estimate_superiority_probability
        evaluate_realization invariant_suite run_sweep JointRateBounds RelayMatrix
        lower_bound relay_matrix_ub1 sum_rate_closed sum_rate_logdet dominant_eigenpair
        is_hermitian quadratic_form AsymptoticResult TdmaAllocation asymptotic_allocation
        joint_beats_tdma_asymptotic kkt_slackness optimize_slots single_user_rate
        single_user_relay_matrix user_rate user_rate_derivative""".split()
    assert set(public) <= set(marcsim.__all__)


def test_package_leaks_no_module_internals():
    for name in ("np", "HERMITIAN_RTOL"):
        assert not hasattr(marcsim, name), name
