"""Unit tests for one simulation round (paper Section 5), one snapshot.

A round is the network model's ``sample_indicator`` followed by the two
calls every simulator shares: ``LossModel.sample_loss_rates`` and
``PathProber.measure``.
"""

import numpy as np

from repro.model.loss import LossModel
from repro.simulate.probes import PathProber, ProbeConfig
from repro.utils.rng import as_generator


def simulate_snapshot(network_model, loss_model, prober, rng):
    """``(link_states, loss_rates, path_states)`` of one round."""
    states = network_model.sample_indicator(rng)
    rates = loss_model.sample_loss_rates(states, rng)
    return states, rates, prober.measure(rates, rng)


class TestSimulateSnapshot:
    def test_result_shapes(self, instance_1a, model_1a):
        prober = PathProber(instance_1a.topology, ProbeConfig())
        states, rates, verdicts = simulate_snapshot(
            model_1a, LossModel(), prober, as_generator(0)
        )
        assert states.shape == (4,)
        assert rates.shape == (4,)
        assert verdicts.shape == (3,)

    def test_loss_rates_respect_states(self, instance_1a, model_1a):
        prober = PathProber(instance_1a.topology, ProbeConfig())
        model = LossModel()
        rng = as_generator(1)
        for _ in range(20):
            states, rates, _ = simulate_snapshot(model_1a, model, prober, rng)
            assert np.array_equal(rates > model.link_threshold, states)

    def test_deterministic_given_rng_state(self, instance_1a, model_1a):
        prober = PathProber(instance_1a.topology, ProbeConfig())
        a = simulate_snapshot(model_1a, LossModel(), prober, as_generator(7))
        b = simulate_snapshot(model_1a, LossModel(), prober, as_generator(7))
        for left, right in zip(a, b):
            assert np.array_equal(left, right)

    def test_good_network_has_good_paths_in_exact_mode(
        self, instance_1a
    ):
        from repro.model import NetworkCongestionModel

        model = NetworkCongestionModel.independent(
            instance_1a.correlation, {k: 0.0 for k in range(4)}
        )
        prober = PathProber(
            instance_1a.topology, ProbeConfig(packets_per_path=None)
        )
        states, _, verdicts = simulate_snapshot(
            model, LossModel(), prober, as_generator(3)
        )
        assert not states.any()
        assert not verdicts.any()
