"""Unit tests for the probing model."""

import math

import numpy as np
import pytest
from scipy.special import bdtrc

from repro.model.loss import LossModel, path_threshold
from repro.simulate.probes import PathProber, ProbeConfig
from repro.utils.rng import as_generator


class TestProbeConfig:
    def test_defaults(self):
        config = ProbeConfig()
        assert config.packets_per_path == 1000
        assert config.link_threshold == 0.01

    def test_invalid_packets_rejected(self):
        with pytest.raises(ValueError):
            ProbeConfig(packets_per_path=0)

    def test_none_packets_allowed(self):
        assert ProbeConfig(packets_per_path=None).packets_per_path is None


class TestPathProber:
    def test_thresholds_match_path_lengths(self, instance_1a):
        prober = PathProber(instance_1a.topology, ProbeConfig())
        for path in instance_1a.topology.paths:
            assert math.isclose(
                prober.path_thresholds[path.id],
                path_threshold(path.length),
            )

    def test_true_path_loss_composition(self, instance_1a):
        """Path loss = 1 − Π (1 − link loss) over the path's links."""
        topology = instance_1a.topology
        prober = PathProber(topology, ProbeConfig())
        loss = np.array([0.1, 0.2, 0.3, 0.4])
        path_loss = prober.true_path_loss(loss)
        for path in topology.paths:
            expected = 1.0 - math.prod(
                1.0 - loss[k] for k in path.link_ids
            )
            assert math.isclose(
                path_loss[path.id], expected, abs_tol=1e-9
            )

    def test_exact_mode_has_no_noise(self, instance_1a):
        prober = PathProber(
            instance_1a.topology, ProbeConfig(packets_per_path=None)
        )
        loss = np.array([0.5, 0.0, 0.0, 0.0])
        congested_a = prober.measure(loss, as_generator(0))
        congested_b = prober.measure(loss, as_generator(1))
        assert np.array_equal(congested_a, congested_b)

    def test_congestion_verdict_uses_tp(self, instance_1a):
        topology = instance_1a.topology
        prober = PathProber(topology, ProbeConfig(packets_per_path=None))
        # e3 congested at 50% loss: P1 and P2 (via e3) congested; P3 good.
        loss = np.zeros(topology.n_links)
        loss[topology.link("e3").id] = 0.5
        congested = prober.measure(loss, as_generator(0))
        assert congested[topology.path("P1").id]
        assert congested[topology.path("P2").id]
        assert not congested[topology.path("P3").id]

    def test_all_good_links_never_flag_paths_in_exact_mode(
        self, instance_1a
    ):
        """With loss ≤ t_l on every link, path loss ≤ t_p exactly."""
        topology = instance_1a.topology
        prober = PathProber(topology, ProbeConfig(packets_per_path=None))
        loss = np.full(topology.n_links, 0.01)
        congested = prober.measure(loss, as_generator(0))
        assert not congested.any()

    def test_binomial_mode_statistics(self, instance_1a):
        """Each path's verdict frequency is ``P(Bin(n, p) > k)``.

        ``p`` is the path's true loss rate and ``k`` the largest lost
        count with ``k / n ≤ t_p``, so the exact verdict probability is
        ``bdtrc(k, n, p)``.  Over ``N`` independent rounds the observed
        frequency must lie within 5 standard errors
        ``sqrt(P (1 − P) / N)`` of it (normal bound on a binomial
        proportion; a false failure has probability < 1e-6 per path).
        The check holds for any exact sampler of the verdict, not just
        the per-packet binomial.
        """
        packets, rounds = 200, 20_000
        topology = instance_1a.topology
        prober = PathProber(topology, ProbeConfig(packets_per_path=packets))
        # Link losses around t_l put every path's loss near its t_p, so
        # no verdict probability is degenerate.
        loss = np.array([0.012, 0.008, 0.015, 0.006])
        true_loss = prober.true_path_loss(loss)
        expected = np.array(
            [
                bdtrc(
                    max(
                        k
                        for k in range(packets + 1)
                        if k / packets <= threshold
                    ),
                    packets,
                    p,
                )
                for p, threshold in zip(true_loss, prober.path_thresholds)
            ]
        )
        assert np.all((expected > 0.05) & (expected < 0.95))
        verdicts = prober.measure(
            np.tile(loss, (rounds, 1)), as_generator(5)
        )
        frequency = verdicts.mean(axis=0)
        bound = 5.0 * np.sqrt(expected * (1.0 - expected) / rounds)
        assert np.all(np.abs(frequency - expected) <= bound)


class TestBatchedRounds:
    """One ``(b, n)`` call draws exactly what ``b`` one-row calls draw
    from the same generator, so the batch driver and the per-snapshot
    stream share one kernel."""

    @pytest.mark.parametrize("packets", [400, None])
    def test_measure_batch_equals_row_calls(self, brite_small, packets):
        topology = brite_small.instance.topology
        prober = PathProber(topology, ProbeConfig(packets_per_path=packets))
        states = as_generator(3).random((9, topology.n_links)) < 0.1
        loss = LossModel().sample_loss_rates(states, as_generator(4))
        batch = prober.measure(loss, as_generator(8))
        rng = as_generator(8)
        rows = np.array([prober.measure(row, rng) for row in loss])
        assert batch.shape == (9, topology.n_paths)
        assert np.array_equal(batch, rows)
        assert np.array_equal(
            prober.true_path_loss(loss),
            np.array([prober.true_path_loss(row) for row in loss]),
        )

    def test_loss_rates_batch_equals_row_calls(self, brite_small):
        model = LossModel()
        n_links = brite_small.instance.topology.n_links
        states = as_generator(3).random((9, n_links)) < 0.1
        batch = model.sample_loss_rates(states, as_generator(6))
        rng = as_generator(6)
        rows = np.array([model.sample_loss_rates(row, rng) for row in states])
        assert batch.shape == states.shape
        assert np.array_equal(batch, rows)
        assert np.array_equal(batch > model.link_threshold, states)
