"""Unit tests for the probing model."""

import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from scipy.special import bdtrc

from repro.eval.figures import default_instance
from repro.model.loss import LossModel, path_threshold
from repro.simulate import probes
from repro.simulate.probes import PathProber, ProbeConfig
from repro.core.builder import TopologyBuilder
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


def _largest_lost_count(threshold: float, packets: int) -> int:
    """``max {k : k / n ≤ t_p}`` with the division in floats, searched
    next to ``t_p · n``; the window must hold the answer's neighbour."""
    centre = int(threshold * packets)
    fits = [
        k
        for k in range(max(centre - 4, 0), min(centre + 5, packets + 1))
        if k / packets <= threshold
    ]
    assert fits and (fits[-1] == packets or (fits[-1] + 1) / packets > threshold)
    return fits[-1]


def _chain_topology(prefix: str):
    """Paths of 1, 2 and 3 links, named by ``prefix`` so that no other
    topology in the session equals it.  At ``t_l = 0.25`` their ``t_p``
    are 0.25, 0.4375 and 0.578125, exact in binary."""
    builder = TopologyBuilder()
    names = [f"{prefix}{index}" for index in range(3)]
    for index, name in enumerate(names):
        builder.add_link(name, f"{prefix}v{index}", f"{prefix}v{index + 1}")
    for length in (1, 2, 3):
        builder.add_path(f"{prefix}P{length}", names[:length])
    return builder.build()


def _direct_verdicts(prober, path_loss, rng):
    """``u < bdtrc(k, n, p)`` per entry, on the uniforms ``rng`` draws."""
    packets = prober.config.packets_per_path
    limits = np.array(
        [_largest_lost_count(t, packets) for t in prober.path_thresholds],
        dtype=np.float64,
    )
    uniforms = rng.random(np.shape(path_loss))
    return uniforms < bdtrc(limits, packets, path_loss)


class TestThresholdSampler:
    """``measure`` draws one uniform per entry and keeps
    ``u < P(Bin(n, p) > k)``; its bracket table must never change a
    verdict against the direct ``bdtrc`` on the same uniforms."""

    def test_verdicts_equal_direct_bdtrc_on_small_brite(self):
        topology = default_instance("brite", scale="small").topology
        prober = PathProber(topology, ProbeConfig(packets_per_path=800))
        states = as_generator(3).random((1200, topology.n_links)) < 0.1
        loss = LossModel().sample_loss_rates(states, as_generator(4))
        verdicts = prober.measure(loss, as_generator(8))
        expected = _direct_verdicts(
            prober, prober.true_path_loss(loss), as_generator(8)
        )
        assert verdicts.shape == (1200, topology.n_paths)
        assert 0 < verdicts.sum() < verdicts.size
        assert np.array_equal(verdicts, expected)

    @pytest.mark.parametrize("link_threshold", [0.01, 0.25])
    @pytest.mark.parametrize(
        "packets", [1, 2, 7, 100, 800, 1000, 10_000, 10**6, 10**9]
    )
    def test_edges_and_extremes_equal_direct_bdtrc(
        self, monkeypatch, packets, link_threshold
    ):
        """``p`` on every cell edge ``j / 4096``, at 0 and 1, at each
        path's ``k / n`` and ``(k + 1) / n``, and across the steep rise
        around ``t_p`` that a large ``n`` puts inside one cell."""
        prober = PathProber(
            _chain_topology("edge"),
            ProbeConfig(
                packets_per_path=packets, link_threshold=link_threshold
            ),
        )
        columns = []
        for threshold in prober.path_thresholds:
            limit = _largest_lost_count(threshold, packets)
            spread = math.sqrt(threshold * (1.0 - threshold) / packets)
            columns.append(
                np.concatenate(
                    [
                        np.arange(4097) / 4096,
                        [0.0, 1.0, threshold, limit / packets],
                        [min((limit + 1) / packets, 1.0)],
                        np.clip(
                            threshold + spread * np.linspace(-8, 8, 257),
                            0.0,
                            1.0,
                        ),
                    ]
                )
            )
        path_loss = np.stack(columns, axis=1)
        monkeypatch.setattr(prober, "true_path_loss", lambda loss: loss)
        verdicts = prober.measure(path_loss, as_generator(21))
        expected = _direct_verdicts(prober, path_loss, as_generator(21))
        assert np.array_equal(verdicts, expected)
        # p = 1 always exceeds t_p; p = 0 never does.
        assert verdicts[4098].all() and not verdicts[4097].any()
        row = prober.measure(path_loss[3000], as_generator(22))
        assert np.array_equal(
            row, _direct_verdicts(prober, path_loss[3000], as_generator(22))
        )

    @pytest.mark.parametrize("packets", [4, 100, 800, 1000, 10**6, 10**9])
    def test_threshold_times_packets_on_an_integer(self, packets):
        """Where ``t_p · n`` is an integer, ``k`` is that integer: a
        path that loses exactly ``t_p · n`` packets is good."""
        prober = PathProber(
            _chain_topology("edge"),
            ProbeConfig(packets_per_path=packets, link_threshold=0.25),
        )
        threshold = prober.path_thresholds[0]
        assert threshold == 0.25
        limit = packets // 4
        assert _largest_lost_count(threshold, packets) == limit
        assert prober._brackets.limits[0] == limit

    def test_bracket_cache_is_bounded_and_dies_with_its_topology(self):
        topology = _chain_topology("cache")
        first = PathProber(topology, ProbeConfig(packets_per_path=50))
        again = PathProber(topology, ProbeConfig(packets_per_path=50))
        assert again._brackets is first._brackets
        for packets in range(100, 5100, 100):
            PathProber(topology, ProbeConfig(packets_per_path=packets))
            assert len(probes._BRACKETS[topology]) <= probes._MAX_TABLES
        alive = weakref.ref(topology)
        del topology, first, again
        gc.collect()
        assert alive() is None
        assert _chain_topology("cache") not in probes._BRACKETS

    def test_bracket_cache_under_concurrent_probers(self):
        """Service threads share the cache: every prober gets the table
        of its own ``n`` and the cache never exceeds its bound."""
        topology = _chain_topology("threads")
        errors = []

        def build(worker):
            for step in range(40):
                packets = 100 + (worker * 7 + step) % 12
                prober = PathProber(
                    topology, ProbeConfig(packets_per_path=packets)
                )
                if prober._brackets.packets != packets:
                    errors.append((packets, prober._brackets.packets))
                if len(probes._BRACKETS[topology]) > probes._MAX_TABLES:
                    errors.append("over bound")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=build, args=(worker,))
                for worker in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
