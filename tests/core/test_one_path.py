"""One inference path: every call solves on the prepared template.

``infer_congestion`` builds the equation structure and its lifted L1
program once per prepared topology and structure-shaping options; each
later call pays only the ``y`` gather and the solve.  These tests pin
the build count, bit-identity with a fresh template per call and with
a full rebuild (``build_equations`` over the measured values plus one
solve), and the single build under concurrent first calls.
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro.core.streaming as streaming
from repro.core.correlation_algorithm import AlgorithmOptions, infer_congestion
from repro.core.prepared import PreparedRegistry, PreparedTopology
from repro.core.streaming import EquationTemplate
from repro.simulate.observations import PathObservations
from repro.utils.rng import as_generator


@pytest.fixture(scope="module")
def instance(brite_small):
    return brite_small.instance


@pytest.fixture
def build_count(monkeypatch):
    """Counts the equation builds behind every template."""
    calls = []
    original = streaming.build_equations

    def counting(*args, **kwargs):
        calls.append(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(streaming, "build_equations", counting)
    return calls


def batches(instance, count, seed=5):
    rng = as_generator(seed)
    return [
        PathObservations(rng.random((60, instance.topology.n_paths)) < 0.1)
        for _ in range(count)
    ]


def result_bits(result) -> tuple:
    return (
        result.congestion_probabilities.tobytes(),
        result.log_good.tobytes(),
        result.uncovered_links,
        result.n_single_equations,
        result.n_pair_equations,
        result.rank,
        result.solver,
        tuple(sorted(result.diagnostics.items())),
    )


class TestOneBuildPerPreparedTopology:
    def test_repeated_calls_build_once_and_match_fresh_templates(
        self, instance, build_count, rebuilt_log_good
    ):
        registry = PreparedRegistry()
        measurements = batches(instance, 6)
        results = [
            infer_congestion(
                instance.topology,
                instance.correlation,
                observations,
                registry=registry,
            )
            for observations in measurements
        ]
        assert len(build_count) == 1
        for observations, result in zip(measurements, results):
            fresh = EquationTemplate.build(
                instance.topology,
                instance.correlation,
                registry=PreparedRegistry(),
            ).infer(observations)
            assert result_bits(result) == result_bits(fresh)
            log_good, _, _ = rebuilt_log_good(instance, observations)
            assert result.log_good.tobytes() == log_good.tobytes()

    def test_structure_options_get_their_own_template(self, instance):
        prepared = PreparedTopology.build(
            instance.topology, instance.correlation
        )
        default = prepared.template(AlgorithmOptions())
        capped = prepared.template(AlgorithmOptions(max_pair_candidates=0))
        assert default is prepared.template(AlgorithmOptions())
        assert capped is not default
        assert default.n_pair > 0
        assert capped.n_pair == 0
        assert capped.n_single == default.n_single


class TestConcurrentFirstCall:
    def test_threads_share_one_template(self, instance, build_count):
        """More threads than cores make the first call together, with a
        short switch interval: one build, one template, one answer."""
        prepared = PreparedTopology.build(
            instance.topology, instance.correlation
        )
        observations = batches(instance, 1)[0]
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        templates, answers, errors = {}, {}, []

        def first_call(slot: int) -> None:
            try:
                barrier.wait(timeout=30)
                templates[slot] = prepared.template(AlgorithmOptions())
                answers[slot] = result_bits(
                    infer_congestion(
                        instance.topology,
                        instance.correlation,
                        observations,
                        prepared=prepared,
                    )
                )
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=first_call, args=(slot,))
            for slot in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(build_count) == 1
        assert len({id(template) for template in templates.values()}) == 1
        assert len(templates) == n_threads
        assert len(set(answers.values())) == 1
