"""Unit tests for the practical correlation algorithm (Section 4)."""

import numpy as np
import pytest

from repro.core.correlation import CorrelationStructure
from repro.core.correlation_algorithm import (
    CorrelationTomography,
    infer_congestion,
)


class TestNoiseFreeInference:
    def test_exact_on_fig1a_oracle(self, instance_1a, oracle_1a, truth_1a):
        result = infer_congestion(
            instance_1a.topology, instance_1a.correlation, oracle_1a
        )
        assert np.allclose(
            result.congestion_probabilities, truth_1a, atol=1e-6
        )

    def test_equation_bookkeeping(self, instance_1a, oracle_1a):
        result = infer_congestion(
            instance_1a.topology, instance_1a.correlation, oracle_1a
        )
        assert result.n_single_equations == 3
        assert result.n_pair_equations == 1
        assert result.n_equations == instance_1a.topology.n_links
        assert result.rank == 4
        assert result.diagnostics["fully_determined"]

    def test_probabilities_in_unit_interval(self, instance_1a, oracle_1a):
        result = infer_congestion(
            instance_1a.topology, instance_1a.correlation, oracle_1a
        )
        probabilities = result.congestion_probabilities
        assert np.all(probabilities >= 0.0)
        assert np.all(probabilities <= 1.0)

    def test_log_good_nonpositive(self, instance_1a, oracle_1a):
        result = infer_congestion(
            instance_1a.topology, instance_1a.correlation, oracle_1a
        )
        assert np.all(result.log_good <= 0.0)

    def test_label_override(self, instance_1a, oracle_1a):
        result = infer_congestion(
            instance_1a.topology,
            instance_1a.correlation,
            oracle_1a,
            algorithm_label="custom",
        )
        assert result.algorithm == "custom"


class TestNoisyInference:
    def test_simulated_measurements_close(
        self, instance_1a, model_1a, truth_1a
    ):
        from repro.simulate import ExperimentConfig, run_experiment

        run = run_experiment(
            instance_1a.topology,
            model_1a,
            config=ExperimentConfig(n_snapshots=5000),
            seed=77,
        )
        result = infer_congestion(
            instance_1a.topology,
            instance_1a.correlation,
            run.observations,
        )
        assert np.all(
            np.abs(result.congestion_probabilities - truth_1a) < 0.08
        )


class TestFrontEnd:
    def test_tomography_object(self, instance_1a, oracle_1a, truth_1a):
        tomography = CorrelationTomography(
            instance_1a.topology, instance_1a.correlation
        )
        result = tomography.infer(oracle_1a)
        assert np.allclose(
            result.congestion_probabilities, truth_1a, atol=1e-6
        )
        assert tomography.topology is instance_1a.topology
        assert tomography.correlation is instance_1a.correlation


class TestDegenerateStructures:
    def test_trivial_structure_on_independent_truth(self, instance_1a):
        """With truly independent links, the trivial structure recovers
        exact marginals too (no correlation to model)."""
        from repro.model import NetworkCongestionModel
        from repro.simulate import ExactPathStateDistribution

        topology = instance_1a.topology
        trivial = CorrelationStructure.trivial(topology)
        model = NetworkCongestionModel.independent(
            trivial, {k: 0.1 + 0.05 * k for k in range(topology.n_links)}
        )
        oracle = ExactPathStateDistribution.from_model(topology, model)
        result = infer_congestion(topology, trivial, oracle)
        assert np.allclose(
            result.congestion_probabilities,
            model.link_marginals(),
            atol=1e-6,
        )
