"""Unit tests for the independence baseline [12]."""

import numpy as np

from repro.core.independence_algorithm import infer_congestion_independent
from repro.core.nguyen_thiran import infer_congestion_single_path


class TestBaselineOnIndependentTruth:
    def test_correct_when_links_actually_independent(self, instance_1a):
        """Sanity: the baseline is right when its assumption holds."""
        from repro.core.correlation import CorrelationStructure
        from repro.model import NetworkCongestionModel
        from repro.simulate import ExactPathStateDistribution

        topology = instance_1a.topology
        trivial = CorrelationStructure.trivial(topology)
        model = NetworkCongestionModel.independent(
            trivial, {k: 0.05 + 0.1 * k for k in range(topology.n_links)}
        )
        oracle = ExactPathStateDistribution.from_model(topology, model)
        result = infer_congestion_independent(topology, oracle)
        # Fig 1(a)'s 3 paths over 4 links are rank-3: the baseline cannot
        # fully determine every link, but residuals must be small for the
        # determined directions.
        matrix = topology.routing_matrix()
        residual = matrix @ result.log_good - np.array(
            [oracle.log_good(p.id) for p in topology.paths]
        )
        assert np.allclose(residual, 0.0, atol=1e-6)


class TestBaselineUnderCorrelation:
    def test_biased_when_links_correlated(self):
        """On Fig 1(a) every path crosses one link per set, so the
        baseline's single-path system is exact there; genuine bias needs
        a path crossing two correlated links — built explicitly below."""
        from repro.core.builder import TopologyBuilder
        from repro.core.correlation import CorrelationStructure
        from repro.model import (
            CommonCauseModel,
            IndependentModel,
            NetworkCongestionModel,
        )
        from repro.simulate import ExactPathStateDistribution

        # Chain a -> b -> c with both links in one correlated set, plus a
        # disambiguating side path over each link.
        builder = TopologyBuilder()
        builder.add_link("e1", "a", "b")
        builder.add_link("e2", "b", "c")
        builder.add_path("P1", ["e1", "e2"])
        builder.add_path("P2", ["e1"])
        builder.add_path("P3", ["e2"])
        topology = builder.build()
        correlation = CorrelationStructure(topology, [[0, 1]])
        truth_model = NetworkCongestionModel(
            correlation,
            [
                CommonCauseModel(
                    frozenset({0, 1}),
                    cause_probability=0.3,
                    background=0.05,
                )
            ],
        )
        oracle = ExactPathStateDistribution.from_model(
            topology, truth_model
        )
        truth = truth_model.link_marginals()
        result = infer_congestion_independent(topology, oracle)
        errors = np.abs(result.congestion_probabilities - truth)
        # P1's equation is biased by the correlation; LS spreads it.
        assert errors.max() > 0.02

    def test_result_metadata(self, instance_1a, oracle_1a):
        result = infer_congestion_independent(
            instance_1a.topology, oracle_1a
        )
        assert result.algorithm == "independence"
        assert result.n_single_equations == instance_1a.topology.n_paths
        assert result.n_pair_equations == 0


class TestSinglePathVariant:
    def test_rank_reported(self, instance_1a, oracle_1a):
        result = infer_congestion_single_path(
            instance_1a.topology, oracle_1a
        )
        assert result.rank == 3  # 3 paths over 4 links
