"""Unit tests for the Figure-3 scenario constructor."""

import numpy as np
import pytest

from repro.eval.scenario import (
    HIGH_CORRELATION_RANGE,
    LOOSE_CORRELATION_RANGE,
    make_clustered_scenario,
)
from repro.exceptions import GenerationError


class TestTargets:
    def test_congested_fraction_respected(self, planetlab_small):
        scenario = make_clustered_scenario(
            planetlab_small, congested_fraction=0.10, seed=1
        )
        target = round(0.10 * planetlab_small.n_links)
        achieved = len(scenario.congested_links)
        assert abs(achieved - target) <= max(2, 0.2 * target)

    def test_high_correlation_cluster_sizes(self, planetlab_small):
        scenario = make_clustered_scenario(
            planetlab_small,
            congested_fraction=0.10,
            per_set_range=HIGH_CORRELATION_RANGE,
            seed=2,
        )
        correlation = scenario.truth_model.correlation
        counts = {}
        for link_id in scenario.congested_links:
            counts.setdefault(
                correlation.set_index_of(link_id), 0
            )
            counts[correlation.set_index_of(link_id)] += 1
        # "more than 2 congested links per correlation set" for the bulk
        # of the congested mass (fallback fill may be smaller).
        clustered = sum(c for c in counts.values() if c >= 3)
        assert clustered >= 0.6 * len(scenario.congested_links)

    def test_loose_correlation_cluster_sizes(self, planetlab_small):
        scenario = make_clustered_scenario(
            planetlab_small,
            congested_fraction=0.10,
            per_set_range=LOOSE_CORRELATION_RANGE,
            seed=3,
        )
        correlation = scenario.truth_model.correlation
        counts = {}
        for link_id in scenario.congested_links:
            index = correlation.set_index_of(link_id)
            counts[index] = counts.get(index, 0) + 1
        assert max(counts.values()) <= 2

    def test_strict_raises_when_unreachable(self, instance_1a):
        # Fig 1(a)'s largest set has 2 links: >2 per set is impossible.
        with pytest.raises(GenerationError):
            make_clustered_scenario(
                instance_1a,
                congested_fraction=1.0,
                per_set_range=(3, 6),
                strict=True,
                seed=4,
            )

    def test_invalid_range_rejected(self, instance_1a):
        with pytest.raises(GenerationError):
            make_clustered_scenario(
                instance_1a, per_set_range=(2, 1), seed=0
            )


class TestGroundTruth:
    def test_marginals_positive_exactly_on_congested(
        self, planetlab_small
    ):
        scenario = make_clustered_scenario(
            planetlab_small, congested_fraction=0.10, seed=5
        )
        truth = scenario.truth_model.link_marginals()
        positive = set(np.flatnonzero(truth > 0))
        assert positive == set(scenario.congested_links)

    def test_within_set_positive_correlation(self, planetlab_small):
        scenario = make_clustered_scenario(
            planetlab_small,
            congested_fraction=0.15,
            per_set_range=HIGH_CORRELATION_RANGE,
            seed=6,
        )
        model = scenario.truth_model
        correlation = model.correlation
        # Find a set with >= 2 congested links and check joint > product.
        by_set = {}
        for link_id in scenario.congested_links:
            by_set.setdefault(
                correlation.set_index_of(link_id), []
            ).append(link_id)
        multi = next(
            links for links in by_set.values() if len(links) >= 2
        )
        a, b = multi[:2]
        joint = model.joint({a, b})
        truth = model.link_marginals()
        assert joint > truth[a] * truth[b]

    def test_algorithm_structure_matches_truth_in_fig3(
        self, planetlab_small
    ):
        scenario = make_clustered_scenario(
            planetlab_small, congested_fraction=0.10, seed=7
        )
        assert (
            scenario.algorithm_correlation
            is planetlab_small.correlation
        )

    def test_deterministic_given_seed(self, planetlab_small):
        a = make_clustered_scenario(
            planetlab_small, congested_fraction=0.10, seed=8
        )
        b = make_clustered_scenario(
            planetlab_small, congested_fraction=0.10, seed=8
        )
        assert a.congested_links == b.congested_links
        assert np.allclose(
            a.truth_model.link_marginals(),
            b.truth_model.link_marginals(),
        )

    def test_metadata(self, planetlab_small):
        scenario = make_clustered_scenario(
            planetlab_small, congested_fraction=0.10, seed=9
        )
        assert scenario.metadata["congested_fraction"] == 0.10
        assert scenario.metadata["achieved"] == len(
            scenario.congested_links
        )


class TestSharedNeverCongestingModels:
    """Sets with no congested link share one model across scenarios,
    and a run on them equals one on freshly built models."""

    @staticmethod
    def fresh(scenario):
        from repro.model.cluster import ActiveSubsetModel
        from repro.model.independent import IndependentModel
        from repro.model.network import NetworkCongestionModel

        truth = scenario.truth_model
        models = [
            model
            if model.sampler.can_congest
            else ActiveSubsetModel(
                model.links, IndependentModel({min(model.links): 0.0})
            )
            for model in truth.models
        ]
        return NetworkCongestionModel(truth.correlation, models)

    def test_two_scenarios_share_and_answer_as_fresh(self, planetlab_small):
        from repro.simulate.experiment import ExperimentConfig, run_experiment

        first = make_clustered_scenario(planetlab_small, seed=11)
        second = make_clustered_scenario(planetlab_small, seed=12)
        pairs = list(zip(first.truth_model.models, second.truth_model.models))
        quiet = [
            (a, b)
            for a, b in pairs
            if not (a.sampler.can_congest or b.sampler.can_congest)
        ]
        assert quiet and all(a is b for a, b in quiet)
        config = ExperimentConfig(n_snapshots=80, packets_per_path=300)
        for scenario in (first, second):
            fresh = self.fresh(scenario)
            assert not any(
                a is b
                for a, b in zip(fresh.models, scenario.truth_model.models)
                if not a.sampler.can_congest
            )
            shared_run = run_experiment(
                planetlab_small.topology, scenario.truth_model,
                config=config, seed=5,
            )
            fresh_run = run_experiment(
                planetlab_small.topology, fresh, config=config, seed=5,
            )
            assert (
                shared_run.link_states.tobytes()
                == fresh_run.link_states.tobytes()
            )
            assert (
                shared_run.observations.path_states.tobytes()
                == fresh_run.observations.path_states.tobytes()
            )
            assert (
                scenario.truth_model.link_marginals().tobytes()
                == fresh.link_marginals().tobytes()
            )
