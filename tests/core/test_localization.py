"""Unit tests for per-snapshot congested-link localization."""

import math

import numpy as np
import pytest

from repro.core.builder import TopologyBuilder
from repro.core.localization import (
    congested_mask_from_states,
    feasible_candidate_links,
    localize_map,
    localize_smallest_set,
)
from repro.exceptions import MeasurementError
from repro.utils.bitset import mask_of


class TestFeasibility:
    def test_candidates_cover_only_congested_paths(self, instance_1a):
        topology = instance_1a.topology
        # P1 congested only: e1 is feasible (covers {P1}); e3 covers
        # {P1,P2} and P2 is good, so e3 is infeasible.
        mask = mask_of([topology.path("P1").id])
        candidates = feasible_candidate_links(topology, mask)
        names = {topology.links[k].name for k in candidates}
        assert names == {"e1"}

    def test_impossible_observation_rejected(self, instance_1a):
        topology = instance_1a.topology
        probabilities = np.full(topology.n_links, 0.2)
        # P2 congested alone is impossible: both e2 (covers P2,P3) and e3
        # (covers P1,P2) would congest another path.
        mask = mask_of([topology.path("P2").id])
        with pytest.raises(MeasurementError, match="no feasible"):
            localize_map(topology, mask, probabilities)


class TestMapLocalization:
    def test_empty_observation(self, instance_1a):
        result = localize_map(
            instance_1a.topology,
            0,
            np.full(instance_1a.topology.n_links, 0.3),
        )
        assert result.congested_links == frozenset()
        assert result.exact

    def test_single_link_explanation(self, instance_1a):
        topology = instance_1a.topology
        probabilities = np.full(topology.n_links, 0.2)
        mask = mask_of([topology.path("P1").id])
        result = localize_map(topology, mask, probabilities)
        assert result.congested_links == frozenset(
            {topology.link("e1").id}
        )
        assert result.exact

    def test_probabilities_break_ambiguity(self, instance_1a):
        """{P1, P2} congested: explanations include {e3} and {e1, e2}...
        here probabilities decide."""
        topology = instance_1a.topology
        mask = mask_of(
            [topology.path("P1").id, topology.path("P2").id]
        )
        # e3 very likely congested: MAP picks {e3}.
        probabilities = np.array([0.1, 0.1, 0.9, 0.1])
        result = localize_map(topology, mask, probabilities)
        assert result.congested_links == frozenset(
            {topology.link("e3").id}
        )
        # e3 very unlikely; e1 likely; but {e1} alone does not cover P2 —
        # feasibility analysis: e2 covers P2&P3, P3 good -> e2 infeasible;
        # so {e3} remains the only cover and MAP must still return it.
        probabilities = np.array([0.9, 0.9, 0.01, 0.9])
        result = localize_map(topology, mask, probabilities)
        assert topology.link("e3").id in result.congested_links

    def test_map_beats_smallest_set_when_likelihood_differs(
        self, instance_1a
    ):
        """All paths congested: {e2, e3} vs {e2, e1} vs {e1, e2, e3...}.
        With e3 nearly sure and e1 unlikely, MAP includes e3."""
        topology = instance_1a.topology
        mask = topology.all_paths_mask
        probabilities = np.array([0.05, 0.6, 0.95, 0.05])
        result = localize_map(topology, mask, probabilities)
        assert topology.link("e3").id in result.congested_links
        assert topology.link("e2").id in result.congested_links

    def test_log_likelihood_reported(self, instance_1a):
        topology = instance_1a.topology
        mask = mask_of([topology.path("P1").id])
        result = localize_map(
            topology, mask, np.full(topology.n_links, 0.2)
        )
        assert np.isfinite(result.log_likelihood)


class TestSearchBudget:
    """``max_nodes`` is one budget per call, shared by the components."""

    @staticmethod
    def two_paths():
        """Two disjoint two-hop paths, every link at probability 0.9: each
        path's search expands 3 nodes (the root, {first link} and the
        optimum {both links})."""
        topology = TopologyBuilder.from_paths(
            [["a", "b", "c"], ["x", "y", "z"]]
        )
        return topology, np.full(topology.n_links, 0.9)

    @pytest.mark.parametrize("max_nodes", range(1, 9))
    def test_answer_covers_the_mask_at_any_budget(self, max_nodes):
        topology, probabilities = self.two_paths()
        result = localize_map(
            topology, 0b11, probabilities, max_nodes=max_nodes
        )
        assert topology.coverage_of(result.congested_links) == 0b11
        # One root per call: 1 + 2 + 2 nodes, as for one search.
        assert result.exact == (max_nodes >= 5)

    def test_budget_out_in_the_last_component_keeps_its_incumbent(self):
        """The root and 2 nodes for the first path leave 1 for the
        second: it finds {x->y} and stops before {x->y, y->z}."""
        topology, probabilities = self.two_paths()
        result = localize_map(topology, 0b11, probabilities, max_nodes=4)
        assert result.congested_links == {0, 1, 2}
        assert not result.exact
        weight = math.log(0.9 / (1.0 - 0.9))
        assert result.log_likelihood == 0.0 + weight + weight + weight

    def test_budget_out_before_a_later_cover_falls_back_to_greedy(self):
        """The first path takes all 3 nodes: no cover for the second,
        so the whole snapshot gets the greedy explanation."""
        topology, probabilities = self.two_paths()
        result = localize_map(topology, 0b11, probabilities, max_nodes=3)
        assert result.congested_links == (
            localize_smallest_set(topology, 0b11).congested_links
        )
        assert math.isnan(result.log_likelihood)
        assert not result.exact

    @pytest.mark.parametrize("max_nodes", [3, 4])
    def test_one_link_paths_cost_one_node_each_and_the_root(self, max_nodes):
        """Three disjoint one-link paths: the root plus one node per
        path, 4 in all, as for a search that never splits them."""
        topology = TopologyBuilder.from_paths(
            [["a", "b"], ["c", "d"], ["e", "f"]]
        )
        result = localize_map(
            topology,
            0b111,
            np.full(topology.n_links, 0.9),
            max_nodes=max_nodes,
        )
        assert result.congested_links == {0, 1, 2}
        assert result.exact == (max_nodes == 4)
        assert math.isnan(result.log_likelihood) == (max_nodes == 3)

    @pytest.mark.parametrize("max_nodes", [1, 2])
    def test_one_link_component_costs_two_nodes(self, instance_1a, max_nodes):
        """P1 alone has one candidate, e1: its search expands the root
        and {e1}, so one node is not enough."""
        topology = instance_1a.topology
        result = localize_map(
            topology,
            mask_of([topology.path("P1").id]),
            np.full(topology.n_links, 0.2),
            max_nodes=max_nodes,
        )
        assert result.congested_links == {topology.link("e1").id}
        assert result.exact == (max_nodes == 2)
        assert math.isnan(result.log_likelihood) == (max_nodes == 1)

    @pytest.mark.parametrize(
        ("max_nodes", "links", "log_likelihood", "exact"),
        [
            (1, {2, 3}, math.nan, False),
            (2, {2, 3}, math.nan, False),
            (3, {2, 3}, 3.5835189384561104, False),
            (4, {0, 2, 3}, 4.430816798843313, False),
            (5, {0, 1, 2, 3}, 4.836281906951478, True),
            (200_000, {0, 1, 2, 3}, 4.836281906951478, True),
        ],
    )
    def test_one_component_budget_is_the_whole_search(
        self, instance_1a, max_nodes, links, log_likelihood, exact
    ):
        """All of Fig. 1(a)'s paths congested form one component, so the
        budget bounds one search over every candidate: these are the
        answers of a search that never splits the snapshot."""
        topology = instance_1a.topology
        result = localize_map(
            topology,
            topology.all_paths_mask,
            np.array([0.7, 0.6, 0.8, 0.9]),
            max_nodes=max_nodes,
        )
        assert result.congested_links == links
        assert result.exact == exact
        if math.isnan(log_likelihood):
            assert math.isnan(result.log_likelihood)
        else:
            assert result.log_likelihood == log_likelihood


class TestSmallestSet:
    def test_greedy_minimal_cover(self, instance_1a):
        topology = instance_1a.topology
        mask = topology.all_paths_mask
        result = localize_smallest_set(topology, mask)
        # Two links suffice: e3 (P1,P2) + e2 (P2,P3) or {e2, e3}.
        assert len(result.congested_links) == 2

    def test_empty_observation(self, instance_1a):
        result = localize_smallest_set(instance_1a.topology, 0)
        assert result.congested_links == frozenset()

    def test_tie_break_uses_scores(self, instance_1a):
        topology = instance_1a.topology
        mask = mask_of(
            [topology.path("P1").id, topology.path("P2").id]
        )
        result = localize_smallest_set(
            topology, mask, tie_break={topology.link("e3").id: 5.0}
        )
        assert topology.link("e3").id in result.congested_links


class TestPrecisionRecall:
    def test_perfect_detection(self, instance_1a):
        topology = instance_1a.topology
        e1 = topology.link("e1").id
        result = localize_map(
            topology,
            mask_of([topology.path("P1").id]),
            np.full(topology.n_links, 0.2),
        )
        precision, recall = result.precision_recall(frozenset({e1}))
        assert precision == 1.0
        assert recall == 1.0

    def test_empty_results(self, instance_1a):
        result = localize_smallest_set(instance_1a.topology, 0)
        precision, recall = result.precision_recall(frozenset())
        assert precision == 1.0
        assert recall == 1.0
        precision, recall = result.precision_recall(frozenset({0}))
        assert precision == 0.0
        assert recall == 0.0


class TestMaskHelpers:
    def test_congested_mask_from_states(self):
        states = np.array([True, False, True])
        assert congested_mask_from_states(states) == 0b101
