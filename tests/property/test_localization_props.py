"""Property-based invariants of snapshot localization."""

import itertools
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.builder import TopologyBuilder
from repro.core.localization import (
    feasible_candidate_links,
    localize_map,
    localize_smallest_set,
)
from repro.exceptions import MeasurementError
from repro.utils.bitset import subset_of
from tests.property.strategies import topologies

RELAXED = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def localization_cases(draw):
    """A topology plus a *realizable* congested-path observation (the
    coverage of a random link set), plus random link probabilities."""
    topology = draw(topologies(max_nodes=6, max_paths=4))
    n_links = topology.n_links
    congested = draw(
        st.sets(
            st.integers(min_value=0, max_value=n_links - 1),
            max_size=n_links,
        )
    )
    mask = topology.coverage_of(congested)
    probabilities = np.array(
        [
            draw(
                st.floats(
                    min_value=0.01,
                    max_value=0.99,
                    allow_nan=False,
                )
            )
            for _ in range(n_links)
        ]
    )
    return topology, mask, probabilities


@given(localization_cases())
@RELAXED
def test_map_explanation_is_feasible(case):
    topology, mask, probabilities = case
    result = localize_map(topology, mask, probabilities)
    covered = topology.coverage_of(result.congested_links)
    assert covered == mask
    for link_id in result.congested_links:
        assert subset_of(topology.coverage[link_id], mask)


@given(localization_cases())
@RELAXED
def test_map_is_optimal_among_enumerable_explanations(case):
    """On small instances, brute-force every feasible explanation and
    verify the branch-and-bound returns a maximiser."""
    topology, mask, probabilities = case
    result = localize_map(topology, mask, probabilities)
    if not result.exact:
        return
    candidates = feasible_candidate_links(topology, mask)
    if len(candidates) > 12:
        return

    def loglik(links):
        total = 0.0
        for k in candidates:
            p = min(max(probabilities[k], 1e-9), 1 - 1e-9)
            total += math.log(p if k in links else 1.0 - p)
        return total

    best = None
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if topology.coverage_of(combo) != mask:
                continue
            score = loglik(frozenset(combo))
            if best is None or score > best:
                best = score
    assert best is not None
    assert loglik(result.congested_links) >= best - 1e-9


def _components(topology, mask):
    """``(paths, links)`` per group of candidates joined by shared
    congested paths, grown to a fixpoint from one candidate at a time."""
    remaining = set(feasible_candidate_links(topology, mask))
    while remaining:
        links = {remaining.pop()}
        paths = topology.coverage_of(links)
        while True:
            more = {k for k in remaining if topology.coverage[k] & paths}
            if not more:
                break
            links |= more
            remaining -= more
            paths = topology.coverage_of(links)
        yield paths, frozenset(links)


@given(localization_cases())
@RELAXED
def test_map_separates_over_components(case):
    """Each component's part of the answer is the answer on that
    component's paths alone: what else is congested never matters."""
    topology, mask, probabilities = case
    result = localize_map(topology, mask, probabilities)
    for paths, links in _components(topology, mask):
        alone = localize_map(topology, paths, probabilities)
        assert result.congested_links & links == alone.congested_links
        assert alone.exact


def test_tie_in_one_component_ignores_another():
    """Two disjoint two-hop paths: either link of a path explains it
    alone, at equal weight.  The choice on the second path is the same
    whether or not the first path is congested too."""
    topology = TopologyBuilder.from_paths(
        [["a", "b", "c"], ["x", "y", "z"]]
    )
    probabilities = np.array([0.1, 0.1, 0.2, 0.2])
    first = localize_map(topology, 0b01, probabilities)
    second = localize_map(topology, 0b10, probabilities)
    both = localize_map(topology, 0b11, probabilities)
    assert second.congested_links == {topology.link("x->y").id}
    assert both.congested_links == (
        first.congested_links | second.congested_links
    )
    assert both.exact
    # Summed in the global candidate order: the 0.2 link first.
    assert both.log_likelihood == (
        0.0 + math.log(0.2 / (1.0 - 0.2)) + math.log(0.1 / (1.0 - 0.1))
    )


@given(localization_cases())
@RELAXED
def test_smallest_set_is_feasible_and_minimal_ish(case):
    topology, mask, probabilities = case
    result = localize_smallest_set(topology, mask)
    assert topology.coverage_of(result.congested_links) == mask
    # Greedy set cover is within ln(n)+1 of optimal; on these tiny
    # instances just check it never exceeds the candidate count.
    assert len(result.congested_links) <= max(
        1, len(feasible_candidate_links(topology, mask))
    )


@given(localization_cases())
@RELAXED
def test_trim_mode_never_raises(case):
    """With arbitrary (even unrealizable) masks, trim mode completes."""
    topology, mask, probabilities = case
    # Corrupt the mask by flipping the lowest path bit.
    corrupted = mask ^ 1
    try:
        result = localize_map(
            topology, corrupted, probabilities, on_infeasible="trim"
        )
    except MeasurementError:
        raise AssertionError("trim mode must not raise")
    explained = topology.coverage_of(result.congested_links)
    # The explanation covers exactly the cleaned observation, and the
    # trimmed noise is disjoint from it and inside the original mask.
    assert explained == corrupted & ~result.noise_paths
    assert not explained & result.noise_paths
    assert subset_of(result.noise_paths, corrupted)
