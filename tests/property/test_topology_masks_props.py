"""The mask-based link scans equal their set-based reference forms.

``feasible_candidate_links`` and ``potentially_congested_links`` test
a path set against every link through
:meth:`repro.core.topology.Topology.links_on_paths`; the reference
forms they replaced (one ``subset_of`` per link, and a set union over
the congested paths' link ids) are kept here.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.localization import feasible_candidate_links
from repro.eval.metrics import potentially_congested_links
from repro.simulate.observations import PathObservations
from repro.utils.bitset import bools_of, subset_of
from tests.property.strategies import topologies

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def service_topology():
    from repro.serve.registry import instance_from_payload

    return instance_from_payload({"generator": {
        "kind": "brite", "n_ases": 40, "routers_per_as": 5,
        "n_paths": 120, "seed": 7,
    }}).topology


def reference_feasible(topology, congested_mask: int) -> list[int]:
    return [
        link.id
        for link in topology.links
        if topology.coverage[link.id]
        and subset_of(topology.coverage[link.id], congested_mask)
    ]


def reference_potentially_congested(topology, observations) -> np.ndarray:
    congested_paths = np.flatnonzero(observations.path_states.any(axis=0))
    links: set[int] = set()
    for path_id in congested_paths:
        links.update(topology.paths[int(path_id)].link_ids)
    return np.array(sorted(links), dtype=np.int64)


@st.composite
def masked_topologies(draw):
    """A topology and a path mask, sometimes with bits past its paths."""
    topology = draw(topologies())
    width = topology.n_paths + draw(st.integers(min_value=0, max_value=70))
    mask = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    return topology, mask


@st.composite
def observed_topologies(draw):
    topology = draw(topologies())
    n_snapshots = draw(st.integers(min_value=1, max_value=6))
    cells = draw(
        st.lists(
            st.booleans(),
            min_size=n_snapshots * topology.n_paths,
            max_size=n_snapshots * topology.n_paths,
        )
    )
    states = np.array(cells, dtype=bool).reshape(n_snapshots, -1)
    return topology, PathObservations(states)


@given(masked_topologies())
@RELAXED
def test_feasible_candidates_equal_the_subset_scan(case):
    topology, mask = case
    assert feasible_candidate_links(topology, mask) == reference_feasible(
        topology, mask
    )


@given(observed_topologies())
@RELAXED
def test_potentially_congested_equal_the_set_union(case):
    topology, observations = case
    got = potentially_congested_links(topology, observations)
    expected = reference_potentially_congested(topology, observations)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@given(st.data())
@RELAXED
def test_equal_on_the_service_topology(service_topology, data):
    """The 120-path service benchmark topology: any mask over its
    paths, or the coverage of a link set (which has candidates)."""
    topology = service_topology
    mask = data.draw(
        st.one_of(
            st.integers(min_value=0, max_value=(1 << topology.n_paths) - 1),
            st.sets(
                st.integers(min_value=0, max_value=topology.n_links - 1),
                max_size=12,
            ).map(topology.coverage_of),
        )
    )
    assert feasible_candidate_links(topology, mask) == reference_feasible(
        topology, mask
    )
    rows = data.draw(st.lists(st.just(mask), min_size=1, max_size=3))
    states = np.array(
        [bools_of(row, topology.n_paths) for row in rows], dtype=bool
    )
    observations = PathObservations(states)
    assert (
        potentially_congested_links(topology, observations).tobytes()
        == reference_potentially_congested(topology, observations).tobytes()
    )


def test_bools_of_matches_the_bits():
    mask = (1 << 130) | (1 << 64) | 0b1011
    bools = bools_of(mask, 131)
    assert bools.dtype == bool and bools.shape == (131,)
    assert np.flatnonzero(bools).tolist() == [0, 1, 3, 64, 130]
    # Bits past ``size`` are dropped; a short mask is zero-padded.
    assert np.flatnonzero(bools_of(mask, 10)).tolist() == [0, 1, 3]
    assert bools_of(0, 5).tolist() == [False] * 5
