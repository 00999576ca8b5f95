"""Unit tests for the Section-4 equation builder."""

import math

import numpy as np
import pytest

from repro.core.correlation import CorrelationStructure
from repro.core.equations import build_equations
from repro.core.prepared import PreparedTopology
from repro.exceptions import SolverError


class TestFig1aSystem:
    """The worked example of Section 4: exactly 4 equations, rank 4."""

    def test_paper_equation_counts(self, instance_1a, oracle_1a):
        system = build_equations(
            instance_1a.topology, instance_1a.correlation, oracle_1a
        )
        assert system.n_single == 3  # Eqs. 4, 5, 6
        assert system.n_pair == 1  # Eq. 7 (P2, P3)
        assert system.rank == 4
        assert system.is_fully_determined

    def test_pair_row_is_p2_p3(self, instance_1a, oracle_1a):
        """Only the (P2, P3) pair is eligible — (P1, P2) and (P1, P3)
        would introduce the joint unknown x12 (paper Eq. 8)."""
        system = build_equations(
            instance_1a.topology, instance_1a.correlation, oracle_1a
        )
        pair_rows = [row for row in system.rows if row.kind == "pair"]
        assert len(pair_rows) == 1
        topology = instance_1a.topology
        names = {topology.paths[p].name for p in pair_rows[0].paths}
        assert names == {"P2", "P3"}

    def test_pair_row_links_are_union(self, instance_1a, oracle_1a):
        """Eq. 7: y23 = x2 + x3 + x4."""
        system = build_equations(
            instance_1a.topology, instance_1a.correlation, oracle_1a
        )
        pair_row = next(row for row in system.rows if row.kind == "pair")
        topology = instance_1a.topology
        names = {topology.links[k].name for k in pair_row.link_ids}
        assert names == {"e2", "e3", "e4"}

    def test_values_match_oracle(self, instance_1a, oracle_1a):
        system = build_equations(
            instance_1a.topology, instance_1a.correlation, oracle_1a
        )
        for row in system.rows:
            if row.kind == "path":
                assert math.isclose(
                    row.value, oracle_1a.log_good(row.paths[0])
                )
            else:
                assert math.isclose(
                    row.value, oracle_1a.log_good_pair(*row.paths)
                )

    def test_matrix_shape(self, instance_1a, oracle_1a):
        system = build_equations(
            instance_1a.topology, instance_1a.correlation, oracle_1a
        )
        matrix, values = system.matrix()
        assert matrix.shape == (4, 4)
        assert values.shape == (4,)
        assert set(np.unique(matrix)) <= {0.0, 1.0}

    def test_no_uncovered_links(self, instance_1a, oracle_1a):
        system = build_equations(
            instance_1a.topology, instance_1a.correlation, oracle_1a
        )
        assert system.uncovered_links == frozenset()


class TestSelectionModes:
    def test_pair_candidate_cap(self, instance_1a, oracle_1a):
        system = build_equations(
            instance_1a.topology,
            instance_1a.correlation,
            oracle_1a,
            max_pair_candidates=0,
        )
        assert system.n_pair == 0
        assert system.rank < instance_1a.topology.n_links

    def test_deterministic_given_seed(self, instance_1a, oracle_1a):
        a = build_equations(
            instance_1a.topology,
            instance_1a.correlation,
            oracle_1a,
            pair_order_seed=7,
        )
        b = build_equations(
            instance_1a.topology,
            instance_1a.correlation,
            oracle_1a,
            pair_order_seed=7,
        )
        assert [r.paths for r in a.rows] == [r.paths for r in b.rows]


class TestCorrelationFiltering:
    def test_trivial_structure_admits_all_paths(
        self, instance_1a, oracle_1a
    ):
        trivial = CorrelationStructure.trivial(instance_1a.topology)
        system = build_equations(
            instance_1a.topology, trivial, oracle_1a
        )
        assert len(system.eligible_paths) == instance_1a.topology.n_paths

    def test_fully_correlated_structure_blocks_multilink_paths(
        self, instance_1a, oracle_1a
    ):
        topology = instance_1a.topology
        one_set = CorrelationStructure(
            topology, [list(range(topology.n_links))]
        )
        system = build_equations(topology, one_set, oracle_1a)
        # Every Fig-1(a) path has two links, both in the single set.
        assert system.eligible_paths == ()
        with pytest.raises(SolverError, match="no equations"):
            system.matrix()

    def test_soundness_under_factorisation(self, instance_1a, oracle_1a):
        """Every accepted row must be *exactly* consistent with the true
        log-good probabilities: x_true solves the system when links
        spanning different sets are independent."""
        system = build_equations(
            instance_1a.topology, instance_1a.correlation, oracle_1a
        )
        # x_true from the per-link good probabilities of the ground truth.
        import numpy as np

        from tests.conftest import make_fig1a_model

        model = make_fig1a_model(instance_1a)
        truth = model.link_marginals()
        x_true = np.log(1.0 - truth)
        matrix, values = system.matrix()
        residual = matrix @ x_true - values
        assert np.allclose(residual, 0.0, atol=1e-9)


class TestSharedLinkPairEnumeration:
    def test_disjoint_pairs_never_examined(self, instance_1a):
        """Pairs without shared links are provably redundant given the
        single-path rows; the builder's candidate list (every pair it
        may examine) holds none of them."""
        prepared = PreparedTopology.build(
            instance_1a.topology, instance_1a.correlation
        )
        topology = instance_1a.topology
        assert prepared.candidates.shape[0] > 0
        for a, b in prepared.candidates.tolist():
            shared = set(topology.paths[a].link_ids) & set(
                topology.paths[b].link_ids
            )
            assert shared
