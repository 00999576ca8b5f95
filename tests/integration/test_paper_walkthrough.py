"""Integration tests reproducing the paper's worked material verbatim.

Covers: the Section-3.1 coverage tables for Figures 1(a) and 1(b), the
Section-3.2 proof illustration (Steps 1–4) with its measured ratios and
factor ordering, the Appendix-A.2 eight-state table, and the Section-4
equation walkthrough (Eqs. 4–8).
"""

import math

import numpy as np
import pytest

from repro.core.equations import build_equations
from repro.core.state import iter_exact_covers
from repro.core.theorem import TheoremAlgorithm


class TestSection32ProofIllustration:
    """The paper's Step 1 .. Step 4 on Figure 1(a)."""

    def test_step1_alpha_e1(self, instance_1a, oracle_1a):
        """P(ψ(S)=ψ({e1})) / P(ψ(S)=∅) = α_{e1}."""
        topology = instance_1a.topology
        mask = 1 << topology.path("P1").id
        ratio = oracle_1a.p_congested_mask(mask) / oracle_1a.p_congested_mask(0)
        # Ground truth α_{e1} = P(S1={e1}) / P(S1=∅) = 0.05/0.7.
        assert math.isclose(ratio, 0.05 / 0.7, abs_tol=1e-12)

    def test_step2_alpha_e3(self, instance_1a, oracle_1a):
        """P(ψ(S)=ψ({e3})) / P(ψ(S)=∅) = (1 + α_{e1}) · α_{e3}."""
        topology = instance_1a.topology
        mask = (1 << topology.path("P1").id) | (
            1 << topology.path("P2").id
        )
        ratio = oracle_1a.p_congested_mask(mask) / oracle_1a.p_congested_mask(0)
        alpha_e1 = 0.05 / 0.7
        alpha_e3 = 0.3 / 0.7
        assert math.isclose(
            ratio, (1 + alpha_e1) * alpha_e3, abs_tol=1e-12
        )

    def test_step3_ordering(self, instance_1a):
        """The ordering ⟨{e1},{e4},{e3},{e2},{e1,e2}⟩ — by coverage
        count, with the {e1}/{e4} and {e3}/{e2} ties in either order."""
        topology = instance_1a.topology
        algorithm = TheoremAlgorithm(topology, instance_1a.correlation)
        names = [
            frozenset(topology.links[k].name for k in subset)
            for subset in algorithm.ordered_subsets
        ]
        assert set(names[:2]) == {frozenset({"e1"}), frozenset({"e4"})}
        assert set(names[2:4]) == {frozenset({"e3"}), frozenset({"e2"})}
        assert names[4] == frozenset({"e1", "e2"})

    def test_step4_joint_via_independence(
        self, instance_1a, oracle_1a, model_1a
    ):
        """P(X_e1=1, X_e3=1) = P(X_e1=1) · P(X_e3=1)."""
        result = TheoremAlgorithm(
            instance_1a.topology, instance_1a.correlation
        ).identify(oracle_1a)
        topology = instance_1a.topology
        e1, e3 = topology.link("e1").id, topology.link("e3").id
        assert math.isclose(
            result.joint({e1, e3}),
            result.link_marginals[e1] * result.link_marginals[e3],
            abs_tol=1e-12,
        )

    def test_appendix_eight_states_for_all_paths_congested(
        self, instance_1a
    ):
        """Appendix A.2: ψ(S) = ψ({e1,e2}) = all paths admits exactly
        the 8 listed network states."""
        topology = instance_1a.topology
        correlation = instance_1a.correlation
        per_set = []
        for set_index in range(correlation.n_sets):
            candidates = [(frozenset(), 0)]
            for subset in correlation.subsets_of_set(set_index):
                candidates.append(
                    (subset, topology.coverage_of(subset))
                )
            per_set.append(candidates)
        states = [
            frozenset().union(*state)
            for state in iter_exact_covers(
                topology.all_paths_mask, per_set
            )
        ]
        assert len(states) == 8
        name = lambda k: topology.links[k].name  # noqa: E731
        as_names = {
            frozenset(name(k) for k in state) for state in states
        }
        expected = {
            frozenset({"e1", "e2"}),
            frozenset({"e1", "e2", "e3"}),
            frozenset({"e1", "e2", "e4"}),
            frozenset({"e1", "e2", "e3", "e4"}),
            frozenset({"e3", "e4"}),
            frozenset({"e1", "e3", "e4"}),
            frozenset({"e2", "e3", "e4"}),
            frozenset({"e2", "e3"}),
        }
        assert as_names == expected


class TestSection4Equations:
    """Eqs. 4–8 of the algorithm section."""

    def test_equations_4_to_7(self, instance_1a, oracle_1a):
        system = build_equations(
            instance_1a.topology, instance_1a.correlation, oracle_1a
        )
        topology = instance_1a.topology
        by_kind = {}
        for row in system.rows:
            names = frozenset(
                topology.links[k].name for k in row.link_ids
            )
            by_kind[names] = row
        # Eq. 4: y1 = x1 + x3; Eq. 5: y2 = x2 + x3; Eq. 6: y3 = x2 + x4.
        assert frozenset({"e1", "e3"}) in by_kind
        assert frozenset({"e2", "e3"}) in by_kind
        assert frozenset({"e2", "e4"}) in by_kind
        # Eq. 7: y23 = x2 + x3 + x4.
        assert frozenset({"e2", "e3", "e4"}) in by_kind

    def test_equation_8_is_rejected(self, instance_1a, oracle_1a):
        """The pair (P1, P2) would introduce x12 — examined (the paths
        share e3) but never eligible, so never emitted."""
        from repro.core.prepared import PreparedTopology

        topology = instance_1a.topology
        prepared = PreparedTopology.build(topology, instance_1a.correlation)
        p1, p2 = topology.path("P1").id, topology.path("P2").id
        pairs = [set(pair) for pair in prepared.candidates.tolist()]
        assert {p1, p2} in pairs
        assert not prepared.pair_eligible[pairs.index({p1, p2})]
        system = build_equations(
            topology, instance_1a.correlation, oracle_1a
        )
        for row in system.rows:
            assert set(row.paths) != {p1, p2}

    def test_solution_recovers_x(self, instance_1a, oracle_1a, truth_1a):
        """Solving the 4-equation system yields x_k = log P(X_ek=0)."""
        from repro.core.solvers import solve_l1

        system = build_equations(
            instance_1a.topology, instance_1a.correlation, oracle_1a
        )
        matrix, values = system.matrix()
        solution = solve_l1(matrix, values)
        assert np.allclose(
            solution, np.log(1.0 - truth_1a), atol=1e-6
        )


class TestWhyNotOneBigSet:
    """Section 3.3: assigning all links to one correlation set leaves
    nothing inferable beyond end-to-end measurements."""

    def test_no_equations_under_one_set(self, instance_1a, oracle_1a):
        from repro.core.correlation import CorrelationStructure

        topology = instance_1a.topology
        one_set = CorrelationStructure(
            topology, [list(range(topology.n_links))]
        )
        system = build_equations(topology, one_set, oracle_1a)
        assert not system.rows

    def test_transformed_graph_has_one_link_per_path(self, instance_1a):
        from repro.core.correlation import CorrelationStructure
        from repro.core.transform import transform_until_identifiable

        topology = instance_1a.topology
        one_set = CorrelationStructure(
            topology, [list(range(topology.n_links))]
        )
        result = transform_until_identifiable(topology, one_set)
        assert result.topology.n_links == topology.n_paths
        for path in result.topology.paths:
            assert path.length == 1
