"""Unit tests for the exact path-state oracle."""

import math

import numpy as np
import pytest

from repro.exceptions import MeasurementError
from repro.simulate.oracle import ExactPathStateDistribution


class TestConstruction:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(MeasurementError, match="sum to 1"):
            ExactPathStateDistribution({0: 0.4})

    def test_direct_construction(self):
        oracle = ExactPathStateDistribution({0: 0.6, 0b1: 0.4})
        assert oracle.p_congested_mask(0) == 0.6
        assert oracle.p_congested_mask(0b10) == 0.0


class TestFromModel:
    def test_total_probability(self, oracle_1a):
        assert math.isclose(
            sum(oracle_1a.masks.values()), 1.0, abs_tol=1e-9
        )

    def test_all_good_probability(self, oracle_1a):
        """P(ψ(S)=∅) = P(S1=∅)·P(S2=∅)·P(S3=∅) (paper Eq. 3)."""
        assert math.isclose(
            oracle_1a.p_congested_mask(0), 0.7 * 0.7 * 0.85
        )

    def test_single_path_event(self, instance_1a, oracle_1a):
        """P(ψ(S)={P1}) = P(S1={e1}) P(S2=∅) P(S3=∅) (Step 1)."""
        mask = 1 << instance_1a.topology.path("P1").id
        assert math.isclose(
            oracle_1a.p_congested_mask(mask), 0.05 * 0.7 * 0.85
        )

    def test_step2_event(self, instance_1a, oracle_1a):
        """P(ψ(S)={P1,P2}) sums the states {e3} and {e1,e3} (Step 2)."""
        topology = instance_1a.topology
        mask = (1 << topology.path("P1").id) | (
            1 << topology.path("P2").id
        )
        expected = 0.7 * 0.3 * 0.85 + 0.05 * 0.3 * 0.85
        assert math.isclose(oracle_1a.p_congested_mask(mask), expected)


class TestGoodProbabilities:
    def test_p_good_matches_marginal_events(
        self, instance_1a, oracle_1a, model_1a
    ):
        """P(Y=0) = P(all links of the path good)."""
        topology = instance_1a.topology
        path = topology.path("P1")
        # P1 = e3,e1: good iff e1 good and e3 good.
        e1, e3 = topology.link("e1").id, topology.link("e3").id
        p_e1_good = 1.0 - model_1a.link_marginals()[e1]
        # e1 good: states ∅ or {e2} -> 0.7 + 0.05 = 0.75.
        assert math.isclose(p_e1_good, 0.75)
        expected = 0.75 * 0.7
        assert math.isclose(oracle_1a.p_good(path.id), expected)

    def test_pair_good(self, instance_1a, oracle_1a):
        """P(Y2=0, Y3=0) = P(e2 good) P(e3 good) P(e4 good) (Eq. 7)."""
        topology = instance_1a.topology
        p2, p3 = topology.path("P2").id, topology.path("P3").id
        expected = 0.75 * 0.7 * 0.85
        assert math.isclose(oracle_1a.p_good_pair(p2, p3), expected)

    def test_log_values_finite(self, instance_1a, oracle_1a):
        for path in instance_1a.topology.paths:
            assert math.isfinite(oracle_1a.log_good(path.id))

    def test_log_floor_guards_impossible_events(self):
        oracle = ExactPathStateDistribution({0b1: 1.0})
        assert oracle.p_good(0) == 0.0
        assert math.isfinite(oracle.log_good(0))
        assert oracle.log_good(0) < -600


class TestBatchApi:
    def test_log_good_all_is_the_scalar_loop_bit_for_bit(
        self, instance_1a, oracle_1a
    ):
        n_paths = instance_1a.topology.n_paths
        batch = oracle_1a.log_good_all()
        assert batch.shape == (n_paths,) and batch.dtype == np.float64
        for path_id in range(n_paths):
            assert batch[path_id] == oracle_1a.log_good(path_id)

    def test_log_good_pairs_is_the_scalar_loop_bit_for_bit(
        self, instance_1a, oracle_1a
    ):
        n_paths = instance_1a.topology.n_paths
        pairs = np.array(
            [(a, b) for a in range(n_paths) for b in range(n_paths)]
        )
        batch = oracle_1a.log_good_pairs(pairs)
        assert batch.shape == (len(pairs),) and batch.dtype == np.float64
        for value, (a, b) in zip(batch, pairs):
            assert value == oracle_1a.log_good_pair(int(a), int(b))
        assert oracle_1a.log_good_pairs(np.zeros((0, 2))).shape == (0,)

    def test_direct_construction_covers_the_highest_named_path(self):
        oracle = ExactPathStateDistribution({0: 0.5, 0b100: 0.5})
        assert oracle.n_paths == 3
        assert oracle.log_good_all()[2] == oracle.log_good(2)
        wider = ExactPathStateDistribution({0: 1.0}, n_paths=4)
        assert np.array_equal(wider.log_good_all(), np.zeros(4))
