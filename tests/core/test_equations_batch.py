"""Batch equation-builder equivalence and sparse assembly tests."""

import numpy as np

from repro.core.correlation import CorrelationStructure
from repro.core.equations import build_equations
from repro.core.prepared import _RankTracker
from repro.utils.rng import as_generator


def simulated_observations(instance, seed, n_snapshots=400):
    from repro.eval import make_clustered_scenario
    from repro.simulate import ExperimentConfig, run_experiment

    scenario = make_clustered_scenario(
        instance, congested_fraction=0.10, seed=seed
    )
    run = run_experiment(
        instance.topology,
        scenario.truth_model,
        config=ExperimentConfig(n_snapshots=n_snapshots, packets_per_path=300),
        seed=seed + 1,
    )
    return run.observations


class TestBatchScalarEquivalence:
    def test_rebuild_is_deterministic(self, planetlab_small):
        observations = simulated_observations(planetlab_small, seed=12)
        first = build_equations(
            planetlab_small.topology,
            planetlab_small.correlation,
            observations,
        )
        second = build_equations(
            planetlab_small.topology,
            planetlab_small.correlation,
            observations,
        )
        assert [r.paths for r in first.rows] == [
            r.paths for r in second.rows
        ]
        assert [r.value for r in first.rows] == [
            r.value for r in second.rows
        ]


class TestSparseAssembly:
    def test_sparse_matches_dense(self, planetlab_small):
        observations = simulated_observations(planetlab_small, seed=13)
        system = build_equations(
            planetlab_small.topology,
            planetlab_small.correlation,
            observations,
        )
        sparse_matrix, sparse_values = system.sparse_matrix()
        dense_matrix, dense_values = system.matrix()
        assert np.array_equal(sparse_matrix.toarray(), dense_matrix)
        assert np.array_equal(sparse_values, dense_values)
        assert set(np.unique(dense_matrix)) <= {0.0, 1.0}

    def test_rows_have_unit_coefficients_on_their_links(
        self, planetlab_small
    ):
        observations = simulated_observations(planetlab_small, seed=14)
        system = build_equations(
            planetlab_small.topology,
            planetlab_small.correlation,
            observations,
        )
        matrix, _ = system.sparse_matrix()
        for index, row in enumerate(system.rows):
            dense_row = matrix.getrow(index).toarray().ravel()
            assert set(np.flatnonzero(dense_row)) == set(row.link_ids)


class TestRankTracker:
    def test_clone_is_independent(self):
        tracker = _RankTracker(4)
        assert tracker.try_add(np.array([1.0, 1.0, 0.0, 0.0]))
        snapshot = tracker.clone()
        assert tracker.try_add(np.array([0.0, 1.0, 1.0, 0.0]))
        assert tracker.rank == 2
        assert snapshot.rank == 1
        # The clone can evolve independently and reach the same rank.
        assert snapshot.try_add(np.array([0.0, 1.0, 1.0, 0.0]))
        assert snapshot.rank == 2

    def test_dependent_rows_rejected(self):
        rng = as_generator(3)
        tracker = _RankTracker(6)
        basis = [
            np.array([1.0, 0, 0, 1, 0, 0]),
            np.array([0.0, 1, 0, 1, 0, 0]),
            np.array([0.0, 0, 1, 0, 1, 0]),
        ]
        for row in basis:
            assert tracker.try_add(row)
        for _ in range(10):
            weights = rng.normal(size=3)
            combo = sum(w * row for w, row in zip(weights, basis))
            assert not tracker.try_add(combo)
        assert tracker.rank == 3

    def test_batch_dependent_agrees_with_sequential(self):
        from scipy import sparse

        rng = as_generator(4)
        n_cols = 24
        tracker = _RankTracker(n_cols)
        for _ in range(10):
            row = (rng.random(n_cols) < 0.3).astype(np.float64)
            tracker.try_add(row)
        candidates = (rng.random((40, n_cols)) < 0.3).astype(np.float64)
        # Mix in provably dependent rows: random combinations of basis.
        stored = tracker._rows[: tracker.rank]
        for index in range(0, 40, 4):
            weights = rng.normal(size=tracker.rank)
            candidates[index] = weights @ stored
        mask = tracker.batch_dependent(sparse.csr_matrix(candidates))
        for row, dependent in zip(candidates, mask):
            residual = tracker.residual(row)
            assert dependent == (np.abs(residual).max() <= 1e-9)
