"""Sparse-input behaviour of the solver layer."""

import numpy as np
import pytest
from scipy import sparse

from repro.core.nguyen_thiran import (
    min_norm_least_squares_with_rank,
    solve_min_norm_least_squares,
)
from repro.core.solvers import solve, solve_l1
from repro.exceptions import SolverError


def random_system(seed, n_rows=30, n_cols=20):
    rng = np.random.default_rng(seed)
    matrix = (rng.random((n_rows, n_cols)) < 0.2).astype(np.float64)
    matrix[0, 0] = 1.0  # ensure at least one covered column
    values = -rng.random(n_rows)
    return matrix, values


class TestSparseL1:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_and_dense_inputs_agree_exactly(self, seed):
        matrix, values = random_system(seed)
        dense = solve_l1(matrix, values)
        csr = solve_l1(sparse.csr_matrix(matrix), values)
        coo = solve_l1(sparse.coo_matrix(matrix), values)
        assert np.array_equal(dense, csr)
        assert np.array_equal(dense, coo)

    def test_uncovered_columns_pinned_on_sparse_input(self):
        matrix = sparse.csr_matrix(np.array([[1.0, 0.0]]))
        solution = solve_l1(matrix, np.array([-1.0]))
        assert solution[1] == 0.0
        assert np.isclose(solution[0], -1.0, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SolverError):
            solve_l1(sparse.csr_matrix(np.eye(2)), np.zeros(3))


class TestSparseLeastSquares:
    def test_min_norm_accepts_sparse(self):
        matrix, values = random_system(6)
        dense = solve_min_norm_least_squares(matrix, values)
        via_sparse = solve_min_norm_least_squares(
            sparse.csr_matrix(matrix), values
        )
        assert np.array_equal(dense, via_sparse)


class TestMinNormRank:
    def test_rank_matches_matrix_rank(self):
        matrix, values = random_system(7)
        _, rank = min_norm_least_squares_with_rank(matrix, values)
        assert rank == np.linalg.matrix_rank(matrix)

    def test_rank_deficient_system(self):
        matrix = np.array([[1.0, 1.0], [2.0, 2.0]])
        solution, rank = min_norm_least_squares_with_rank(
            matrix, np.array([-1.0, -2.0])
        )
        assert rank == 1
        assert np.allclose(solution, [-0.5, -0.5])


class TestDispatch:
    def test_solve_dispatches_sparse(self):
        """``solve`` hands sparse input to the L1 program unchanged."""
        matrix, values = random_system(8)
        dense_solution, dense_used = solve(matrix, values)
        sparse_solution, sparse_used = solve(
            sparse.csr_matrix(matrix), values
        )
        assert dense_used == sparse_used == "l1"
        assert np.array_equal(dense_solution, sparse_solution)
