"""Unit tests for the linear-system solvers."""

import numpy as np
import pytest

from repro.core.solvers import (
    L1Program,
    WarmStart,
    solve,
    solve_bounded_least_squares,
    solve_l1,
    solve_min_norm_least_squares,
)
from repro.exceptions import SolverError


class TestSolveL1:
    def test_exact_square_system(self):
        matrix = np.array([[1.0, 0.0], [1.0, 1.0]])
        target = np.array([-0.5, -0.8])
        solution = solve_l1(matrix, target)
        assert np.allclose(matrix @ solution, target, atol=1e-8)

    def test_respects_upper_bound(self):
        # Unconstrained solution would be positive; bound forces x <= 0.
        matrix = np.array([[1.0]])
        target = np.array([0.7])
        solution = solve_l1(matrix, target)
        assert solution[0] <= 1e-12

    def test_l1_is_robust_to_one_outlier(self):
        """Three consistent rows + one outlier: L1 fits the majority."""
        matrix = np.array([[1.0], [1.0], [1.0], [1.0]])
        target = np.array([-0.5, -0.5, -0.5, -3.0])
        solution = solve_l1(matrix, target)
        assert np.isclose(solution[0], -0.5, atol=1e-9)

    def test_uncovered_columns_pinned_to_zero(self):
        matrix = np.array([[1.0, 0.0]])
        target = np.array([-1.0])
        solution = solve_l1(matrix, target)
        assert solution[1] == 0.0

    def test_underdetermined_minimises_residual(self):
        matrix = np.array([[1.0, 1.0]])
        target = np.array([-1.0])
        solution = solve_l1(matrix, target)
        assert np.isclose(matrix @ solution, target, atol=1e-9)

    def test_shape_validation(self):
        with pytest.raises(SolverError):
            solve_l1(np.zeros(3), np.zeros(3))
        with pytest.raises(SolverError):
            solve_l1(np.zeros((2, 2)), np.zeros(3))


class TestMinNormLeastSquares:
    def test_consistent_system(self):
        matrix = np.array([[1.0, 0.0], [0.0, 1.0]])
        target = np.array([-0.3, -0.6])
        solution = solve_min_norm_least_squares(matrix, target)
        assert np.allclose(solution, target)

    def test_clipping_to_bound(self):
        matrix = np.array([[1.0]])
        target = np.array([0.5])
        solution = solve_min_norm_least_squares(matrix, target)
        assert solution[0] == 0.0

    def test_min_norm_on_underdetermined(self):
        """x = R+ y splits the value evenly across identical columns."""
        matrix = np.array([[1.0, 1.0]])
        target = np.array([-1.0])
        solution = solve_min_norm_least_squares(matrix, target)
        assert np.allclose(solution, [-0.5, -0.5])

    def test_unconstrained_direction_stays_zero(self):
        matrix = np.array([[1.0, 0.0]])
        target = np.array([-1.0])
        solution = solve_min_norm_least_squares(matrix, target)
        assert solution[1] == 0.0


class TestBoundedLeastSquares:
    def test_exact_system(self):
        matrix = np.array([[1.0, 0.0], [1.0, 1.0]])
        target = np.array([-0.5, -0.8])
        solution = solve_bounded_least_squares(matrix, target)
        assert np.allclose(matrix @ solution, target, atol=1e-6)

    def test_bound_active(self):
        matrix = np.array([[1.0]])
        target = np.array([0.4])
        solution = solve_bounded_least_squares(matrix, target)
        assert solution[0] <= 1e-9

    def test_uncovered_columns_zeroed(self):
        matrix = np.array([[1.0, 0.0], [1.0, 0.0]])
        target = np.array([-0.5, -0.6])
        solution = solve_bounded_least_squares(matrix, target)
        assert solution[1] == 0.0


class TestDispatch:
    def test_named_solvers(self):
        matrix = np.array([[1.0]])
        target = np.array([-1.0])
        for method in ("l1", "least_squares", "min_norm"):
            solution, used = solve(matrix, target, method=method)
            assert used == method
            assert np.isclose(solution[0], -1.0, atol=1e-6)

    def test_auto_prefers_l1(self):
        _, used = solve(
            np.array([[1.0]]), np.array([-1.0]), method="auto"
        )
        assert used == "l1"

    def test_unknown_method_rejected(self):
        with pytest.raises(SolverError, match="unknown solver"):
            solve(np.array([[1.0]]), np.array([-1.0]), method="magic")


class TestHighsFailures:
    """A right-hand side HiGHS refuses is a clean error, never a crash."""

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"]
    )
    def test_non_finite_y_raises_and_auto_falls_back(self, bad):
        matrix = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        program = L1Program(matrix)
        values = np.array([-0.5, bad, -0.3])
        with pytest.raises(SolverError):
            program.solve(values)
        with pytest.raises(SolverError):
            solve_l1(matrix, values)
        for lifted in (matrix, program):
            _, used = solve(lifted, values, method="auto")
            assert used == "least_squares"

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"]
    )
    def test_non_finite_y_on_a_live_model_raises(self, bad):
        """HiGHS refuses a non-finite ``y`` as column bounds and keeps
        the previous ones, so a live model re-run would answer for the
        previous ``y``: the solve must raise instead, warm and cold, and
        the next finite ``y`` gets the cold answer."""
        matrix = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        program = L1Program(matrix)
        warm = WarmStart()
        program.solve(np.array([-0.5, -0.8, -0.3]), warm=warm)
        assert warm.highs is not None
        values = np.array([-0.5, bad, -0.3])
        with pytest.raises(SolverError):
            program.solve(values, warm=warm)
        with pytest.raises(SolverError):
            program.solve(values)
        finite = np.array([-0.2, -0.9, -0.4])
        assert program.solve(finite, warm=warm).tobytes() == (
            program.solve(finite).tobytes()
        )
        assert warm.program is program and warm.fallbacks == 0
