"""Unit tests for the linear-system solvers: the paper's L1 program and
the baseline's minimum-norm least squares."""

import numpy as np
import pytest

from repro.core.nguyen_thiran import solve_min_norm_least_squares
from repro.core.solvers import L1Program, WarmStart, solve, solve_l1
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


class TestSolve:
    def test_solve_is_the_l1_program(self):
        """The one entry returns the L1 answer, named ``"l1"``, for a
        matrix and for its lifted program alike."""
        matrix = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        target = np.array([-0.5, -0.8, -0.4])
        expected = solve_l1(matrix, target).tobytes()
        for lifted in (matrix, L1Program(matrix)):
            solution, used = solve(lifted, target)
            assert used == "l1"
            assert solution.tobytes() == expected


class TestHighsFailures:
    """A right-hand side HiGHS refuses is a clean error, never a crash."""

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"]
    )
    def test_non_finite_y_raises(self, bad):
        """No entry falls back to another objective: each raises."""
        matrix = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        program = L1Program(matrix)
        values = np.array([-0.5, bad, -0.3])
        with pytest.raises(SolverError):
            program.solve(values)
        with pytest.raises(SolverError):
            solve_l1(matrix, values)
        for lifted in (matrix, program):
            with pytest.raises(SolverError):
                solve(lifted, values)

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
            program.solve(finite, warm=WarmStart()).tobytes()
        )
        assert warm.program is program and warm.fallbacks == 0


def _random_system(seed: int, n_rows: int = 36, n_cols: int = 30):
    """A sparse 0/1 routing-like ``R`` and noisy right-hand sides."""
    rng = np.random.default_rng(seed)
    matrix = (rng.random((n_rows, n_cols)) < 0.15).astype(np.float64)
    truth = -rng.exponential(0.1, size=(12, n_cols))
    noise = rng.normal(0.0, 0.01, size=(12, n_rows))
    return matrix, list(truth @ matrix.T + noise)


def _cold(program, values) -> bytes:
    return program.solve(values, warm=WarmStart()).tobytes()


class TestPerThreadWarmState:
    def test_two_threads_interleaving_two_programs_equal_cold(self):
        """Without ``warm=``, each thread re-solves its own live model of
        each program; the answers are the cold bytes throughout."""
        import sys
        import threading

        systems = [_random_system(seed) for seed in (1, 2)]
        programs = [L1Program(matrix) for matrix, _ in systems]
        expected = [
            [_cold(program, values) for values in rhs]
            for program, (_, rhs) in zip(programs, systems)
        ]
        barrier = threading.Barrier(2)
        answers, models, errors = {}, {}, []

        def run(slot: int) -> None:
            try:
                barrier.wait(timeout=30)
                got = []
                for _ in range(2):
                    for index in range(len(systems[0][1])):
                        for which in (slot, 1 - slot):
                            values = systems[which][1][index]
                            got.append(
                                (which, index,
                                 programs[which].solve(values).tobytes())
                            )
                answers[slot] = got
                models[slot] = [
                    program._thread_warm().highs for program in programs
                ]
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(s,)) for s in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and len(answers) == 2
        for got in answers.values():
            for which, index, answer in got:
                assert answer == expected[which][index], (which, index)
        # One live model per thread per program, none shared.
        live = [model for pair in models.values() for model in pair]
        assert all(model is not None for model in live)
        assert len({id(model) for model in live}) == 4
        for program in programs:
            assert program._thread_warm().fallbacks == 0

    def test_a_solved_program_is_freed_without_the_cycle_collector(self):
        """The thread's warm state does not refer back to its program,
        so a one-shot program and its live model go with the last
        reference."""
        import gc
        import weakref

        matrix, rhs = _random_system(4)
        program = L1Program(matrix)
        program.solve(rhs[0])
        freed = weakref.ref(program)
        gc.disable()
        try:
            del program
            assert freed() is None
        finally:
            gc.enable()

    def test_forked_worker_starts_cold(self):
        """A pool worker forked from a thread that holds a live model
        builds its own instead of re-running the inherited copy."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        global _FORK_PROGRAM, _FORK_VALUES
        matrix, rhs = _random_system(3)
        _FORK_PROGRAM, _FORK_VALUES = L1Program(matrix), rhs
        parent_answer = _FORK_PROGRAM.solve(rhs[0]).tobytes()
        assert _FORK_PROGRAM._thread_warm().highs is not None
        with ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            inherited, started, answers = pool.submit(_solve_in_child).result(
                timeout=120
            )
        assert inherited, "the child did not inherit the parent's state"
        assert started is None, "the child re-used the parent's live model"
        assert answers == [_cold(_FORK_PROGRAM, values) for values in rhs[:4]]
        assert answers[0] == parent_answer


_FORK_PROGRAM = _FORK_VALUES = None


def _solve_in_child():
    program = _FORK_PROGRAM
    local = program._local
    inherited = getattr(local, "warm", None) is not None
    started = program._thread_warm().highs
    answers = [program.solve(values).tobytes() for values in _FORK_VALUES[:4]]
    return inherited, started, answers
