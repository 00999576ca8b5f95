"""Property-based optimality checks for the solvers."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse
from scipy.optimize import linprog

from repro.core.nguyen_thiran import solve_min_norm_least_squares
from repro.core.solvers import (
    _TIE_BREAK,
    L1Program,
    WarmStart,
    _log_primes,
    solve_l1,
)

finite = st.floats(
    min_value=-3.0, max_value=0.0, allow_nan=False, allow_infinity=False
)


def cold(program, values) -> bytes:
    """A cold solve's answer bytes: a fresh warm state holds no model,
    so the solve starts from the slack basis of a new instance."""
    return program.solve(values, warm=WarmStart()).tobytes()


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


#: HiGHS's default dual feasibility tolerance (``HighsOptions``).
DUAL_TOLERANCE = 1e-7


def trial_division_primes(count):
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % prime for prime in primes):
            primes.append(candidate)
        candidate += 1
    return np.array(primes)


def lp_bounds(matrix, n_aux):
    """The solver's ``x`` bounds (uncovered columns pinned to 0), then
    ``n_aux`` nonnegative auxiliaries."""
    n_cols = matrix.shape[1]
    covered = np.asarray(abs(sparse.csr_matrix(matrix)).sum(axis=0)).ravel() > 0
    bounds = np.empty((n_cols + n_aux, 2))
    bounds[:n_cols, 0] = np.where(covered, -np.inf, 0.0)
    bounds[:n_cols, 1] = 0.0
    bounds[n_cols:] = (0.0, np.inf)
    return bounds


def split_residual_lift(matrix):
    """``[R −I I]``: ``Rx − p + q = y`` with ``p, q ≥ 0``."""
    n_rows = matrix.shape[0]
    identity = sparse.identity(n_rows, format="csr")
    return sparse.hstack(
        [sparse.csr_matrix(matrix), -identity, identity], format="csr"
    )


def pure_l1_optimum(matrix, values):
    """``z* = min ‖Rx − y‖₁`` over ``x ≤ 0``, with no tie-break."""
    n_rows, n_cols = matrix.shape
    result = linprog(
        np.concatenate([np.zeros(n_cols), np.ones(2 * n_rows)]),
        A_eq=split_residual_lift(matrix),
        b_eq=values,
        bounds=lp_bounds(matrix, 2 * n_rows),
        method="highs",
    )
    assert result.success
    return result.fun


def two_stage_tie_break(matrix, values, optimum, slack):
    """Stage 2 of the reference: maximise ``Σ w_j x_j`` with the L1
    residual held at the stage-1 optimum ``z*`` (plus ``slack``, so
    HiGHS can reach the face).  Returns ``x`` and its ``Σ(p + q)``."""
    n_rows, n_cols = matrix.shape
    residual_row = np.concatenate([np.zeros(n_cols), np.ones(2 * n_rows)])
    result = linprog(
        np.concatenate([-_log_primes(n_cols), np.zeros(2 * n_rows)]),
        A_ub=residual_row[None, :],
        b_ub=[optimum + slack],
        A_eq=split_residual_lift(matrix),
        b_eq=values,
        bounds=lp_bounds(matrix, 2 * n_rows),
        method="highs",
    )
    assert result.success
    return result.x[:n_cols], result.x[n_cols:].sum()


def inequality_lift(matrix, values):
    """``[R −I; −R −I][x; t] ≤ [y; −y]`` with the same blended cost."""
    n_rows, n_cols = matrix.shape
    csr = sparse.csr_matrix(matrix)
    identity = sparse.identity(n_rows, format="csr")
    constraint = sparse.vstack(
        [sparse.hstack([csr, -identity]), sparse.hstack([-csr, -identity])],
        format="csr",
    )
    result = linprog(
        np.concatenate(
            [-_TIE_BREAK * _log_primes(n_cols), np.ones(n_rows)]
        ),
        A_ub=constraint,
        b_ub=np.concatenate([values, -values]),
        bounds=lp_bounds(matrix, n_rows),
        method="highs",
    )
    assert result.success
    return result.x[:n_cols]


def assert_canonical_l1(program, matrix, values):
    """The contract of :meth:`L1Program.solve`; returns its answer.

    *L1-optimal:* ``‖Rx − y‖₁`` equals the pure-L1 optimum ``z*``
    within ``tol = 1e-9 (1 + z*)``.

    *Tie-break-optimal within tolerance:* ``T = Σ w_j x_j`` is at least
    the two-stage reference ``T*`` minus ``δ``.  HiGHS stops at a basis
    whose reduced costs for the blended objective ``F = Σ(p + q) − ε T``
    have the right sign to within its dual feasibility tolerance ``τ``.
    Writing any feasible point against that basis, ``F`` can be lower
    than at the answer ``v = (x, p, q)`` by at most ``τ`` per unit of
    movement in a nonbasic column, so ``F(v) ≤ F(v*) + τ D`` with ``D =
    ‖v − v*‖₁ ≤ ‖x‖₁ + ‖x*‖₁ + Σ(p + q) + Σ(p* + q*)``.  The reference
    ``v*`` has residual at most ``z* + tol`` (its stage-2 slack) and
    ``v`` at least ``z* − tol``, so ``ε (T* − T) ≤ τ D + 2 tol`` and

        δ = (τ D + 2 tol) / ε.

    The bound holds whichever vertex of a near-tie HiGHS settles on,
    which is why the per-link answer is not compared on these systems.
    """
    solution = program.solve(values)
    optimum = pure_l1_optimum(matrix, values)
    tolerance = 1e-9 * (1.0 + optimum)
    residual = np.abs(matrix @ solution - values).sum()
    assert abs(residual - optimum) <= tolerance
    reference, reference_residual = two_stage_tie_break(
        matrix, values, optimum, tolerance
    )
    distance = (
        np.abs(solution).sum()
        + np.abs(reference).sum()
        + residual
        + reference_residual
    )
    delta = (DUAL_TOLERANCE * distance + 2.0 * tolerance) / _TIE_BREAK
    weights = _log_primes(matrix.shape[1])
    assert weights @ solution >= weights @ reference - delta
    return solution


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


def test_tie_break_weights_are_log_primes():
    for count in (0, 1, 5, 6, 7, 450):
        assert np.array_equal(
            _log_primes(count), np.log(trial_division_primes(count))
        )


@given(sparse_systems())
@settings(max_examples=60, deadline=None)
def test_cached_program_is_canonical_l1(system):
    matrix, right_hand_sides = system
    program = L1Program(sparse.csr_matrix(matrix))
    for values in right_hand_sides:
        expected = assert_canonical_l1(program, matrix, values)
        assert solve_l1(matrix, values).tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def brite_template():
    """The small-scale BRITE instance and its equation template: a
    real-sized lift (361 x 450 ``R``) next to the hypothesis systems,
    which stay at most 24 x 20."""
    from repro.core.streaming import EquationTemplate
    from repro.eval.figures import default_instance

    instance = default_instance("brite", scale="small")
    template = EquationTemplate.build(
        instance.topology, instance.correlation
    )
    return instance, template


@pytest.fixture(scope="module")
def brite_template_system(brite_template):
    """The template's program and ``y``s of three simulated scenarios."""
    from repro.eval.scenario import make_clustered_scenario
    from repro.simulate.experiment import ExperimentConfig, run_experiment

    instance, template = brite_template
    right_hand_sides = []
    for seed in range(3):
        scenario = make_clustered_scenario(
            instance, congested_fraction=0.1, seed=seed
        )
        run = run_experiment(
            instance.topology,
            scenario.truth_model,
            config=ExperimentConfig(n_snapshots=300, packets_per_path=800),
            seed=100 + seed,
        )
        right_hand_sides.append(template.values(run.observations))
    return template.program, right_hand_sides


@pytest.fixture(scope="module")
def stream_window_values(brite_template):
    """The template's ``y`` over four consecutive windows of a sliding
    1000-snapshot stream, each step evicting 200 snapshots."""
    from repro.eval.scenario import make_clustered_scenario
    from repro.simulate.experiment import ExperimentConfig, run_experiment
    from repro.simulate.observations import PathObservations

    instance, template = brite_template
    scenario = make_clustered_scenario(
        instance, congested_fraction=0.1, seed=7
    )
    states = run_experiment(
        instance.topology,
        scenario.truth_model,
        config=ExperimentConfig(n_snapshots=1600, packets_per_path=800),
        seed=107,
    ).observations.path_states
    observations = PathObservations(states[:1000], max_window=1000)
    right_hand_sides = [template.values(observations)]
    for start in range(1000, 1600, 200):
        observations.append_window(states[start : start + 200])
        right_hand_sides.append(template.values(observations))
    return right_hand_sides


def test_real_template_program_is_canonical_l1(brite_template_system):
    program, right_hand_sides = brite_template_system
    assert program.shape == (361, 450)
    for values in right_hand_sides:
        assert_canonical_l1(program, program.matrix, values)


def test_real_answers_do_not_depend_on_row_order_or_lift(
    brite_template_system, stream_window_values
):
    """On real systems the tie-break leaves no near-ties: permuting the
    rows of ``(R, y)`` and posing the same blended cost on the
    inequality lift give the same per-link answer."""
    program, right_hand_sides = brite_template_system
    matrix = program.matrix
    order = np.random.default_rng(0).permutation(matrix.shape[0])
    permuted = L1Program(matrix[order])
    for values in right_hand_sides + stream_window_values:
        solution = program.solve(values)
        np.testing.assert_allclose(
            permuted.solve(values[order]), solution, rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            inequality_lift(matrix, values), solution, rtol=0, atol=1e-9
        )


def test_shared_program_solves_identically_across_threads(
    brite_template_system,
):
    """Four threads solve one shared program at once, each warm-started
    from its own :class:`WarmStart`, with a short switch interval: every
    answer is the serial cold answer, byte for byte."""
    program, right_hand_sides = brite_template_system
    serial = [cold(program, values) for values in right_hand_sides]
    n_threads = 4
    barrier = threading.Barrier(n_threads)
    answers, errors = {}, []

    def solve_all(slot: int) -> None:
        warm = WarmStart()
        try:
            barrier.wait(timeout=30)
            answers[slot] = [
                program.solve(values, warm=warm).tobytes()
                for _ in range(2)
                for values in right_hand_sides
            ]
            assert warm.fallbacks == 0
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=solve_all, args=(slot,))
        for slot in range(n_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(answers) == n_threads
    for answer in answers.values():
        assert answer == serial * 2


@given(sparse_systems(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_warm_solves_equal_cold_solves_on_sparse_systems(system, random):
    """Near-degenerate small systems (duplicate rows, uncovered and
    rank-deficient columns): warm solves in a shuffled order equal cold
    solves bit for bit."""
    matrix, right_hand_sides = system
    program = L1Program(sparse.csr_matrix(matrix))
    order = right_hand_sides * 2
    random.shuffle(order)
    warm = WarmStart()
    for values in order:
        assert program.solve(values, warm=warm).tobytes() == (
            cold(program, values)
        )
    assert warm.fallbacks == 0


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_warm_solves_in_any_order_equal_cold_solves(
    brite_template_system, stream_window_values, data
):
    """The same windows, solved in a shuffled order (repeats allowed)
    through one :class:`WarmStart`, give the cold answers bit for bit:
    the polish makes the answer a function of the vertex, not of the
    basis a solve started from.  Every warm solve re-runs the one live
    model the first one built."""
    program, right_hand_sides = brite_template_system
    windows = right_hand_sides + stream_window_values
    answers = [cold(program, values) for values in windows]
    order = data.draw(
        st.lists(
            st.sampled_from(range(len(windows))),
            min_size=2,
            max_size=2 * len(windows),
        )
    )
    warm = WarmStart()
    live = None
    for index in order:
        assert program.solve(windows[index], warm=warm).tobytes() == (
            answers[index]
        )
        assert warm.program is program and warm.highs is not None
        live = live or warm.highs
        assert warm.highs is live
    assert warm.fallbacks == 0


def test_warm_stream_equals_cold_on_a_near_degenerate_window(
    brite_template,
):
    """A 4000-snapshot sliding stream of 200-snapshot windows (the
    ``stream_sliding`` recipe: 50 distinct windows of seed 13, cycled).
    Window 27's optimal face has vertices whose blended objectives differ
    by ~1e-7; under HiGHS's default feasibility tolerances a warm solve
    stopped at ``x_j = -6.5e-8`` where a cold one stopped at ``x_j = 0``.
    Every window's warm answer must equal the cold one byte for byte."""
    from repro.eval.scenario import make_clustered_scenario
    from repro.simulate.experiment import ExperimentConfig, run_experiment
    from repro.simulate.observations import PathObservations
    from repro.utils.rng import spawn_children

    instance, template = brite_template
    window, distinct = 200, 50
    scenario_seed, run_seed = spawn_children(13, 2)
    scenario = make_clustered_scenario(
        instance, congested_fraction=0.1, seed=scenario_seed
    )
    states = run_experiment(
        instance.topology,
        scenario.truth_model,
        config=ExperimentConfig(
            n_snapshots=distinct * window, packets_per_path=800
        ),
        seed=run_seed,
    ).observations.path_states
    windows = np.ascontiguousarray(states).reshape(distinct, window, -1)
    observations = PathObservations(windows[0], max_window=20 * window)
    program, warm = template.program, WarmStart()
    for index in range(1, 30):
        observations.append_window(windows[index])
        values = template.values(observations)
        assert program.solve(values, warm=warm).tobytes() == (
            cold(program, values)
        ), f"window {index}"
    assert warm.fallbacks == 0


def test_refused_polish_answers_the_raw_cold_vertex(monkeypatch):
    """Links 0 and 1 always appear together.  HiGHS answers with a
    vertex, which puts their sum on one of them; a point that splits it
    across both is L1-optimal too, but its active submatrix ``R[A, F]``
    is rank-deficient.  The polish refuses such a point: a warm solve
    re-solves cold, and the raw cold ``x`` is the answer, counted as a
    fallback.  The fresh model of that cold re-solve becomes the warm
    state's live model."""
    matrix = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    values = np.array([-1.0, -1.5, -0.5])
    program = L1Program(matrix)
    vertex = program.solve(values)
    assert vertex.tobytes() == np.array([-1.0, 0.0, -0.5]).tobytes()
    split = np.array([-0.5, -0.5, -0.5])
    models = []

    def split_vertex(highs, values):
        models.append(highs)
        return split.copy()

    monkeypatch.setattr(program, "_vertex", split_vertex)
    warm = WarmStart()
    assert program.solve(values, warm=warm).tobytes() == split.tobytes()
    assert warm.fallbacks == 1 and len(models) == 1
    assert warm.highs is models[0]
    assert program.solve(values, warm=warm).tobytes() == split.tobytes()
    assert warm.fallbacks == 2 and len(models) == 3
    assert models[1] is models[0] and models[2] is not models[0]
    assert warm.highs is models[2]
    assert program.solve(values).tobytes() == split.tobytes()


def test_direct_superlu_polish_equals_splu(
    brite_template_system, stream_window_values, monkeypatch
):
    """The polish hands SuperLU its CSC arrays directly; with
    ``csc_matrix`` + ``splu`` (the reference form, kept here) in its
    place every answer is the same bytes."""
    import repro.core.solvers as solvers
    from scipy.sparse.linalg import splu

    program, right_hand_sides = brite_template_system
    windows = right_hand_sides + stream_window_values
    direct = [program.solve(values, warm=WarmStart()) for values in windows]

    calls = []

    class SpluReference:
        @staticmethod
        def gstrf(n, nnz, data, indices, indptr, **_):
            calls.append(n)
            normal = sparse.csc_matrix((data, indices, indptr), shape=(n, n))
            assert normal.nnz == nnz
            return splu(
                normal,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )

    monkeypatch.setattr(solvers, "_superlu", SpluReference)
    for values, answer in zip(windows, direct):
        warm = WarmStart()
        reference = program.solve(values, warm=warm)
        assert warm.fallbacks == 0
        assert reference.tobytes() == answer.tobytes()
    assert len(calls) == len(windows)
