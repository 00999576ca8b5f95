"""Solvers for the tomographic linear system.

The unknowns are ``x_k = log P(X_ek = 0) ≤ 0``.  When the equation system
has full column rank the solution is unique; otherwise the paper "picks the
one that minimizes the L1 norm error" — we implement that as the linear
program

    minimize   ‖R x − y‖₁
    subject to x ≤ 0

solved by HiGHS.  A bounded least-squares alternative is provided for
ablation (:func:`solve_bounded_least_squares`) along with an automatic
chooser.

Every solver accepts ``R`` either dense (:class:`numpy.ndarray`) or sparse
(any :mod:`scipy.sparse` matrix).  Sparse inputs — the native output of
:meth:`repro.core.equations.EquationSystem.sparse_matrix` — flow into the
LP without a densify round-trip.  The LP lift of a fixed ``R`` is an
:class:`L1Program`, built once and solved for many ``y``;
:func:`solve_l1` is the one-shot wrapper over the same object.

:meth:`L1Program.solve` is the package's one call into HiGHS, through the
pybind binding scipy ships (``scipy.optimize._highspy._core``).  The
lifted matrix, bounds and objective are converted once per program, and
a solve fills only the right-hand side.  HiGHS gets the same model and
the same single option (no console log) as from scipy's own LP front
ends, so the answers are bit-identical to theirs.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import lsq_linear

from repro.exceptions import SolverError

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:  # pragma: no cover - depends on the install
    raise ImportError(
        "repro needs scipy >= 1.17: the L1 solver calls HiGHS through "
        "scipy.optimize._highspy._core"
    ) from exc

__all__ = [
    "L1Program",
    "solve_l1",
    "solve_bounded_least_squares",
    "solve_min_norm_least_squares",
    "min_norm_least_squares_with_rank",
    "solve",
    "SOLVERS",
]


def _as_matrix(matrix):
    """``R`` as float64 CSR when it came in sparse, else a 2-D array."""
    if sparse.issparse(matrix):
        return matrix.tocsr().astype(np.float64)
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise SolverError(f"R must be 2-D, got shape {matrix.shape}")
    return matrix


def _as_values(values, n_rows: int) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (n_rows,):
        raise SolverError(
            f"y has shape {values.shape}, expected ({n_rows},)"
        )
    return values


def _covered_columns(matrix) -> np.ndarray:
    """Boolean mask of columns appearing in at least one equation."""
    return np.asarray(np.abs(matrix).sum(axis=0)).ravel() > 0


def _densify(matrix) -> np.ndarray:
    return matrix.toarray() if sparse.issparse(matrix) else matrix


class L1Program:
    """The LP lift of ``min ‖Rx − y‖₁ s.t. x ≤ upper_bound`` for one ``R``.

    Auxiliary ``t ≥ |Rx − y|`` per row, minimise ``Σ t``:

        [ R  −I] [x]  ≤  [ y]
        [−R  −I] [t]     [−y]

    Columns of ``R`` that are entirely zero (links covered by no
    equation) are pinned to 0 so the LP does not wander on free
    variables.  The constraint matrix, bounds and objective depend on
    ``R`` alone and are built once; :meth:`solve` only fills ``y``.

    A program is safe to share across threads: the prebuilt HiGHS
    objects are only ever copied from, and every solve runs on its own
    model and solver.  No solve is warm-started from another, which
    could settle on a different vertex of a non-unique optimum.
    """

    def __init__(self, matrix, *, upper_bound: float = 0.0) -> None:
        matrix = _as_matrix(matrix)
        n_rows, n_cols = matrix.shape
        lifted = sparse.csr_matrix(matrix)
        identity = sparse.identity(n_rows, format="csr")
        constraint = sparse.vstack(
            [
                sparse.hstack([lifted, -identity]),
                sparse.hstack([-lifted, -identity]),
            ],
            format="csc",
        )
        constraint.sort_indices()
        covered = _covered_columns(lifted)
        lower = np.zeros(n_cols + n_rows)
        upper = np.full(n_cols + n_rows, np.inf)
        lower[:n_cols] = np.where(covered, -np.inf, 0.0)
        upper[:n_cols] = np.where(covered, upper_bound, 0.0)
        # The binding copies numpy arrays into the sparse matrix element
        # by element; lists convert several times faster.
        lp_matrix = _highs.HighsSparseMatrix()
        lp_matrix.format_ = _highs.MatrixFormat.kColwise
        lp_matrix.num_row_, lp_matrix.num_col_ = constraint.shape
        lp_matrix.start_ = constraint.indptr.tolist()
        lp_matrix.index_ = constraint.indices.tolist()
        lp_matrix.value_ = constraint.data.tolist()
        options = _highs.HighsOptions()
        options.log_to_console = False
        self.matrix = matrix
        self.upper_bound = upper_bound
        self.shape = (n_rows, n_cols)
        self._lp_matrix = lp_matrix
        self._options = options
        self._col_lower = lower
        self._col_upper = upper
        self._objective = np.concatenate([np.zeros(n_cols), np.ones(n_rows)])
        self._row_lower = np.full(2 * n_rows, -np.inf)
        self._integrality = [_highs.HighsVarType.kContinuous] * (
            n_cols + n_rows
        )

    def solve(self, values: np.ndarray) -> np.ndarray:
        """The L1-optimal ``x`` for one right-hand side ``y``."""
        n_rows, n_cols = self.shape
        values = _as_values(values, n_rows)
        lp = _highs.HighsLp()
        lp.num_row_, lp.num_col_ = 2 * n_rows, n_cols + n_rows
        lp.a_matrix_ = self._lp_matrix
        lp.col_cost_ = self._objective
        lp.col_lower_ = self._col_lower
        lp.col_upper_ = self._col_upper
        lp.row_lower_ = self._row_lower
        lp.row_upper_ = np.concatenate([values, -values])
        lp.integrality_ = self._integrality
        highs = _highs._Highs()
        error = _highs.HighsStatus.kError
        if highs.passOptions(self._options) == error:
            raise SolverError("L1 linear program failed: bad HiGHS options")
        # HiGHS rejects a NaN or infinite y here; running such a model
        # anyway crashes the interpreter.
        if highs.passModel(lp) == error:
            raise SolverError("L1 linear program failed: model error")
        if (
            highs.run() == error
            or highs.getModelStatus() != _highs.HighsModelStatus.kOptimal
        ):
            status = highs.modelStatusToString(highs.getModelStatus())
            raise SolverError(f"L1 linear program failed: {status}")
        return np.array(highs.getSolution().col_value[:n_cols])


def solve_l1(
    matrix,
    values: np.ndarray,
    *,
    upper_bound: float = 0.0,
) -> np.ndarray:
    """Minimise ``‖Rx − y‖₁`` subject to ``x ≤ upper_bound``.

    ``matrix`` may be a prebuilt :class:`L1Program` (its own bound must
    then equal ``upper_bound``); otherwise the lift is built for this one
    call.
    """
    if not isinstance(matrix, L1Program):
        matrix = L1Program(matrix, upper_bound=upper_bound)
    elif matrix.upper_bound != upper_bound:
        raise SolverError(
            f"L1 program was lifted for x <= {matrix.upper_bound}, "
            f"not x <= {upper_bound}"
        )
    return matrix.solve(values)


def min_norm_least_squares_with_rank(
    matrix,
    values: np.ndarray,
    *,
    upper_bound: float = 0.0,
) -> tuple[np.ndarray, int]:
    """Minimum-norm least squares plus the numerical rank of ``R``.

    The rank comes out of the ``lstsq`` factorisation itself — callers
    that previously ran a separate ``matrix_rank`` SVD get it for free.
    """
    dense = np.asarray(_densify(matrix), dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    solution, _, rank, _ = np.linalg.lstsq(dense, values, rcond=None)
    return np.minimum(solution, upper_bound), int(rank)


def solve_min_norm_least_squares(
    matrix,
    values: np.ndarray,
    *,
    upper_bound: float = 0.0,
) -> np.ndarray:
    """Minimum-norm least squares, clipped to ``x ≤ upper_bound``.

    This is the pseudo-inverse solution ``x = R⁺ y`` — the classic
    resolution of an under-determined tomographic system (the baseline of
    [12] learns link probabilities this way): directions unconstrained by
    the measurements stay at zero ("never congested") instead of drifting,
    and inconsistent measurements are spread across the involved links in
    the L2 sense.  The sign constraint is applied by clipping.
    """
    solution, _ = min_norm_least_squares_with_rank(
        matrix, values, upper_bound=upper_bound
    )
    return solution


def solve_bounded_least_squares(
    matrix,
    values: np.ndarray,
    *,
    upper_bound: float = 0.0,
) -> np.ndarray:
    """Minimise ``‖Rx − y‖₂`` subject to ``x ≤ upper_bound``.

    Ablation alternative to :func:`solve_l1`; uncovered columns are zeroed
    after the solve for parity with the L1 path.  Falls back to the
    clipped minimum-norm solution when the active-set iteration stalls.
    """
    matrix = _as_matrix(matrix)
    values = _as_values(values, matrix.shape[0])
    n_cols = matrix.shape[1]
    # BVLS needs a dense operator; TRF works on sparse matrices natively.
    use_bvls = n_cols <= 400
    operator = _densify(matrix) if use_bvls else matrix
    result = lsq_linear(
        operator,
        values,
        bounds=(np.full(n_cols, -np.inf), np.full(n_cols, upper_bound)),
        method="bvls" if use_bvls else "trf",
    )
    if result.status < 0 or not np.all(np.isfinite(result.x)):
        solution = solve_min_norm_least_squares(
            matrix, values, upper_bound=upper_bound
        )
    else:
        solution = result.x
    covered = _covered_columns(matrix)
    solution = np.where(covered, solution, 0.0)
    return solution


#: Registry used by the algorithm front-ends ("auto" prefers L1, falling
#: back to least squares if the LP fails — rare, but measurement noise can
#: produce degenerate systems).
SOLVERS = {
    "l1": solve_l1,
    "least_squares": solve_bounded_least_squares,
    "min_norm": solve_min_norm_least_squares,
}


def solve(
    matrix,
    values: np.ndarray,
    *,
    method: str = "l1",
    upper_bound: float = 0.0,
) -> tuple[np.ndarray, str]:
    """Dispatch to a registered solver; returns ``(x, solver_used)``.

    ``matrix`` may be an :class:`L1Program`: the L1 solver then reuses
    its lift and every other solver works on its ``R``.
    """
    plain = matrix.matrix if isinstance(matrix, L1Program) else matrix
    if method == "auto":
        try:
            return solve_l1(matrix, values, upper_bound=upper_bound), "l1"
        except SolverError:
            return (
                solve_bounded_least_squares(
                    plain, values, upper_bound=upper_bound
                ),
                "least_squares",
            )
    try:
        solver = SOLVERS[method]
    except KeyError:
        raise SolverError(
            f"unknown solver {method!r}; available: "
            f"{sorted(SOLVERS)} or 'auto'"
        ) from None
    if solver is not solve_l1:
        matrix = plain
    return solver(matrix, values, upper_bound=upper_bound), method
