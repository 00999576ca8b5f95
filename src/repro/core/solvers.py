"""Solvers for the tomographic linear system.

The unknowns are ``x_k = log P(X_ek = 0) ≤ 0``.  When the equation system
has full column rank the solution is unique; otherwise the paper "picks the
one that minimizes the L1 norm error" — we implement that as the linear
program

    minimize   ‖R x − y‖₁
    subject to x ≤ 0

solved by HiGHS.  Its optimum is often a whole face, so the estimate is
the one point of that face with the least weighted total inferred
congestion (see :class:`L1Program` for the tie-break and its tolerance).
A bounded least-squares alternative is provided for ablation
(:func:`solve_bounded_least_squares`) along with an automatic chooser.

Every solver accepts ``R`` either dense (:class:`numpy.ndarray`) or sparse
(any :mod:`scipy.sparse` matrix).  Sparse inputs — the native output of
:meth:`repro.core.equations.EquationSystem.sparse_matrix` — flow into the
LP without a densify round-trip.  The LP lift of a fixed ``R`` is an
:class:`L1Program`, built once and solved for many ``y``;
:func:`solve_l1` is the one-shot wrapper over the same object.

:meth:`L1Program.solve` is the package's one call into HiGHS, through the
pybind binding scipy ships (``scipy.optimize._highspy._core``).  The
lifted matrix, bounds and objective are converted once per program, and
a solve fills only the right-hand side.  A caller that solves one
program repeatedly (a stream) passes a :class:`WarmStart` so each solve
starts from the last optimal basis; an active-set polish makes the
answer the same bytes warm or cold.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import lsq_linear
from scipy.sparse.linalg import splu

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
    "WarmStart",
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


#: Weight of the tie-break in the one LP objective.  Against the unit
#: cost of the residual, ``ε · max w`` stays near 1e-3 for any network
#: this package handles (``ln p`` is ~14 at the 100,000th prime); on
#: 1500 random 0/1 systems the blended optimum stayed L1-optimal up to
#: ``ε · max w = 5e-2``.
_TIE_BREAK = 1e-4


def _log_primes(count: int) -> np.ndarray:
    """``ln p_j`` for the first ``count`` primes ``2, 3, 5, …``.

    The tie-break weights.  Logarithms of distinct primes are linearly
    independent over the rationals, so no integer combination of them
    vanishes: two vertices of a 0/1 system's optimal face cannot tie
    exactly on ``Σ w_j x_j`` unless they agree in every link.  (Weights
    that are additive, such as ``1 + frac(jφ)``, do tie: ``w_a + w_b =
    w_c + w_d`` whenever ``a + b = c + d``.)
    """
    if count == 0:
        return np.empty(0)
    # Rosser: the n-th prime is below n (ln n + ln ln n) for n >= 6.
    limit = 13
    if count >= 6:
        limit = int(count * (np.log(count) + np.log(np.log(count)))) + 1
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for factor in range(2, int(limit**0.5) + 1):
        if sieve[factor]:
            sieve[factor * factor :: factor] = False
    return np.log(np.flatnonzero(sieve)[:count])


#: Thresholds of the active-set polish.  A row is active when its
#: residual is at most this; a link is free when it sits more than this
#: below its bound; and the polish may move ``x`` by at most this times
#: ``1 + max |x|`` before the raw vertex is kept instead.
_ACTIVE_TOLERANCE = 1e-9


def _row_products(matrix) -> tuple:
    """Every product ``R_ij R_ik`` of two entries in one row of CSR ``R``.

    Returns arrays ``(i, j, k, R_ij R_ik)`` sorted by ``k``, then ``j``,
    then ``i``.  Summed over the active rows, the products of free links
    are the normal matrix ``R[A, F]ᵀ R[A, F]``, and this order lists its
    entries column by column with duplicates adjacent.
    """
    per_row = np.diff(matrix.indptr)
    row = np.repeat(np.arange(per_row.size), per_row)
    count = per_row[row]
    left = np.repeat(np.arange(row.size), count)
    offsets = np.arange(left.size) - np.repeat(np.cumsum(count) - count, count)
    right = np.repeat(matrix.indptr[row], count) + offsets
    rows, cols, data = row[left], matrix.indices, matrix.data
    order = np.lexsort((rows, cols[left], cols[right]))
    left, right, rows = left[order], right[order], rows[order]
    return rows, cols[left], cols[right], data[left] * data[right]


class WarmStart:
    """Caller-owned warm state for repeated solves of one program.

    Holds the last optimal HiGHS basis.  Successive solves of one
    :class:`L1Program` change only ``y``, so that basis stays dual
    feasible and the next solve starts from it instead of from the slack
    basis.  The polish in :meth:`L1Program.solve` makes the answer a
    function of the optimal vertex alone, so a warm solve returns the
    same bytes as a cold one.

    A warm state is bound to the last program it was used with (a solve
    on another program starts cold and rebinds it) and is not safe to
    share across threads: keep one per stream or per thread.

    Attributes:
        fallbacks: Solves whose polish was refused, answered with the
            raw cold vertex instead.
    """

    __slots__ = ("program", "basis", "fallbacks")

    def __init__(self) -> None:
        self.program: L1Program | None = None
        self.basis = None
        self.fallbacks = 0


class L1Program:
    """The L1 estimate ``min ‖Rx − y‖₁ s.t. x ≤ upper_bound`` for one ``R``.

    The residual splits into ``p, q ≥ 0`` per row, in equality form:

        [R  −I  I] [x; p; q] = y,    minimise  Σ(p + q) − ε Σ w_j x_j

    The L1 optimum is often a whole face, not one point.  The second
    term picks one point of it: among L1-optimal ``x``, the one that
    maximises ``Σ w_j x_j`` with ``w_j = ln p_j`` (the log of the j-th
    prime, see :func:`_log_primes`).  Since ``x ≤ 0``, that is the least
    weighted total inferred congestion: no congestion the data does not
    demand.  ``ε`` is small enough that the blend stays on the L1-optimal
    face, so the answer is L1-optimal and tie-break-optimal to within
    the solver's tolerance (a tie-break objective short of the best by
    less than HiGHS's optimality tolerance divided by ``ε`` is possible;
    exact uniqueness is not claimed).  Up to that tolerance the answer
    depends on ``(R, y)`` alone, not on row order or on how the LP is
    posed.

    The answer is the *polished vertex*.  HiGHS stops at an optimal
    vertex, but the bits of its ``x`` depend on the pivots that led
    there.  Every solve therefore ends with one deterministic active-set
    polish: with ``A`` the rows whose residual is within 1e-9 of 0 and
    ``F`` the links more than 1e-9 below their bound, it solves the
    normal equations of ``R[A, F] x_F = y_A`` by sparse LU and puts
    every other link at its bound.  The answer is then a function of
    ``(A, F)`` and ``y``: a solve warm-started from any basis (see
    :class:`WarmStart`) gives the same bytes as a cold one whenever it
    reaches the same vertex.  At a vertex ``R[A, F]`` has full column
    rank, so the polish moves ``x`` only by round-off.  If the normal
    matrix is singular, the result is not finite, or it would move
    ``x`` by more than ``1e-9 (1 + max |x|)``, the polish is refused:
    a warm solve re-solves cold, and if the cold vertex is refused too
    the raw cold ``x`` is the answer and the warm state counts a
    fallback.

    Columns of ``R`` that are entirely zero (links covered by no
    equation) are pinned to 0.  The constraint matrix, bounds and
    objective depend on ``R`` alone and are built once; :meth:`solve`
    only fills ``y``.

    A program is safe to share across threads: the prebuilt HiGHS
    objects are only ever copied from, and every solve runs on its own
    model and solver.  Warm state belongs to the caller, never to the
    shared program.
    """

    def __init__(self, matrix, *, upper_bound: float = 0.0) -> None:
        matrix = _as_matrix(matrix)
        n_rows, n_cols = matrix.shape
        identity = sparse.identity(n_rows, format="csc")
        constraint = sparse.hstack(
            [sparse.csc_matrix(matrix), -identity, identity], format="csc"
        )
        constraint.sort_indices()
        covered = _covered_columns(matrix)
        n_lifted = n_cols + 2 * n_rows
        lower = np.zeros(n_lifted)
        upper = np.full(n_lifted, np.inf)
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
        # Presolve costs more than it saves on this form: 9.5 vs 7.1 ms
        # median per solve, interleaved, on 361 x 450 stream windows.
        options.presolve = "off"
        self.matrix = matrix
        self.upper_bound = upper_bound
        self.shape = (n_rows, n_cols)
        self._csr = sparse.csr_matrix(matrix)
        self._csr_t = self._csr.T.tocsr()
        self._products = _row_products(self._csr)
        self._bound = upper[:n_cols].copy()
        self._offset = self._csr @ self._bound
        self._lp_matrix = lp_matrix
        self._options = options
        self._col_lower = lower
        self._col_upper = upper
        self._objective = np.concatenate(
            [-_TIE_BREAK * _log_primes(n_cols), np.ones(2 * n_rows)]
        )
        self._integrality = [_highs.HighsVarType.kContinuous] * n_lifted

    def solve(
        self, values: np.ndarray, *, warm: WarmStart | None = None
    ) -> np.ndarray:
        """The canonical L1-optimal ``x`` for one right-hand side ``y``.

        ``warm`` starts HiGHS from the basis of the last solve made with
        it and keeps this solve's basis for the next one; the answer is
        the same bytes either way.
        """
        values = _as_values(values, self.shape[0])
        basis = None
        if warm is not None and warm.program is self:
            basis = warm.basis
        vertex, vertex_basis = self._vertex(values, basis)
        answer = self._polish(values, vertex)
        if answer is None and basis is not None:
            vertex, vertex_basis = self._vertex(values, None)
            answer = self._polish(values, vertex)
        if warm is not None:
            warm.program, warm.basis = self, vertex_basis
            if answer is None:
                warm.fallbacks += 1
        return vertex if answer is None else answer

    def _vertex(self, values: np.ndarray, basis) -> tuple:
        """HiGHS's optimal ``x`` and basis, started from ``basis``."""
        n_rows, n_cols = self.shape
        lp = _highs.HighsLp()
        lp.num_row_, lp.num_col_ = n_rows, n_cols + 2 * n_rows
        lp.a_matrix_ = self._lp_matrix
        lp.col_cost_ = self._objective
        lp.col_lower_ = self._col_lower
        lp.col_upper_ = self._col_upper
        lp.row_lower_ = values
        lp.row_upper_ = values
        lp.integrality_ = self._integrality
        highs = _highs._Highs()
        error = _highs.HighsStatus.kError
        if highs.passOptions(self._options) == error:
            raise SolverError("L1 linear program failed: bad HiGHS options")
        # HiGHS rejects a NaN or infinite y here; running such a model
        # anyway crashes the interpreter.
        if highs.passModel(lp) == error:
            raise SolverError("L1 linear program failed: model error")
        if basis is not None:
            highs.setBasis(basis)
        if (
            highs.run() == error
            or highs.getModelStatus() != _highs.HighsModelStatus.kOptimal
        ):
            status = highs.modelStatusToString(highs.getModelStatus())
            raise SolverError(f"L1 linear program failed: {status}")
        solution = np.array(highs.getSolution().col_value[:n_cols])
        return solution, highs.getBasis()

    def _polish(self, values: np.ndarray, vertex: np.ndarray):
        """The vertex re-solved on its active set, or ``None`` if refused."""
        active = np.abs(self._csr @ vertex - values) <= _ACTIVE_TOLERANCE
        free = vertex < self._bound - _ACTIVE_TOLERANCE
        answer = self._bound.copy()
        if free.any():
            # x_F = bound_F + d_F, where d_F solves the normal equations
            # of R[A, F] d_F = (y - R bound)_A.  The normal matrix is
            # the sum of the active rows' entry products, which come
            # sorted into CSC order with duplicates adjacent.
            rows, left, right, products = self._products
            keep = active[rows] & free[left] & free[right]
            index = np.cumsum(free) - 1
            size = int(index[-1]) + 1
            row_ids, col_ids = index[left[keep]], index[right[keep]]
            first = np.ones(row_ids.size, dtype=bool)
            first[1:] = (row_ids[1:] != row_ids[:-1]) | (
                col_ids[1:] != col_ids[:-1]
            )
            starts = np.flatnonzero(first)
            if not starts.size:
                return None
            indptr = np.zeros(size + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(col_ids[starts], minlength=size), out=indptr[1:]
            )
            normal = sparse.csc_matrix(
                (
                    np.add.reduceat(products[keep], starts),
                    row_ids[starts],
                    indptr,
                ),
                shape=(size, size),
            )
            try:
                # Symmetric positive definite when R[A, F] has full
                # column rank: factor it without pivoting.
                factor = splu(
                    normal,
                    permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
            except RuntimeError:  # exactly singular
                return None
            target = np.where(active, values - self._offset, 0.0)
            answer[free] += factor.solve((self._csr_t @ target)[free])
            if not np.all(np.isfinite(answer)):
                return None
        scale = 1.0 + np.max(np.abs(vertex), initial=0.0)
        if np.max(np.abs(answer - vertex), initial=0.0) > (
            _ACTIVE_TOLERANCE * scale
        ):
            return None
        return np.minimum(answer, self._bound)


def solve_l1(
    matrix,
    values: np.ndarray,
    *,
    upper_bound: float = 0.0,
    warm: WarmStart | None = None,
) -> np.ndarray:
    """Minimise ``‖Rx − y‖₁`` subject to ``x ≤ upper_bound``.

    ``matrix`` may be a prebuilt :class:`L1Program` (its own bound must
    then equal ``upper_bound``); otherwise the lift is built for this one
    call.  ``warm`` is passed to :meth:`L1Program.solve`.
    """
    if not isinstance(matrix, L1Program):
        matrix = L1Program(matrix, upper_bound=upper_bound)
    elif matrix.upper_bound != upper_bound:
        raise SolverError(
            f"L1 program was lifted for x <= {matrix.upper_bound}, "
            f"not x <= {upper_bound}"
        )
    return matrix.solve(values, warm=warm)


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
    warm: WarmStart | None = None,
) -> tuple[np.ndarray, str]:
    """Dispatch to a registered solver; returns ``(x, solver_used)``.

    ``matrix`` may be an :class:`L1Program`: the L1 solver then reuses
    its lift and every other solver works on its ``R``.  ``warm`` is
    used by the L1 solver only.
    """
    plain = matrix.matrix if isinstance(matrix, L1Program) else matrix
    if method == "auto":
        try:
            solution = solve_l1(
                matrix, values, upper_bound=upper_bound, warm=warm
            )
            return solution, "l1"
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
    if solver is solve_l1:
        return solve_l1(
            matrix, values, upper_bound=upper_bound, warm=warm
        ), method
    return solver(plain, values, upper_bound=upper_bound), method
