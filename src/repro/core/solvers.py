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
This program is the package's only correlation estimator: a failed LP
raises :class:`~repro.exceptions.SolverError` rather than falling back
to another objective.

The solver accepts ``R`` either dense (:class:`numpy.ndarray`) or sparse
(any :mod:`scipy.sparse` matrix).  Sparse inputs — the native output of
:meth:`repro.core.equations.EquationSystem.sparse_matrix` — flow into the
LP without a densify round-trip.  The LP lift of a fixed ``R`` is an
:class:`L1Program`, built once and solved for many ``y``;
:func:`solve_l1` is the one-shot wrapper over the same object.

:meth:`L1Program.solve` is the package's one call into HiGHS, through the
pybind binding scipy ships (``scipy.optimize._highspy._core``).  The
lifted model is built once per program with ``y`` in the bounds of fixed
columns, so a solve only sets those bounds.  Every solve is warm: it
re-runs a live HiGHS model from its last optimal basis, either the
calling thread's own model of the program or the :class:`WarmStart` a
caller passes (a stream keeps its own).  An active-set polish makes the
answer the same bytes warm or cold.
"""

from __future__ import annotations

import os
import threading

import numpy as np
from scipy import sparse
from scipy.sparse.linalg._dsolve import _superlu

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
    "solve",
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

#: The options ``scipy.sparse.linalg.splu(permc_spec="MMD_AT_PLUS_A",
#: diag_pivot_thresh=0.0, options={"SymmetricMode": True})`` hands
#: SuperLU; the polish calls SuperLU with them directly.
_POLISH_LU_OPTIONS = {
    "DiagPivotThresh": 0.0,
    "ColPerm": "MMD_AT_PLUS_A",
    "PanelSize": None,
    "Relax": None,
    "SymmetricMode": True,
}


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

    Holds one live HiGHS model of the last program it was used with.
    Successive solves of one :class:`L1Program` change only ``y``, which
    lives in fixed column bounds, so a warm solve sets those bounds on
    the live model and re-runs it from its last optimal basis: no model
    is built or converted.  The polish in :meth:`L1Program.solve` makes
    the answer a function of the optimal vertex alone, so a warm solve
    returns the same bytes as a cold one.

    A solve on another program starts cold and rebinds the warm state
    to that program's model; a solve that raises drops the live model,
    so the next one starts cold.  The live model is mutable: never let
    two threads use one warm state at once (keep one per stream or per
    thread).  It costs the memory of one solved HiGHS model, about the
    size of the lifted constraint matrix plus its factorisation
    (~0.2 MB for a 98 x 120 program, ~0.75 MB for 361 x 450).

    Attributes:
        fallbacks: Solves whose polish was refused, answered with the
            raw cold vertex instead.
    """

    __slots__ = ("program", "highs", "fallbacks")

    def __init__(self) -> None:
        self.program: L1Program | None = None
        self.highs = None
        self.fallbacks = 0


class L1Program:
    """The L1 estimate ``min ‖Rx − y‖₁ s.t. x ≤ upper_bound`` for one ``R``.

    The residual splits into ``p, q ≥ 0`` per row, and ``y`` sits in
    columns ``s`` fixed at ``y`` (cost 0), in equality form:

        [R  −I  I  −I] [x; p; q; s] = 0,    s = y,
        minimise  Σ(p + q) − ε Σ w_j x_j

    The rows never change, so a new ``y`` is one vectorised column-bound
    change on a model built once, and every solve, cold or warm, runs
    this one model.

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
    a warm solve re-solves cold on a fresh instance, which the warm
    state then adopts, and if the cold vertex is refused too the raw
    cold ``x`` is the answer and the warm state counts a fallback.

    HiGHS's primal and dual feasibility tolerances are set to 1e-10
    (its minimum; the default is 1e-7).  Neighbouring vertices of the
    blended objective differ at the 1e-7 scale, so with the defaults a
    warm and a cold solve could stop at different vertices: ``x_j = 0``
    against ``x_j = -6.5e-8`` on 2 of 100 windows of a 361 x 450
    stream.

    Columns of ``R`` that are entirely zero (links covered by no
    equation) are pinned to 0.  The model depends on ``R`` alone and is
    built once; :meth:`solve` only sets the ``s`` bounds.

    Every solve is warm.  Without ``warm=``, :meth:`solve` runs on the
    calling thread's own live model of this program: built cold on the
    thread's first solve, re-solved from its last optimal basis after
    that.  A program is therefore safe to share across threads, and it
    holds one live model per thread that has solved it.  That state is
    keyed by process id too: a process forked from a thread with a live
    model starts cold instead of re-running its copy of the parent's.
    A caller whose solves of one program interleave with others on a
    shared thread (a stream) passes its own :class:`WarmStart`.
    """

    def __init__(self, matrix, *, upper_bound: float = 0.0) -> None:
        matrix = _as_matrix(matrix)
        n_rows, n_cols = matrix.shape
        identity = sparse.identity(n_rows, format="csc")
        constraint = sparse.hstack(
            [sparse.csc_matrix(matrix), -identity, identity, -identity],
            format="csc",
        )
        constraint.sort_indices()
        covered = _covered_columns(matrix)
        n_lifted = n_cols + 3 * n_rows
        lower = np.zeros(n_lifted)
        upper = np.full(n_lifted, np.inf)
        lower[:n_cols] = np.where(covered, -np.inf, 0.0)
        upper[:n_cols] = np.where(covered, upper_bound, 0.0)
        # The s columns hold y; every solve fixes them with one
        # changeColsBounds call, so 0 here is only a placeholder.
        upper[n_cols + 2 * n_rows :] = 0.0
        # The binding copies numpy arrays into the sparse matrix element
        # by element; lists convert several times faster.
        lp_matrix = _highs.HighsSparseMatrix()
        lp_matrix.format_ = _highs.MatrixFormat.kColwise
        lp_matrix.num_row_, lp_matrix.num_col_ = constraint.shape
        lp_matrix.start_ = constraint.indptr.tolist()
        lp_matrix.index_ = constraint.indices.tolist()
        lp_matrix.value_ = constraint.data.tolist()
        lp = _highs.HighsLp()
        lp.num_row_, lp.num_col_ = constraint.shape
        lp.a_matrix_ = lp_matrix
        lp.col_cost_ = np.concatenate(
            [
                -_TIE_BREAK * _log_primes(n_cols),
                np.ones(2 * n_rows),
                np.zeros(n_rows),
            ]
        )
        lp.col_lower_ = lower
        lp.col_upper_ = upper
        lp.row_lower_ = lp.row_upper_ = np.zeros(n_rows)
        lp.integrality_ = [_highs.HighsVarType.kContinuous] * n_lifted
        options = _highs.HighsOptions()
        options.log_to_console = False
        # Presolve costs more than it saves on this form: 9.5 vs 7.1 ms
        # median per solve, interleaved, on 361 x 450 stream windows.
        options.presolve = "off"
        # Neighbouring vertices differ in the blended objective at the
        # 1e-7 scale, inside the default tolerances (see the class
        # docstring).
        options.primal_feasibility_tolerance = 1e-10
        options.dual_feasibility_tolerance = 1e-10
        self.matrix = matrix
        self.upper_bound = upper_bound
        self.shape = (n_rows, n_cols)
        self._csr = sparse.csr_matrix(matrix)
        self._csr_t = self._csr.T.tocsr()
        self._products = _row_products(self._csr)
        self._bound = upper[:n_cols].copy()
        self._offset = self._csr @ self._bound
        self._lp = lp
        self._options = options
        self._y_columns = np.arange(
            n_cols + 2 * n_rows, n_lifted, dtype=np.int32
        )
        self._local = threading.local()

    def solve(
        self, values: np.ndarray, *, warm: WarmStart | None = None
    ) -> np.ndarray:
        """The canonical L1-optimal ``x`` for one right-hand side ``y``.

        The solve re-runs a live model of this program with the new
        ``y``, starting from its last optimal basis: the one in ``warm``,
        or without it the calling thread's own (see the class
        docstring).  A warm state holding no model of this program
        starts cold on a fresh one.  The answer is the same bytes as a
        cold solve.
        """
        values = _as_values(values, self.shape[0])
        if warm is None:
            state = self._thread_warm()
            live = state.highs
        else:
            state = warm
            live = warm.highs if warm.program is self else None
        highs = live if live is not None else self._model()
        try:
            vertex = self._vertex(highs, values)
        except SolverError:
            # A failed run may leave the live model in any state.
            state.program = state.highs = None
            raise
        answer = self._polish(values, vertex)
        if answer is None and live is not None:
            highs = self._model()
            vertex = self._vertex(highs, values)
            answer = self._polish(values, vertex)
        state.highs = highs
        if warm is not None:
            warm.program = self
        if answer is None:
            state.fallbacks += 1
        return vertex if answer is None else answer

    def _thread_warm(self) -> WarmStart:
        """The calling thread's warm state for this program, in this
        process: a forked child never re-runs its parent's live model.

        Its ``program`` stays ``None``: the state already belongs to
        this program, and a reference back would make a cycle, keeping
        a one-shot program and its HiGHS model alive until the cyclic
        garbage collector runs.
        """
        local = self._local
        pid = os.getpid()
        if getattr(local, "pid", None) != pid:
            local.pid, local.warm = pid, WarmStart()
        return local.warm

    def _model(self):
        """A fresh HiGHS instance holding this program."""
        highs = _highs._Highs()
        error = _highs.HighsStatus.kError
        if highs.passOptions(self._options) == error:
            raise SolverError("L1 linear program failed: bad HiGHS options")
        if highs.passModel(self._lp) == error:
            raise SolverError("L1 linear program failed: model error")
        return highs

    def _vertex(self, highs, values: np.ndarray) -> np.ndarray:
        """HiGHS's optimal ``x`` for ``y = values`` on instance ``highs``.

        Starts from the instance's current basis: the slack basis on a
        fresh model, the last optimal basis on a live one.
        """
        error = _highs.HighsStatus.kError
        # HiGHS refuses a NaN or infinite y here, keeping the previous
        # bounds; a run() after that would solve the previous y.
        if (
            highs.changeColsBounds(
                values.size, self._y_columns, values, values
            )
            == error
        ):
            raise SolverError("L1 linear program failed: y is not finite")
        if (
            highs.run() == error
            or highs.getModelStatus() != _highs.HighsModelStatus.kOptimal
        ):
            status = highs.modelStatusToString(highs.getModelStatus())
            raise SolverError(f"L1 linear program failed: {status}")
        return np.array(highs.getSolution().col_value[: self.shape[1]])

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
            kept = np.flatnonzero(active[rows] & free[left] & free[right])
            if not kept.size:
                return None
            # int32 ids are the index type SuperLU takes.
            index = np.cumsum(free, dtype=np.int32) - 1
            size = int(index[-1]) + 1
            row_ids, col_ids = index[left[kept]], index[right[kept]]
            entry = col_ids.astype(np.int64) * size + row_ids
            first = np.ones(entry.size, dtype=bool)
            np.not_equal(entry[1:], entry[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            indptr = np.zeros(size + 1, dtype=np.int32)
            np.cumsum(
                np.bincount(col_ids[starts], minlength=size), out=indptr[1:]
            )
            values_csc = np.add.reduceat(products[kept], starts)
            try:
                # Symmetric positive definite when R[A, F] has full
                # column rank: factor it without pivoting.  The arrays
                # are already canonical CSC, so SuperLU takes them
                # directly, with the options splu would pass.
                factor = _superlu.gstrf(
                    size,
                    values_csc.size,
                    values_csc,
                    row_ids[starts],
                    indptr,
                    csc_construct_func=sparse.csc_array,
                    ilu=False,
                    options=_POLISH_LU_OPTIONS,
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


def solve(
    matrix,
    values: np.ndarray,
    *,
    upper_bound: float = 0.0,
    warm: WarmStart | None = None,
) -> tuple[np.ndarray, str]:
    """The paper's L1 estimate; returns ``(x, "l1")``.

    The one entry every inference path solves through; the second
    element is the estimator's name, recorded in each
    :class:`~repro.core.results.InferenceResult`.  Arguments are those
    of :func:`solve_l1`.
    """
    return solve_l1(matrix, values, upper_bound=upper_bound, warm=warm), "l1"
