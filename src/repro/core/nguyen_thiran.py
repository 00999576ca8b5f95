"""Nguyen & Thiran's single-path formulation [12]: the independence baseline.

The baseline learns link probabilities from *single-path* good
frequencies only,

    y_i = Σ_{k: e_k ∈ P_i} x_k        for every path P_i,

solved as minimum-norm least squares, with the sign constraint ``x ≤ 0``
applied by clipping.
:func:`repro.core.independence_algorithm.infer_congestion_independent`
runs it under the paper's baseline label.
"""

from __future__ import annotations

import weakref

import numpy as np
from scipy import sparse

from repro.core.interfaces import PathGoodProvider, batch_log_good_all
from repro.core.results import InferenceResult
from repro.core.topology import Topology

__all__ = [
    "infer_congestion_single_path",
    "min_norm_least_squares_with_rank",
    "solve_min_norm_least_squares",
]

#: Per-topology SVD of the routing matrix.  The baseline solves the same
#: matrix against fresh measurements every trial of a sweep, so the
#: factorisation is hoisted out of the per-trial loop; entries die with
#: their topology.
_MIN_NORM_FACTORS: "weakref.WeakKeyDictionary[Topology, tuple]" = (
    weakref.WeakKeyDictionary()
)


def _svd_factor(matrix: np.ndarray) -> tuple:
    """``(U, Σ⁺, Vᵀ, rank)`` of ``matrix``; singular values at or below
    ``numpy.linalg.matrix_rank``'s default cutoff count as zero."""
    u, singular, vt = np.linalg.svd(matrix, full_matrices=False)
    cutoff = (
        np.finfo(np.float64).eps
        * max(matrix.shape)
        * (singular[0] if singular.size else 0.0)
    )
    keep = singular > cutoff
    inverse = np.zeros_like(singular)
    inverse[keep] = 1.0 / singular[keep]
    return u, inverse, vt, int(np.count_nonzero(keep))


def _min_norm_factor(topology: Topology) -> tuple:
    factor = _MIN_NORM_FACTORS.get(topology)
    if factor is None:
        factor = _svd_factor(topology.routing_matrix())
        _MIN_NORM_FACTORS[topology] = factor
    return factor


def _min_norm_solve(factor: tuple, values, upper_bound: float) -> tuple:
    """``x = V Σ⁺ Uᵀ y`` clipped to ``x ≤ upper_bound``, and the rank."""
    u, inverse_singular, vt, rank = factor
    solution = vt.T @ (inverse_singular * (u.T @ values))
    return np.minimum(solution, upper_bound), rank


def min_norm_least_squares_with_rank(
    matrix,
    values: np.ndarray,
    *,
    upper_bound: float = 0.0,
) -> tuple[np.ndarray, int]:
    """The baseline's solve for any ``R`` (dense or sparse): minimum-norm
    least squares clipped to ``x ≤ upper_bound``, plus the numerical
    rank of ``R``, both out of one SVD."""
    dense = matrix.toarray() if sparse.issparse(matrix) else matrix
    return _min_norm_solve(
        _svd_factor(np.asarray(dense, dtype=np.float64)),
        np.asarray(values, dtype=np.float64),
        upper_bound,
    )


def solve_min_norm_least_squares(
    matrix,
    values: np.ndarray,
    *,
    upper_bound: float = 0.0,
) -> np.ndarray:
    """Minimum-norm least squares, clipped to ``x ≤ upper_bound``.

    This is the pseudo-inverse solution ``x = R⁺ y``, the classic
    resolution of an under-determined tomographic system: directions
    unconstrained by the measurements stay at zero ("never congested")
    instead of drifting, and inconsistent measurements are spread across
    the involved links in the L2 sense.  The sign constraint is applied
    by clipping.
    """
    solution, _ = min_norm_least_squares_with_rank(
        matrix, values, upper_bound=upper_bound
    )
    return solution


def infer_congestion_single_path(
    topology: Topology,
    measurements: PathGoodProvider,
) -> InferenceResult:
    """Infer link probabilities from single-path equations only.

    Every path contributes a row regardless of correlation (the method
    assumes independent links); there are no pair rows, so the system is
    typically rank deficient and the minimum-norm least-squares solution
    is taken.
    """
    values = batch_log_good_all(measurements, topology.n_paths)
    # Through the topology's cached SVD: one factorisation serves every
    # measurement batch, and the rank falls out of the spectrum — no
    # per-trial ``lstsq``/``matrix_rank`` passes.
    solution, rank = _min_norm_solve(
        _min_norm_factor(topology), values, 0.0
    )
    probabilities = np.clip(1.0 - np.exp(solution), 0.0, 1.0)
    return InferenceResult(
        algorithm="nguyen_thiran",
        congestion_probabilities=probabilities,
        log_good=solution,
        uncovered_links=frozenset(),
        n_single_equations=topology.n_paths,
        n_pair_equations=0,
        rank=int(rank),
        solver="min_norm",
        diagnostics={"n_links": topology.n_links},
    )
