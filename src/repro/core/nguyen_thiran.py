"""Classic single-path variant of the independence algorithm [12].

Reference ablation: Nguyen & Thiran's original formulation learns link
probabilities from *single-path* good frequencies only,

    y_i = Σ_{k: e_k ∈ P_i} x_k        for every path P_i,

solved in the least-squares sense with the sign constraint ``x ≤ 0``.  Our
headline "independence algorithm" additionally uses pairwise observations
(the same machinery the correlation algorithm gets); this module preserves
the narrower original so the contribution of pair equations can be
measured.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.interfaces import PathGoodProvider, batch_log_good_all
from repro.core.results import InferenceResult
from repro.core.solvers import solve
from repro.core.topology import Topology

__all__ = ["infer_congestion_single_path"]

#: Per-topology SVD of the routing matrix.  The baseline solves the same
#: matrix against fresh measurements every trial of a sweep, so the
#: factorisation is hoisted out of the per-trial loop; entries die with
#: their topology.
_MIN_NORM_FACTORS: "weakref.WeakKeyDictionary[Topology, tuple]" = (
    weakref.WeakKeyDictionary()
)


def _min_norm_factor(topology: Topology) -> tuple:
    factor = _MIN_NORM_FACTORS.get(topology)
    if factor is None:
        matrix = topology.routing_matrix()
        u, singular, vt = np.linalg.svd(matrix, full_matrices=False)
        cutoff = (
            np.finfo(np.float64).eps
            * max(matrix.shape)
            * (singular[0] if singular.size else 0.0)
        )
        keep = singular > cutoff
        inverse = np.zeros_like(singular)
        inverse[keep] = 1.0 / singular[keep]
        factor = (u, inverse, vt, int(np.count_nonzero(keep)))
        _MIN_NORM_FACTORS[topology] = factor
    return factor


def infer_congestion_single_path(
    topology: Topology,
    measurements: PathGoodProvider,
    *,
    solver: str = "min_norm",
) -> InferenceResult:
    """Infer link probabilities from single-path equations only.

    Every path contributes a row regardless of correlation (the method
    assumes independent links); there are no pair rows, so the system is
    typically rank deficient and the solver's minimum-error criterion picks
    the solution.
    """
    matrix = topology.routing_matrix()
    values = batch_log_good_all(measurements, topology.n_paths)
    if solver == "min_norm":
        # Min-norm least squares through the topology's cached SVD:
        # ``x = V Σ⁺ Uᵀ y``.  One factorisation serves every measurement
        # batch, and the rank falls out of the spectrum — no per-trial
        # ``lstsq``/``matrix_rank`` passes.
        u, inverse_singular, vt, rank = _min_norm_factor(topology)
        solution = vt.T @ (inverse_singular * (u.T @ values))
        solver_used = "min_norm"
    else:
        solution, solver_used = solve(matrix, values, method=solver)
        rank = int(np.linalg.matrix_rank(matrix))
    solution = np.minimum(solution, 0.0)
    probabilities = np.clip(1.0 - np.exp(solution), 0.0, 1.0)
    return InferenceResult(
        algorithm="nguyen_thiran",
        congestion_probabilities=probabilities,
        log_good=solution,
        uncovered_links=frozenset(),
        n_single_equations=topology.n_paths,
        n_pair_equations=0,
        rank=int(rank),
        solver=solver_used,
        diagnostics={"n_links": topology.n_links},
    )
