"""The "independence algorithm" baseline (paper Section 5).

The paper compares against the algorithm of Nguyen & Thiran [12], which
learns per-link congestion probabilities under the assumption that *all*
links are independent: every path contributes the equation

    y_i = Σ_{k: e_k ∈ P_i} x_k,        x_k = log P(X_ek = 0)

(the factorisation is *assumed* to hold on every path), and the resulting
— typically under-determined and, under correlation, inconsistent —
system is solved in the least-squares sense with the sign constraint
``x ≤ 0``.

Two deviations from that baseline are available for ablation:

* :func:`repro.core.nguyen_thiran.infer_congestion_single_path` is the
  same computation with a selectable solver;
* running :func:`repro.core.correlation_algorithm.infer_congestion` with
  ``CorrelationStructure.trivial(topology)`` gives the independence
  assumption *plus* this paper's pair equations and L1 objective — i.e.
  what the baseline would gain from the paper's machinery alone
  (benchmark A1 in DESIGN.md).

When links actually are correlated, the measured ``y`` values deviate
from the assumed sums; least squares spreads the discrepancy across every
link of the involved equations, producing the cascading
mischaracterisations the paper's Figures 3–5 quantify.
"""

from __future__ import annotations

import dataclasses

from repro.core.correlation_algorithm import AlgorithmOptions
from repro.core.interfaces import PathGoodProvider
from repro.core.nguyen_thiran import infer_congestion_single_path
from repro.core.results import InferenceResult
from repro.core.topology import Topology

__all__ = ["infer_congestion_independent"]


def infer_congestion_independent(
    topology: Topology,
    measurements: PathGoodProvider,
    *,
    options: AlgorithmOptions | None = None,
) -> InferenceResult:
    """Run the independence baseline [12] on a measurement batch.

    ``options`` is accepted for interface parity with the correlation
    algorithm; only its solver choice would be meaningful, and the
    baseline's published formulation is least squares, so it is ignored.
    """
    del options  # interface parity; the baseline is fixed to [12]'s form
    result = infer_congestion_single_path(
        topology, measurements, solver="min_norm"
    )
    return dataclasses.replace(result, algorithm="independence")
