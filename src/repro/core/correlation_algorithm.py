"""The practical correlation algorithm (paper Section 4).

Pipeline: identify correlation-free paths and path pairs, form the linear
system over ``x_k = log P(X_ek = 0)`` (Eqs. 9–10), solve — exactly when
``N1 + N2 = |E|`` equations of full rank were gathered, by L1-error
minimisation otherwise — and convert to congestion probabilities
``P(X_ek = 1) = 1 − e^{x_k}``.

Unlike the theorem algorithm, the amount of computation depends only on
the number of links, never on ``|C̃|``; this is the algorithm evaluated in
the paper's Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.correlation import CorrelationStructure
from repro.core.equations import build_equations  # noqa: F401  (re-exported)
from repro.core.interfaces import PathGoodProvider
from repro.core.prepared import PreparedRegistry, PreparedTopology, get_prepared
from repro.core.results import InferenceResult
from repro.core.solvers import solve  # noqa: F401  (re-exported)
from repro.core.topology import Topology

__all__ = ["AlgorithmOptions", "CorrelationTomography", "infer_congestion"]


@dataclass(frozen=True)
class AlgorithmOptions:
    """Tuning knobs of the practical algorithm.

    Both knobs shape which equations the system keeps; the estimator
    itself is fixed to the paper's: rank-increasing rows only (Section
    4) and the L1 program of :mod:`repro.core.solvers`.

    Attributes:
        max_pair_candidates: Bound on examined path pairs.
        pair_order_seed: Shuffle seed for pair examination order.
    """

    max_pair_candidates: int = 200_000
    pair_order_seed: int | None = 0


def infer_congestion(
    topology: Topology,
    correlation: CorrelationStructure,
    measurements: PathGoodProvider,
    *,
    options: AlgorithmOptions | None = None,
    algorithm_label: str = "correlation",
    prepared: PreparedTopology | None = None,
    registry: PreparedRegistry | None = None,
) -> InferenceResult:
    """Run the Section-4 algorithm end to end.

    The equation structure and its lifted L1 program are the prepared
    topology's cached :class:`~repro.core.streaming.EquationTemplate`
    (built on the first call for these options), so each call pays only
    the ``y`` gather and the solve.

    Args:
        topology: The measurement topology.
        correlation: Known correlation sets.  Passing
            ``CorrelationStructure.trivial(topology)`` yields the
            independence baseline (see
            :mod:`repro.core.independence_algorithm`).
        measurements: Log-good probability provider (empirical estimator
            or exact oracle).
        options: Algorithm knobs; defaults follow the paper.
        algorithm_label: Recorded in the result for reporting.
        prepared: Pre-built measurement-independent state (skips the
            registry lookup entirely).
        registry: Prepared-state registry to resolve against; ``None``
            uses the ambient/default registry.
    """
    options = options or AlgorithmOptions()
    prepared = get_prepared(
        topology, correlation, registry=registry, prepared=prepared
    )
    return prepared.template(options).infer(
        measurements, algorithm_label=algorithm_label
    )


class CorrelationTomography:
    """Object-style front-end binding a topology and correlation structure.

    Useful when many measurement batches are inferred against the same
    instance (e.g. the sweep drivers in :mod:`repro.eval.figures`).
    """

    def __init__(
        self,
        topology: Topology,
        correlation: CorrelationStructure,
        *,
        options: AlgorithmOptions | None = None,
    ) -> None:
        self._topology = topology
        self._correlation = correlation
        self._options = options or AlgorithmOptions()
        self._prepared: PreparedTopology | None = None

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def correlation(self) -> CorrelationStructure:
        return self._correlation

    def prepare(self) -> PreparedTopology:
        """Warm (and pin) the measurement-independent prepared state."""
        if self._prepared is None:
            self._prepared = get_prepared(self._topology, self._correlation)
        return self._prepared

    def infer(self, measurements: PathGoodProvider) -> InferenceResult:
        """Infer congestion probabilities from one measurement batch."""
        return infer_congestion(
            self._topology,
            self._correlation,
            measurements,
            options=self._options,
            prepared=self.prepare(),
        )

    #: Window-incremental alias of :meth:`infer`: every call already
    #: solves on the prepared topology's cached equation template.
    update = infer
