"""Window-incremental inference: the streaming face of Section 4.

With the paper's ``"independent"`` selection (and with ``"all"``),
*which* rows of the equation system are accepted depends only on the
prepared topology — acceptance is decided by rank tracking over rows
derived from path link-id sets, never by the measured values.  The
accepted row **structure**, and with it the lifted L1 program, is
therefore constant across measurement batches and is paid for once:

* :class:`EquationTemplate` runs the equation builder a single time
  without measurements (structure only), caches the assembled CSR
  matrix, its :class:`~repro.core.solvers.L1Program` lift and the
  per-row value sources (path id for Eq.-9 rows, path pair for Eq.-10
  rows), and thereafter re-derives only the right-hand-side vector
  ``y`` from fresh measurements plus one solve.  It is the one
  inference path: :meth:`PreparedTopology.template
  <repro.core.prepared.PreparedTopology.template>` keeps one per set of
  structure-shaping options, and batch inference
  (:func:`~repro.core.correlation_algorithm.infer_congestion`), the
  service, the predictor and the stream engine all solve on it.
* :class:`StreamingTomography` wraps the template with per-window change
  detection: boolean verdicts against a probability threshold, onset /
  clear diffs between consecutive windows with their event timestamps,
  and optional MAP localization of the newest snapshot.

Used by the ``stream`` CLI subcommand, the ``/stream`` service endpoint,
and the detection-latency evaluation in :mod:`repro.eval.streaming`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.correlation import CorrelationStructure
from repro.core.correlation_algorithm import AlgorithmOptions
from repro.core.equations import (
    _pair_values,
    _single_values,
    build_equations,
)
from repro.core.interfaces import PathGoodProvider
from repro.core.localization import LocalizationResult, localize_map
from repro.core.prepared import (
    PreparedRegistry,
    PreparedTopology,
    get_prepared,
)
from repro.core.results import InferenceResult
from repro.core.solvers import L1Program, WarmStart, solve
from repro.core.topology import Topology

__all__ = ["EquationTemplate", "WindowVerdict", "StreamingTomography"]


@dataclass(frozen=True)
class EquationTemplate:
    """The measurement-independent half of one equation system, cached.

    Build once per ``(topology, correlation)`` and structure-shaping
    options with :meth:`build` (or get the shared one from
    :meth:`PreparedTopology.template
    <repro.core.prepared.PreparedTopology.template>`); then :meth:`infer`
    re-derives only the ``y`` vector and solves.  ``options.solver`` is
    the only field that does not shape the structure.
    """

    topology: Topology
    options: AlgorithmOptions
    program: L1Program
    single_paths: np.ndarray
    pair_array: np.ndarray
    n_single: int
    n_pair: int
    rank: int
    n_eligible: int
    uncovered_links: frozenset[int]
    fully_determined: bool

    @classmethod
    def build(
        cls,
        topology: Topology,
        correlation: CorrelationStructure,
        *,
        options: AlgorithmOptions | None = None,
        prepared: PreparedTopology | None = None,
        registry: PreparedRegistry | None = None,
    ) -> "EquationTemplate":
        """Extract the accepted row structure for this instance."""
        options = options or AlgorithmOptions()
        system = build_equations(
            topology,
            correlation,
            None,
            selection=options.selection,
            max_pair_candidates=options.max_pair_candidates,
            pair_order_seed=options.pair_order_seed,
            prepared=prepared,
            registry=registry,
        )
        matrix, _ = system.sparse_matrix()
        # build_equations appends every Eq.-9 row before the Eq.-10 rows.
        paths = [row.paths for row in system.rows]
        return cls(
            topology=topology,
            options=options,
            program=L1Program(matrix),
            single_paths=np.array(
                [row[0] for row in paths[: system.n_single]],
                dtype=np.int64,
            ),
            pair_array=np.array(
                paths[system.n_single :], dtype=np.int64
            ).reshape(-1, 2),
            n_single=system.n_single,
            n_pair=system.n_pair,
            rank=system.rank,
            n_eligible=len(system.eligible_paths),
            uncovered_links=system.uncovered_links,
            fully_determined=system.is_fully_determined,
        )

    @property
    def n_rows(self) -> int:
        return self.n_single + self.n_pair

    def values(self, measurements: PathGoodProvider) -> np.ndarray:
        """The right-hand-side ``y`` for one measurement window.

        Bit-identical to the values :func:`build_equations` would record:
        both gather through the same helpers, here restricted to the
        accepted rows (``log_good_pairs`` is elementwise).
        """
        singles = _single_values(
            measurements, self.single_paths.tolist(), self.topology.n_paths
        )
        pairs = _pair_values(measurements, self.pair_array)
        return np.concatenate([singles, pairs])

    def infer(
        self,
        measurements: PathGoodProvider,
        *,
        algorithm_label: str = "correlation",
        warm: WarmStart | None = None,
    ) -> InferenceResult:
        """One measurement batch's inference over the cached structure.

        Bit-identical to a full :func:`build_equations` plus solve over
        the same observations — the correctness anchor of every surface.
        ``warm`` is the caller's own warm state for the L1 solve (see
        :class:`~repro.core.solvers.WarmStart`); it never changes the
        answer, and the shared template holds none.
        """
        values = self.values(measurements)
        solution, solver_used = solve(
            self.program, values, method=self.options.solver, warm=warm
        )
        # Round-off can leave tiny positive log-probabilities.
        solution = np.minimum(solution, 0.0)
        probabilities = np.clip(1.0 - np.exp(solution), 0.0, 1.0)
        return InferenceResult(
            algorithm=algorithm_label,
            congestion_probabilities=probabilities,
            log_good=solution,
            uncovered_links=self.uncovered_links,
            n_single_equations=self.n_single,
            n_pair_equations=self.n_pair,
            rank=self.rank,
            solver=solver_used,
            diagnostics={
                "n_eligible_paths": self.n_eligible,
                "n_links": self.topology.n_links,
                "fully_determined": self.fully_determined,
            },
        )


@dataclass(frozen=True)
class WindowVerdict:
    """One window's re-emitted estimates plus the change-detection diff.

    Attributes:
        window_index: Sequence number of the update (0-based).
        timestamp: Global snapshot index just past the window (evicted
            history included), i.e. the event time of this verdict.
        n_snapshots: Surviving history size the estimate used.
        result: The full inference result (analog estimates).
        congested: Boolean per-link verdicts
            (``probability > threshold``).
        onsets: Link ids newly flagged congested this window.
        clears: Link ids newly flagged good this window.
        changed: Whether any verdict flipped since the last window.
        localization: MAP explanation of the newest snapshot, when
            requested.
    """

    window_index: int
    timestamp: int
    n_snapshots: int
    result: InferenceResult
    congested: np.ndarray
    onsets: tuple[int, ...]
    clears: tuple[int, ...]
    changed: bool
    localization: LocalizationResult | None = None

    @property
    def probabilities(self) -> np.ndarray:
        """Analog per-link estimates (alias into ``result``)."""
        return self.result.congestion_probabilities


class StreamingTomography:
    """Per-window incremental inference with change detection.

    Feed each window's accumulated observations to :meth:`update`; the
    equation structure is the prepared topology's cached
    :class:`EquationTemplate`, so each window pays only the value
    gather, the solve, and the verdict diff.  The engine owns one
    :class:`~repro.core.solvers.WarmStart`, so each window's L1 solve
    re-runs one live HiGHS model from the last window's optimal basis;
    the answers are the bytes a cold solve gives.  Like the warm state,
    an engine serves one thread at a time.

    Args:
        topology: The measurement topology.
        correlation: Known correlation structure.
        options: Algorithm knobs; defaults follow the paper.
        threshold: Probability above which a link is flagged congested.
        localize_last: Also MAP-localize the newest snapshot per window
            (requires observations with ``congested_mask_of_snapshot``).
        registry: Prepared-state registry; ``None`` uses the ambient one.
    """

    def __init__(
        self,
        topology: Topology,
        correlation: CorrelationStructure,
        *,
        options: AlgorithmOptions | None = None,
        threshold: float = 0.5,
        localize_last: bool = False,
        registry: PreparedRegistry | None = None,
        algorithm_label: str = "correlation",
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold {threshold} outside [0, 1]")
        self._topology = topology
        self._correlation = correlation
        self._options = options or AlgorithmOptions()
        self._threshold = threshold
        self._localize_last = localize_last
        self._registry = registry
        self._algorithm_label = algorithm_label
        self._prepared: PreparedTopology | None = None
        self._previous: np.ndarray | None = None
        self._window_index = 0
        self._warm = WarmStart()

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def threshold(self) -> float:
        return self._threshold

    @property
    def window_index(self) -> int:
        """Number of windows consumed so far."""
        return self._window_index

    def prepare(self) -> PreparedTopology:
        """Warm (and pin) the measurement-independent prepared state."""
        if self._prepared is None:
            self._prepared = get_prepared(
                self._topology, self._correlation, registry=self._registry
            )
        return self._prepared

    def template(self) -> EquationTemplate:
        """The prepared topology's equation template (built on first use)."""
        return self.prepare().template(self._options)

    def update(self, observations: PathGoodProvider) -> WindowVerdict:
        """Infer over the current history and diff against last window."""
        result = self.template().infer(
            observations,
            algorithm_label=self._algorithm_label,
            warm=self._warm,
        )
        congested = result.congestion_probabilities > self._threshold
        congested.flags.writeable = False
        previous = self._previous
        if previous is None:
            previous = np.zeros_like(congested)
        onsets = tuple(int(k) for k in np.flatnonzero(congested & ~previous))
        clears = tuple(int(k) for k in np.flatnonzero(~congested & previous))
        localization = None
        if self._localize_last and hasattr(
            observations, "congested_mask_of_snapshot"
        ):
            mask = observations.congested_mask_of_snapshot(
                observations.n_snapshots - 1
            )
            localization = localize_map(
                self._topology,
                mask,
                result.congestion_probabilities,
                on_infeasible="trim",
            )
        timestamp = getattr(observations, "n_evicted", 0) + int(
            observations.n_snapshots
        )
        verdict = WindowVerdict(
            window_index=self._window_index,
            timestamp=timestamp,
            n_snapshots=int(observations.n_snapshots),
            result=result,
            congested=congested,
            onsets=onsets,
            clears=clears,
            changed=bool(onsets or clears),
            localization=localization,
        )
        self._previous = congested
        self._window_index += 1
        return verdict
