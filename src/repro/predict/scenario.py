"""What-if driver: chain tomographic inference with demand prediction.

A :class:`WhatIfScenario` holds one instance + demand matrix and answers
"given what the probes say about the network *now*, which links are at
risk if this demand shift lands?".  Inference runs the Section-4
correlation algorithm over any :class:`~repro.simulate.observations.
PathObservations` — a batch window or the accumulated state of a
streaming session — and prediction runs the congestion model per named
shift.  The two combine as independent risks::

    combined = 1 − (1 − inferred_now) × (1 − predicted_under_shift)

i.e. the probability the link is congested now *or* would be pushed
over threshold by the shifted demand.  Links are ranked by combined
risk, ties broken by link id, so rankings are deterministic and
bit-comparable across CLI / service / executor backends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.correlation_algorithm import infer_congestion
from repro.predict.demand import DemandMatrix, DemandShift
from repro.predict.model import CongestionModel
from repro.utils.rng import spawn_children

__all__ = [
    "ShiftRisk",
    "WhatIfResult",
    "WhatIfScenario",
    "chosen_shifts",
    "risk_ranking",
]


def risk_ranking(risk: np.ndarray) -> np.ndarray:
    """Link ids sorted by descending risk, ties broken by ascending id."""
    ids = np.arange(risk.size)
    return np.lexsort((ids, -np.asarray(risk, dtype=np.float64)))


@dataclass(frozen=True, slots=True)
class ShiftRisk:
    """One shift's per-link forecast.

    Attributes:
        name: The shift's name.
        scale: Its global scale factor.
        predicted: P(link exceeds threshold) under the shifted demand.
        combined: Congested-now OR congests-under-shift probability.
        expected_utilization: Mean load / capacity under the shift.
        ranking: Link ids by descending combined risk (ties → id).
        method: ``"exact"`` or ``"monte-carlo"``.
    """

    name: str
    scale: float
    predicted: np.ndarray
    combined: np.ndarray
    expected_utilization: np.ndarray
    ranking: np.ndarray
    method: str


@dataclass(frozen=True, slots=True)
class WhatIfResult:
    """Inferred current state plus one :class:`ShiftRisk` per shift."""

    current: np.ndarray
    shifts: tuple[ShiftRisk, ...]

    def shift(self, name: str) -> ShiftRisk:
        for shift in self.shifts:
            if shift.name == name:
                return shift
        raise KeyError(f"no shift named {name!r}")


def chosen_shifts(demand: DemandMatrix, shifts=None) -> tuple[DemandShift, ...]:
    """The shifts a what-if evaluates: ``shifts`` when given, else the
    matrix's own named shifts, else the identity ``baseline`` shift.
    Raises :class:`ValueError` on a duplicate name."""
    chosen = tuple(shifts) if shifts is not None else demand.shifts
    if not chosen:
        chosen = (DemandShift(name="baseline"),)
    names = [shift.name for shift in chosen]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate shift name(s) in {names}")
    return chosen


class WhatIfScenario:
    """Inference→prediction driver for one instance + demand matrix.

    Args:
        instance: Topology + correlation structure.
        demand: The demand matrix (resolved against the topology here,
            so binding errors surface at construction).
        shifts: Shifts to evaluate; defaults to the matrix's own named
            shifts, or the identity ``baseline`` shift when it has none.
        model: Congestion model (threshold / exact-vs-MC knobs).
        options: Algorithm knobs for the inference step.
        registry: Prepared-state registry for the equation builder.
        cache: Optional :class:`repro.eval.cache.TrialCache` memoizing
            per-shift predictions on the demand fingerprint.
    """

    def __init__(
        self,
        instance,
        demand: DemandMatrix,
        *,
        shifts=None,
        model: CongestionModel | None = None,
        options=None,
        registry=None,
        cache=None,
    ) -> None:
        self.instance = instance
        self.demand = demand
        self.model = model or CongestionModel()
        self.options = options
        self.registry = registry
        self.cache = cache
        self.resolved = demand.resolve(instance.topology)
        self.shifts: tuple[DemandShift, ...] = chosen_shifts(demand, shifts)

    def infer_current(self, observations) -> np.ndarray:
        """Per-link congestion probabilities inferred from the probes."""
        result = infer_congestion(
            self.instance.topology,
            self.instance.correlation,
            observations,
            options=self.options,
            registry=self.registry,
        )
        return result.congestion_probabilities.astype(np.float64, copy=False)

    def evaluate(self, observations, *, seed=0) -> WhatIfResult:
        """Infer the current state, then forecast every shift.

        ``seed`` feeds one independent child stream per shift into the
        Monte Carlo fallback, so results are reproducible regardless of
        how many shifts run or which evaluator each one picks.
        """
        current = self.infer_current(observations)
        shift_seeds = spawn_children(seed, len(self.shifts))
        risks = []
        for shift, shift_seed in zip(self.shifts, shift_seeds):
            prediction = self.model.predict(
                self.resolved,
                self.resolved.rates_under(shift),
                seed=shift_seed,
                cache=self.cache,
            )
            combined = 1.0 - (1.0 - current) * (1.0 - prediction.probability)
            risks.append(
                ShiftRisk(
                    name=shift.name,
                    scale=shift.scale,
                    predicted=prediction.probability,
                    combined=combined,
                    expected_utilization=prediction.expected_utilization,
                    ranking=risk_ranking(combined),
                    method=prediction.method,
                )
            )
        return WhatIfResult(current=current, shifts=tuple(risks))
