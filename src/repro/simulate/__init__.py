"""Snapshot simulator, probing, estimators, and the exact oracle."""

from repro.simulate.experiment import (
    ExperimentConfig,
    SimulationRun,
    run_experiment,
)
from repro.simulate.observations import PathObservations
from repro.simulate.oracle import ExactPathStateDistribution
from repro.simulate.probes import PathProber, ProbeConfig
from repro.simulate.stream import (
    LinkStateTimeline,
    ProbeWindow,
    SnapshotStream,
    StreamEvent,
)

__all__ = [
    "ExperimentConfig",
    "SimulationRun",
    "run_experiment",
    "PathObservations",
    "ExactPathStateDistribution",
    "PathProber",
    "ProbeConfig",
    "LinkStateTimeline",
    "ProbeWindow",
    "SnapshotStream",
    "StreamEvent",
]
