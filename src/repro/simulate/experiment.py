"""Experiment driver: many snapshots, vectorised.

Runs the paper's Section-5 simulation loop for ``n_snapshots`` rounds and
returns both the observable measurements (:class:`PathObservations`) and
the per-snapshot ground truth (link states), which the evaluation uses for
the "potentially congested links" population and the localization
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.topology import Topology
from repro.model.loss import DEFAULT_LINK_THRESHOLD, LossModel
from repro.model.network import NetworkCongestionModel
from repro.simulate.observations import PathObservations
from repro.simulate.probes import PathProber, ProbeConfig
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = ["ExperimentConfig", "SimulationRun", "run_experiment"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Simulation parameters for one experiment.

    Attributes:
        n_snapshots: Number of rounds ``N``.
        packets_per_path: Probe budget per path per round (``None`` =
            infinite-traffic limit, no probing noise).
        link_threshold: ``t_l`` (the paper uses 0.01).
        batch_size: Rounds simulated per vectorised batch (memory knob).
    """

    n_snapshots: int = 2000
    packets_per_path: int | None = 1000
    link_threshold: float = DEFAULT_LINK_THRESHOLD
    batch_size: int = 512

    def __post_init__(self) -> None:
        check_positive(self.n_snapshots, "n_snapshots")
        check_positive(self.batch_size, "batch_size")


@dataclass(frozen=True)
class SimulationRun:
    """Everything one experiment produced.

    Attributes:
        observations: What the tomography algorithms may see.
        link_states: Ground-truth snapshot × link congestion indicators.
        config: The configuration that produced the run.
    """

    observations: PathObservations
    link_states: np.ndarray
    config: ExperimentConfig

    @property
    def potentially_congested_links(self) -> frozenset[int]:
        """Links congested during at least one snapshot.

        Superset proxy used when callers have no model access; the
        evaluation (Section 5 metrics) defines potentially congested links
        as those on at least one congested *path* — see
        :func:`repro.eval.metrics.potentially_congested_links`.
        """
        return frozenset(np.flatnonzero(self.link_states.any(axis=0)))


def run_experiment(
    topology: Topology,
    network_model: NetworkCongestionModel,
    *,
    config: ExperimentConfig | None = None,
    seed=None,
) -> SimulationRun:
    """Simulate ``N`` snapshots of the full measurement pipeline.

    Per batch of rounds: network states from the congestion model
    (``sample_states``), link loss rates (``LossModel.sample_loss_rates``)
    and ``t_p`` verdicts, one uniform per path against its verdict
    probability (``PathProber.measure``) — the same two calls
    :class:`repro.simulate.stream.SnapshotStream` makes per snapshot.  The draw order differs from the stream's (whole
    stages per batch, not whole rounds per snapshot), so the two give
    the same distribution, not the same bytes.
    """
    config = config or ExperimentConfig()
    rng = as_generator(seed)
    loss_model = LossModel(config.link_threshold)
    prober = PathProber(
        topology,
        ProbeConfig(
            packets_per_path=config.packets_per_path,
            link_threshold=config.link_threshold,
        ),
    )
    link_states = np.zeros(
        (config.n_snapshots, topology.n_links), dtype=bool
    )
    path_states = np.zeros(
        (config.n_snapshots, topology.n_paths), dtype=bool
    )

    done = 0
    while done < config.n_snapshots:
        batch = min(config.batch_size, config.n_snapshots - done)
        states = network_model.sample_states(rng, batch)
        link_states[done : done + batch] = states
        path_states[done : done + batch] = prober.measure(
            loss_model.sample_loss_rates(states, rng), rng
        )
        done += batch

    return SimulationRun(
        observations=PathObservations(path_states),
        link_states=link_states,
        config=config,
    )
