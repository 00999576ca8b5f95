"""Probing model: packets per path and measured path loss rates.

The paper's simulator sends "a given number of packets ... along each
path" each round and flips a coin per packet per link.  Per-packet
simulation across all links is equivalent to a single binomial draw per
path against the path's end-to-end delivery probability

    P(delivered) = Π_{k ∈ P_i} (1 − loss_k)

since drops are independent Bernoulli events; we sample that binomial
directly (exact, and orders of magnitude faster).  Setting
``packets_per_path=None`` gives the infinite-traffic limit: the measured
loss rate equals the true path loss rate (useful for isolating algorithm
error from probing noise).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.core.topology import Topology
from repro.model.loss import DEFAULT_LINK_THRESHOLD, path_threshold

__all__ = ["ProbeConfig", "PathProber"]


@dataclass(frozen=True)
class ProbeConfig:
    """Probing parameters.

    Attributes:
        packets_per_path: Packets sent along every path per snapshot;
            ``None`` means the infinite-traffic limit (no sampling noise).
        link_threshold: ``t_l``; fixes each path's ``t_p`` by its length.
    """

    packets_per_path: int | None = 1000
    link_threshold: float = DEFAULT_LINK_THRESHOLD

    def __post_init__(self) -> None:
        if self.packets_per_path is not None and self.packets_per_path < 1:
            raise ValueError(
                "packets_per_path must be >= 1 or None, got "
                f"{self.packets_per_path}"
            )


#: ``t_p`` per path id, per topology and link threshold.  They depend
#: on the topology alone, so each is built once, read-only, and shared
#: by every prober; an entry lives as long as its topology.
_THRESHOLDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _path_thresholds(topology: Topology, link_threshold: float) -> np.ndarray:
    by_threshold = _THRESHOLDS.get(topology)
    if by_threshold is None:
        by_threshold = _THRESHOLDS.setdefault(topology, {})
    thresholds = by_threshold.get(link_threshold)
    if thresholds is None:
        thresholds = np.array(
            [
                path_threshold(path.length, link_threshold)
                for path in topology.paths
            ],
            dtype=np.float64,
        )
        thresholds.flags.writeable = False
        by_threshold[link_threshold] = thresholds
    return thresholds


class PathProber:
    """Vectorised per-snapshot path measurement.

    Takes the topology's sparse routing matrix and its per-path
    congestion thresholds (both built once per topology); :meth:`measure` then turns a snapshot's link loss
    rates into per-path congestion verdicts.
    """

    def __init__(self, topology: Topology, config: ProbeConfig) -> None:
        self._topology = topology
        self._config = config
        self._routing = topology.routing_matrix_sparse()
        self._thresholds = _path_thresholds(topology, config.link_threshold)

    @property
    def config(self) -> ProbeConfig:
        return self._config

    @property
    def path_thresholds(self) -> np.ndarray:
        """``t_p`` per path id."""
        return self._thresholds

    def true_path_loss(self, loss_rates: np.ndarray) -> np.ndarray:
        """Exact end-to-end loss rate per path given link loss rates."""
        log_survival = self._routing @ np.log1p(-np.clip(loss_rates, 0.0, 1.0 - 1e-12))
        return 1.0 - np.exp(log_survival)

    def measure(
        self,
        loss_rates: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Measure one snapshot.

        Args:
            loss_rates: Per-link loss rates for the snapshot.
            rng: Random source (used only with finite packet budgets).

        Returns:
            ``(measured_loss, congested)`` — per-path measured loss rates
            and boolean congestion verdicts (``measured_loss > t_p``).
        """
        true_loss = self.true_path_loss(np.asarray(loss_rates, dtype=np.float64))
        packets = self._config.packets_per_path
        if packets is None:
            measured = true_loss
        else:
            lost = rng.binomial(packets, true_loss)
            measured = lost / packets
        return measured, measured > self._thresholds
