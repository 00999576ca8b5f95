"""Probing model: packets per path, measured loss, ``t_p`` verdicts.

The paper's simulator sends "a given number of packets ... along each
path" each round and flips a coin per packet per link.  Per-packet
simulation across all links is equivalent to a single binomial draw per
path against the path's end-to-end delivery probability

    P(delivered) = Π_{k ∈ P_i} (1 − loss_k)

since drops are independent Bernoulli events; we sample that binomial
directly (exact, and orders of magnitude faster), and keep only the
verdict ``measured loss > t_p``.  Setting ``packets_per_path=None``
gives the infinite-traffic limit: the measured loss rate equals the
true path loss rate (useful for isolating algorithm error from probing
noise).
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
    """Vectorised path measurement.

    Takes the topology's sparse routing matrix and its per-path
    congestion thresholds (both built once per topology); :meth:`measure`
    then turns link loss rates into per-path congestion verdicts.  It is
    the simulator's only probe sampler: the batch driver and the
    snapshot stream both call it.
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
        """Exact end-to-end loss rate per path given link loss rates.

        ``loss_rates`` is ``(snapshots, links)`` or one snapshot's
        vector; the result is ``(snapshots, paths)`` or one vector.
        """
        # log survival per path:  log Π (1 − loss) = Σ log1p(−loss),
        # element-wise stages in one fresh buffer.  The product is the
        # one ``loss @ routing.T`` dispatches to, without building the
        # transposed matrix; for one row it is a plain matvec.
        log_survival = np.negative(np.asarray(loss_rates, dtype=np.float64))
        np.log1p(log_survival, out=log_survival)
        log_survival = (self._routing @ log_survival.T).T
        np.exp(log_survival, out=log_survival)
        return np.subtract(1.0, log_survival, out=log_survival)

    def measure(
        self,
        loss_rates: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Probe every path and return its congestion verdicts.

        Args:
            loss_rates: Per-link loss rates, ``(snapshots, links)`` or
                one snapshot's vector.
            rng: Random source (used only with finite packet budgets):
                one binomial per path entry, in row order, so a
                ``(b, n)`` call draws exactly what ``b`` one-row calls
                draw.

        Returns:
            Boolean verdicts ``measured_loss > t_p``: ``(snapshots,
            paths)``, or one vector for one snapshot.
        """
        measured = self.true_path_loss(loss_rates)
        packets = self._config.packets_per_path
        if packets is not None:
            measured = rng.binomial(packets, measured) / packets
        return measured > self._thresholds
