"""Probing model: packets per path, measured loss, ``t_p`` verdicts.

The paper's simulator sends "a given number of packets ... along each
path" each round and flips a coin per packet per link.  Drops are
independent Bernoulli events, so the packets a path loses out of ``n``
are ``Bin(n, p)`` with ``p`` its end-to-end loss rate

    p = 1 − Π_{l ∈ P_i} (1 − loss_l).

Only the verdict ``measured loss > t_p`` is kept.  With ``k`` the
largest lost count for which ``k / n ≤ t_p``, that verdict is the event
``Bin(n, p) > k``, of probability ``bdtrc(k, n, p)``; we draw it exactly
with one uniform per path and never sample the count.  A table of
``bdtrc`` on a grid of ``p`` brackets almost every comparison, so the
per-entry ``bdtrc`` runs only for the few uniforms that land inside a
cell's bracket.  Setting ``packets_per_path=None`` gives the
infinite-traffic limit: the measured loss rate equals the true path
loss rate (useful for isolating algorithm error from probing noise).
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.special import bdtrc

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


#: Grid cells over ``p ∈ [0, 1]``: a bracket table holds ``bdtrc`` at
#: the ``_CELLS + 1`` points ``j / _CELLS`` (exact in binary, so a
#: ``p`` on a cell edge reads its own ``bdtrc`` from the table).
_CELLS = 4096
#: Rows of verdicts per block of the table stage: a block's uniforms,
#: cell indices and bounds stay cache-sized.
_BLOCK_ROWS = 64
#: Slack around each bracket.  The bracket is sound only if the direct
#: call never returns a value outside its cell's two table values; a
#: computed ``bdtrc`` is monotone in ``p`` only up to rounding, so the
#: bounds are widened by this margin.
_SLACK = 1e-9
#: A cell whose bracket spans more than this always takes the direct
#: call.  These are the few cells around ``p = k / n`` where the verdict
#: probability climbs steeply; for ``n`` near 10⁹ the computed ``bdtrc``
#: there is not monotone in ``p`` by far more than ``_SLACK`` (0.12
#: seen), so no bracket can hold it.
_WIDE = 0.125
#: Bracket tables kept per topology, most recently used first.
#: ``packets_per_path`` is a query parameter, so the tables a topology
#: keeps must not grow with the queries it serves.
_MAX_TABLES = 4

#: Bracket tables per topology, keyed by ``(link_threshold, packets)``;
#: an entry lives as long as its topology.
_BRACKETS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_BRACKETS_LOCK = threading.Lock()


def _lost_limit(threshold: float, packets: int) -> int:
    """The largest lost count ``k ≤ n`` with ``k / n ≤ t_p``.

    Compared in floats, so ``lost > k`` is exactly ``lost / n > t_p``.
    """
    limit = min(max(math.floor(threshold * packets), 0), packets)
    while limit < packets and (limit + 1) / packets <= threshold:
        limit += 1
    while limit > 0 and limit / packets > threshold:
        limit -= 1
    return limit


@dataclass(frozen=True)
class _Brackets:
    """``P(verdict) = bdtrc(k, n, p)`` per path, bracketed on a grid.

    Attributes:
        packets: ``n``.
        limits: ``k`` per path id (floats, as ``bdtrc`` takes them).
        offsets: Start of each path's row in ``lower`` / ``upper``.
        lower: Per (``k``, cell): a ``u`` below it is congested.
        upper: Per (``k``, cell): a ``u`` at or above it is good.
    """

    packets: int
    limits: np.ndarray
    offsets: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def build(cls, thresholds: np.ndarray, packets: int) -> "_Brackets":
        unique, path_rows = np.unique(thresholds, return_inverse=True)
        limits = np.array(
            [_lost_limit(t, packets) for t in unique.tolist()],
            dtype=np.float64,
        )
        distinct, limit_rows = np.unique(limits, return_inverse=True)
        grid = np.arange(_CELLS + 1, dtype=np.float64) / _CELLS
        table = bdtrc(distinct[:, None], packets, grid)
        lower = table[:, :-1] - _SLACK
        upper = table[:, 1:] + _SLACK
        wide = table[:, 1:] - table[:, :-1] > _WIDE
        lower[wide] = -np.inf
        upper[wide] = np.inf
        rows = limit_rows[path_rows]
        brackets = cls(
            packets=packets,
            limits=distinct[rows],
            offsets=rows.astype(np.intp) * _CELLS,
            lower=lower.ravel(),
            upper=upper.ravel(),
        )
        for array in (brackets.limits, brackets.offsets, brackets.lower,
                      brackets.upper):
            array.flags.writeable = False
        return brackets

    def verdicts(
        self, path_loss: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """``uniforms < bdtrc(k, n, path_loss)`` for one ``(b, n)`` block."""
        cells = np.multiply(path_loss, _CELLS).astype(np.intp)
        np.minimum(cells, _CELLS - 1, out=cells)
        cells += self.offsets
        congested = uniforms < self.lower.take(cells)
        # Undecided: below ``upper`` but not below ``lower``.
        undecided = uniforms < self.upper.take(cells)
        undecided ^= congested
        if undecided.any():
            rows, cols = np.nonzero(undecided)
            congested[rows, cols] = uniforms[rows, cols] < bdtrc(
                self.limits[cols], self.packets, path_loss[rows, cols]
            )
        return congested


def _brackets(
    topology: Topology, link_threshold: float, packets: int
) -> _Brackets:
    """The topology's bracket table for ``(t_l, n)``, built on first use."""
    key = (link_threshold, packets)
    with _BRACKETS_LOCK:
        tables = _BRACKETS.get(topology)
        if tables is None:
            tables = _BRACKETS[topology] = OrderedDict()
        brackets = tables.get(key)
        if brackets is not None:
            tables.move_to_end(key)
            return brackets
    brackets = _Brackets.build(
        _path_thresholds(topology, link_threshold), packets
    )
    with _BRACKETS_LOCK:
        tables[key] = brackets
        while len(tables) > _MAX_TABLES:
            tables.popitem(last=False)
    return brackets


class PathProber:
    """Vectorised path measurement.

    Takes the topology's sparse routing matrix, its per-path congestion
    thresholds and, for a finite packet budget, its verdict bracket
    table (all built once per topology); :meth:`measure` then turns
    link loss rates into per-path congestion verdicts.  It is the
    simulator's only probe sampler: the batch driver and the snapshot
    stream both call it.
    """

    def __init__(self, topology: Topology, config: ProbeConfig) -> None:
        self._topology = topology
        self._config = config
        self._routing = topology.routing_matrix_sparse()
        self._thresholds = _path_thresholds(topology, config.link_threshold)
        self._brackets = (
            None
            if config.packets_per_path is None
            else _brackets(
                topology, config.link_threshold, config.packets_per_path
            )
        )

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
                one uniform per path entry, in row order, so a ``(b,
                n)`` call draws exactly what ``b`` one-row calls draw.

        Returns:
            Boolean verdicts ``measured_loss > t_p``: ``(snapshots,
            paths)``, or one vector for one snapshot.  With ``n``
            packets per path, an entry of true path loss ``p`` is
            ``u < bdtrc(k, n, p)`` for its uniform ``u``, ``k`` being
            the largest lost count with ``k / n ≤ t_p``.
        """
        path_loss = self.true_path_loss(loss_rates)
        if self._brackets is None:
            return path_loss > self._thresholds
        blocks = np.atleast_2d(path_loss)
        congested = np.empty(blocks.shape, dtype=bool)
        for start in range(0, len(blocks), _BLOCK_ROWS):
            block = blocks[start : start + _BLOCK_ROWS]
            congested[start : start + len(block)] = self._brackets.verdicts(
                block, rng.random(block.shape)
            )
        return congested.reshape(path_loss.shape)
