"""Exact path-state oracle: noise-free measurements from the model.

For enumerable ground-truth models, :class:`ExactPathStateDistribution`
computes the exact distribution of the congested-path set
``P(ψ(S) = F)`` by enumerating the model's product support and projecting
each network state through the coverage function.  It implements *both*
measurement protocols, so every inference algorithm can be run in the
noise-free limit:

* the theorem algorithm consumes ``p_congested_mask`` directly (this is
  the construction in the paper's proof, Section 3.2 "Setup");
* the practical algorithm's ``y`` values come from the identity
  ``P(Y_i = 0) = Σ_{F: i ∉ F} P(ψ(S) = F)`` and its pairwise analogue.

Tests use the oracle to validate that the theorem algorithm is *exact* and
that the practical algorithm's only error sources are rank deficiency and
sampling noise.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.topology import Topology
from repro.exceptions import MeasurementError
from repro.model.network import NetworkCongestionModel

__all__ = ["ExactPathStateDistribution"]

#: Probability floor under the log (a path that is *never* good has
#: log-probability −∞, which the LP cannot digest).
_LOG_FLOOR = 1e-300


class ExactPathStateDistribution:
    """The exact distribution of the congested-path set.

    Build with :meth:`from_model`; direct construction takes a ready map
    ``{path mask: probability}`` (useful in tests) and the path count,
    which defaults to the highest path any mask names.
    """

    def __init__(
        self,
        mask_probabilities: dict[int, float],
        *,
        n_paths: int | None = None,
    ) -> None:
        total = sum(mask_probabilities.values())
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            raise MeasurementError(
                f"path-state probabilities must sum to 1, got {total}"
            )
        self._masks = dict(mask_probabilities)
        if n_paths is None:
            n_paths = max(
                (mask.bit_length() for mask in self._masks), default=0
            )
        #: Paths ``0 .. n_paths - 1`` that :meth:`log_good_all` covers.
        self.n_paths = n_paths

    @classmethod
    def from_model(
        cls,
        topology: Topology,
        network_model: NetworkCongestionModel,
        *,
        max_states: int = 1_000_000,
    ) -> "ExactPathStateDistribution":
        """Enumerate the model's states and project through ψ."""
        masks: dict[int, float] = {}
        for state, probability in network_model.iter_states(
            max_states=max_states
        ):
            mask = topology.coverage_of(state)
            masks[mask] = masks.get(mask, 0.0) + probability
        return cls(masks, n_paths=topology.n_paths)

    # ------------------------------------------------------------------
    @property
    def masks(self) -> dict[int, float]:
        """``{congested-path mask: probability}`` (copy)."""
        return dict(self._masks)

    # ------------------------------------------------------------------
    # PathStateProvider protocol
    # ------------------------------------------------------------------
    def p_congested_mask(self, mask: int) -> float:
        """Exact ``P(ψ(S) = F)``."""
        return self._masks.get(mask, 0.0)

    # ------------------------------------------------------------------
    # PathGoodProvider protocol
    # ------------------------------------------------------------------
    def p_good(self, path_id: int) -> float:
        """Exact ``P(Y_i = 0)``."""
        bit = 1 << path_id
        return sum(
            probability
            for mask, probability in self._masks.items()
            if not mask & bit
        )

    def log_good(self, path_id: int) -> float:
        return math.log(max(self.p_good(path_id), _LOG_FLOOR))

    def p_good_pair(self, path_a: int, path_b: int) -> float:
        """Exact ``P(Y_i = 0, Y_j = 0)``."""
        bits = (1 << path_a) | (1 << path_b)
        return sum(
            probability
            for mask, probability in self._masks.items()
            if not mask & bits
        )

    def log_good_pair(self, path_a: int, path_b: int) -> float:
        return math.log(max(self.p_good_pair(path_a, path_b), _LOG_FLOOR))

    def log_good_all(self) -> np.ndarray:
        """:meth:`log_good` of every path, bit for bit (the oracle is a
        ground-truth tool, so this is the scalar loop)."""
        return np.array(
            [self.log_good(path_id) for path_id in range(self.n_paths)],
            dtype=np.float64,
        )

    def log_good_pairs(self, pairs) -> np.ndarray:
        """``log_good_pair`` of each row of an ``(m, 2)`` array, bit for
        bit."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        return np.array(
            [self.log_good_pair(int(a), int(b)) for a, b in pairs],
            dtype=np.float64,
        )

    def __repr__(self) -> str:
        return f"ExactPathStateDistribution(n_masks={len(self._masks)})"
