"""Independent-links congestion model.

The degenerate correlation case: every member link congests independently
with its own marginal.  Used for the links the paper treats as
uncorrelated (singleton correlation sets) and as the "what the
independence algorithm believes" reference in tests.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping

import numpy as np

from repro.exceptions import ModelError
from repro.model.base import SetCongestionModel
from repro.utils.validation import check_probability

__all__ = ["IndependentModel"]


class IndependentModel(SetCongestionModel):
    """Each link congested independently with probability ``p_k``.

    Args:
        probabilities: ``{link_id: P(X_ek = 1)}`` for every member link.
    """

    def __init__(self, probabilities: Mapping[int, float]) -> None:
        if not probabilities:
            raise ModelError("need at least one link probability")
        super().__init__(frozenset(probabilities))
        self._probabilities = {
            link_id: check_probability(value, f"P(X_{link_id}=1)")
            for link_id, value in probabilities.items()
        }
        self._order = self.member_order
        self._vector = np.array(
            [self._probabilities[k] for k in self._order], dtype=np.float64
        )

    def sample(self, rng: np.random.Generator) -> frozenset[int]:
        draws = rng.random(len(self._order)) < self._vector
        return frozenset(
            link_id for link_id, hit in zip(self._order, draws) if hit
        )

    @property
    def uniform_width(self) -> int:
        return len(self._order)

    def states_from(
        self, uniforms: np.ndarray, n_snapshots: int
    ) -> np.ndarray:
        return uniforms.reshape(n_snapshots, len(self._order)) < self._vector

    def marginal(self, link_id: int) -> float:
        self._check_member(link_id)
        return self._probabilities[link_id]

    def joint(self, subset: frozenset[int]) -> float:
        subset = self._check_subset(subset)
        return math.prod(self._probabilities[k] for k in subset)

    @property
    def enumerable(self) -> bool:
        return len(self._links) <= 20

    def support(self) -> Iterator[tuple[frozenset[int], float]]:
        if not self.enumerable:
            raise ModelError(
                f"independent model over {len(self._links)} links has "
                "too large a support to enumerate"
            )
        for size in range(len(self._order) + 1):
            for combo in itertools.combinations(self._order, size):
                chosen = frozenset(combo)
                probability = 1.0
                for link_id in self._order:
                    p = self._probabilities[link_id]
                    probability *= p if link_id in chosen else 1.0 - p
                if probability > 0.0:
                    yield chosen, probability

    def state_probability(self, subset: frozenset[int]) -> float:
        subset = self._check_subset(subset)
        probability = 1.0
        for link_id in self._order:
            p = self._probabilities[link_id]
            probability *= p if link_id in subset else 1.0 - p
        return probability
