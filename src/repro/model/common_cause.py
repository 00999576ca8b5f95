"""Common-cause (shared-fate) congestion model.

Models the paper's second correlation scenario (Section 3.3): "congestion
is caused by a traffic pattern that involves a particular set of links" —
a distributed game, a flooding worm, a shared trunk.  A hidden Bernoulli
cause ``Z`` with activation probability ``cause_probability`` congests
*every* member link when active; independently, each link also congests on
its own with its ``background`` probability (cross traffic).

Exact quantities (cause independent of backgrounds):

    P(X_k = 1)            = a + (1-a)·b_k
    P(all of A congested) = a + (1-a)·Π_{k∈A} b_k

where ``a`` is the cause probability and ``b_k`` the backgrounds.  This
model produces arbitrarily strong positive correlation while keeping all
ground-truth probabilities in closed form — ideal for the Figure 5
"unknown correlation pattern" experiments.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping

import numpy as np

from repro.exceptions import ModelError
from repro.model.base import SetCongestionModel
from repro.utils.validation import check_probability

__all__ = ["CommonCauseModel"]


class CommonCauseModel(SetCongestionModel):
    """Hidden shared cause plus independent background congestion.

    Args:
        links: The member links.
        cause_probability: ``P(Z = 1)`` — when the cause fires, every
            member link is congested that snapshot.
        background: Per-link independent congestion probability applying
            whether or not the cause fired.  A plain float applies the
            same background to every link.
    """

    def __init__(
        self,
        links: frozenset[int],
        cause_probability: float,
        background: float | Mapping[int, float] = 0.0,
    ) -> None:
        super().__init__(frozenset(links))
        self._cause = check_probability(cause_probability, "cause_probability")
        if isinstance(background, Mapping):
            missing = self._links - set(background)
            if missing:
                raise ModelError(
                    f"background probabilities missing for links "
                    f"{sorted(missing)}"
                )
            self._background = {
                link_id: check_probability(
                    background[link_id], f"background[{link_id}]"
                )
                for link_id in self._links
            }
        else:
            value = check_probability(background, "background")
            self._background = {link_id: value for link_id in self._links}
        self._order = self.member_order
        self._vector = np.array(
            [self._background[k] for k in self._order], dtype=np.float64
        )

    @property
    def cause_probability(self) -> float:
        return self._cause

    def background_of(self, link_id: int) -> float:
        self._check_member(link_id)
        return self._background[link_id]

    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> frozenset[int]:
        if rng.random() < self._cause:
            return frozenset(self._links)
        draws = rng.random(len(self._order)) < self._vector
        return frozenset(
            link_id for link_id, hit in zip(self._order, draws) if hit
        )

    @property
    def uniform_width(self) -> int:
        # One uniform for the cause, then one per member link.
        return 1 + len(self._order)

    def states_from(
        self, uniforms: np.ndarray, n_snapshots: int
    ) -> np.ndarray:
        cause_fired = uniforms[:n_snapshots] < self._cause
        background = (
            uniforms[n_snapshots:].reshape(n_snapshots, len(self._order))
            < self._vector
        )
        return background | cause_fired[:, None]

    def marginal(self, link_id: int) -> float:
        self._check_member(link_id)
        b = self._background[link_id]
        return self._cause + (1.0 - self._cause) * b

    def joint(self, subset: frozenset[int]) -> float:
        subset = self._check_subset(subset)
        if not subset:
            return 1.0
        product = math.prod(self._background[k] for k in subset)
        return self._cause + (1.0 - self._cause) * product

    # ------------------------------------------------------------------
    @property
    def enumerable(self) -> bool:
        return len(self._links) <= 20

    def support(self) -> Iterator[tuple[frozenset[int], float]]:
        if not self.enumerable:
            raise ModelError(
                f"common-cause model over {len(self._links)} links has too "
                "large a support to enumerate"
            )
        for size in range(len(self._order) + 1):
            for combo in itertools.combinations(self._order, size):
                state = frozenset(combo)
                probability = self.state_probability(state)
                if probability > 0.0:
                    yield state, probability

    def state_probability(self, subset: frozenset[int]) -> float:
        subset = self._check_subset(subset)
        # Cause off: independent backgrounds produce exactly `subset`.
        off = 1.0
        for link_id in self._order:
            b = self._background[link_id]
            off *= b if link_id in subset else 1.0 - b
        probability = (1.0 - self._cause) * off
        # Cause on: the state is the full set, regardless of backgrounds.
        if subset == self._links:
            probability += self._cause
        return probability
