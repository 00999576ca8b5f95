"""Congestion-model interfaces.

The simulator needs, per correlation set ``Cp``, a *joint* distribution
over which subset of the set is congested during a snapshot — the random
set ``Sp`` of the paper.  Ground-truth evaluation additionally needs exact
marginals ``P(X_ek = 1)`` (the quantity the algorithms are scored on) and,
for the theorem algorithm's oracle, the full support when it is
enumerable.

Models implement :class:`SetCongestionModel`; the network-level composite
lives in :mod:`repro.model.network`.
"""

from __future__ import annotations

import abc
import functools
from collections.abc import Iterator

import numpy as np

from repro.exceptions import ModelError

__all__ = ["SetCongestionModel"]


class SetCongestionModel(abc.ABC):
    """Joint congestion behaviour of one correlation set.

    Subclasses model a single stationary random set ``Sp ⊆ Cp``: each call
    to :meth:`sample` draws the congested subset for one snapshot,
    independently across snapshots (Assumption 3, stationarity).
    """

    def __init__(self, links: frozenset[int]) -> None:
        if not links:
            raise ModelError("a congestion model needs at least one link")
        self._links = frozenset(links)
        self._member_order = sorted(self._links)

    @property
    def links(self) -> frozenset[int]:
        """The correlation set ``Cp`` this model governs."""
        return self._links

    @property
    def member_order(self) -> list[int]:
        """Member link ids in sorted order — the column order of
        :meth:`sample_matrix`.  Computed once; do not mutate it."""
        return self._member_order

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> frozenset[int]:
        """Draw the congested subset ``Sp`` for one snapshot."""

    def sample_matrix(
        self, rng: np.random.Generator, n_snapshots: int
    ) -> np.ndarray:
        """Draw ``n_snapshots`` i.i.d. states as a boolean matrix.

        Row ``t`` is snapshot ``t``; columns follow :attr:`member_order`.
        A model with a :attr:`uniform_width` draws its uniforms in one
        call and maps them with :meth:`states_from` (the simulator's hot
        path); the base implementation otherwise loops over
        :meth:`sample`, and other concrete models override it with their
        own vectorised draws.
        """
        width = self.uniform_width
        if width is not None:
            return self.states_from(
                rng.random(n_snapshots * width), n_snapshots
            )
        order = self.member_order
        index = {link_id: column for column, link_id in enumerate(order)}
        out = np.zeros((n_snapshots, len(order)), dtype=bool)
        for row in range(n_snapshots):
            for link_id in self.sample(rng):
                out[row, index[link_id]] = True
        return out

    @property
    def sampler(self) -> "SetCongestionModel":
        """The model that draws this set's states: ``self``, or a model
        over the links that can congest when the others never do, whose
        :meth:`sample_matrix` consumes the generator exactly as this
        one's."""
        return self

    @functools.cached_property
    def can_congest(self) -> bool:
        """Whether any member link has a positive marginal.  A model
        that cannot congest draws all-good states; a caller may then
        skip mapping its uniforms (see
        :meth:`repro.model.network.NetworkCongestionModel.sample_states`)."""
        return any(self.marginal(link_id) > 0.0 for link_id in self._member_order)

    @property
    def uniform_width(self) -> int | None:
        """Uniforms per snapshot that :meth:`states_from` maps to states,
        or ``None`` when the model does not draw a fixed block of
        uniforms."""
        return None

    def states_from(
        self, uniforms: np.ndarray, n_snapshots: int
    ) -> np.ndarray:
        """The :meth:`sample_matrix` states made from ``n_snapshots x``
        :attr:`uniform_width` uniforms, in the order one
        ``rng.random`` call draws them.

        A caller may draw the uniforms of several models in one call and
        hand each its slice: consecutive ``rng.random`` calls draw the
        same numbers as one call of their total size.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not map uniforms to states"
        )

    @abc.abstractmethod
    def marginal(self, link_id: int) -> float:
        """Exact ``P(X_ek = 1)`` for a member link."""

    @abc.abstractmethod
    def joint(self, subset: frozenset[int]) -> float:
        """Exact ``P(all links of subset congested)`` (``subset ⊆ Cp``).

        Note this is the *at least* event, not ``P(Sp = subset)``; the
        exact-state probability is :meth:`state_probability`.
        """

    # ------------------------------------------------------------------
    # Optional exact-support interface (small models only)
    # ------------------------------------------------------------------
    @property
    def enumerable(self) -> bool:
        """Whether :meth:`support` is available."""
        return False

    def support(self) -> Iterator[tuple[frozenset[int], float]]:
        """Yield ``(subset, P(Sp = subset))`` over the whole support.

        Only available when :attr:`enumerable` is True.  Probabilities must
        sum to 1 (the empty subset carries the remaining mass).
        """
        raise ModelError(
            f"{type(self).__name__} cannot enumerate its support"
        )

    def state_probability(self, subset: frozenset[int]) -> float:
        """``P(Sp = subset)`` — exact-state probability.

        Default implementation scans :meth:`support`; models with closed
        forms override it.
        """
        target = frozenset(subset)
        for state, probability in self.support():
            if state == target:
                return probability
        return 0.0

    # ------------------------------------------------------------------
    def _check_member(self, link_id: int) -> None:
        if link_id not in self._links:
            raise ModelError(
                f"link {link_id} is not a member of this correlation set"
            )

    def _check_subset(self, subset: frozenset[int]) -> frozenset[int]:
        subset = frozenset(subset)
        if not subset <= self._links:
            raise ModelError(
                f"{sorted(subset)} is not a subset of the correlation set "
                f"{sorted(self._links)}"
            )
        return subset
