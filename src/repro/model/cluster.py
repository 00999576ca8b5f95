"""Scenario model for controlled per-set congestion clustering (Figure 3).

The Figure-3 captions parameterise experiments by *how many congested links
co-occur per correlation set*: "highly correlated (more than 2 congested
links per correlation set)" versus "loosely correlated (up to 2 congested
links per correlation set)".  Two pieces implement that:

* :class:`ActiveSubsetModel` — restricts any inner congestion model to an
  *active* subset of the correlation set; the remaining links are always
  good (the scenario's "not congested" links, congestion probability 0).
* :func:`make_cluster_model` — the standard Figure-3 construction: the
  active links of a set congest through a :class:`~repro.model.common_cause.
  CommonCauseModel` (shared cause + per-link background), producing the
  strong positive within-set correlation the experiments need, with every
  ground-truth probability in closed form.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Mapping

import numpy as np

from repro.exceptions import ModelError
from repro.model.base import SetCongestionModel
from repro.model.common_cause import CommonCauseModel

__all__ = ["ActiveSubsetModel", "make_cluster_model", "NEVER_CONGESTING_CACHE"]


class ActiveSubsetModel(SetCongestionModel):
    """Extend a model over an active subset to the full correlation set.

    Links outside the active subset never congest.  All probabilistic
    queries delegate to the inner model, with inactive links pinned good.
    """

    def __init__(
        self,
        links: frozenset[int],
        inner: SetCongestionModel,
    ) -> None:
        super().__init__(frozenset(links))
        if not inner.links <= self._links:
            raise ModelError(
                f"active links {sorted(inner.links)} are not all members "
                f"of the correlation set {sorted(self._links)}"
            )
        self._inner = inner

    @property
    def active_links(self) -> frozenset[int]:
        return self._inner.links

    @property
    def inner(self) -> SetCongestionModel:
        return self._inner

    @property
    def sampler(self) -> SetCongestionModel:
        # The inactive links never congest, and sample_matrix draws
        # exactly what the inner model's does.
        return self._inner.sampler

    def sample(self, rng: np.random.Generator) -> frozenset[int]:
        return self._inner.sample(rng)

    def sample_matrix(
        self, rng: np.random.Generator, n_snapshots: int
    ) -> np.ndarray:
        inner_matrix = self._inner.sample_matrix(rng, n_snapshots)
        inner_order = self._inner.member_order
        out = np.zeros((n_snapshots, len(self.member_order)), dtype=bool)
        column_of = {
            link_id: column
            for column, link_id in enumerate(self.member_order)
        }
        for inner_column, link_id in enumerate(inner_order):
            out[:, column_of[link_id]] = inner_matrix[:, inner_column]
        return out

    def marginal(self, link_id: int) -> float:
        self._check_member(link_id)
        if link_id in self._inner.links:
            return self._inner.marginal(link_id)
        return 0.0

    def joint(self, subset: frozenset[int]) -> float:
        subset = self._check_subset(subset)
        if not subset <= self._inner.links:
            return 0.0  # an always-good link can never be congested
        return self._inner.joint(subset)

    @property
    def enumerable(self) -> bool:
        return self._inner.enumerable

    def support(self) -> Iterator[tuple[frozenset[int], float]]:
        return self._inner.support()

    def state_probability(self, subset: frozenset[int]) -> float:
        subset = self._check_subset(subset)
        if not subset <= self._inner.links:
            return 0.0
        return self._inner.state_probability(subset)


#: How many never-congesting set models :func:`make_cluster_model`
#: keeps for reuse (least recently used dropped first).  One is ~1 KB;
#: the bound covers the sets of several paper-scale topologies.
NEVER_CONGESTING_CACHE = 2**14


@functools.lru_cache(maxsize=NEVER_CONGESTING_CACHE)
def _never_congesting(set_links: frozenset[int]) -> ActiveSubsetModel:
    """The all-good model of one correlation set: an independent model
    at probability 0 on one member, so it still draws one uniform per
    snapshot, extended to the whole set."""
    from repro.model.independent import IndependentModel

    return ActiveSubsetModel(
        set_links, IndependentModel({next(iter(set_links)): 0.0})
    )


def make_cluster_model(
    set_links: frozenset[int],
    active_links: frozenset[int],
    *,
    cause_probability: float,
    background: float | Mapping[int, float],
) -> SetCongestionModel:
    """Figure-3 style per-set model.

    Args:
        set_links: The whole correlation set.
        active_links: The scenario's congested links inside it (size > 2
            for the "highly correlated" experiments, ≤ 2 for "loosely
            correlated").  Empty means the set never congests: the
            answer is then one shared, immutable model per set, built on
            the set's first such call and ignoring the two knobs.
        cause_probability: Shared-cause activation probability; the knob
            that makes the active links congest *together*.
        background: Per-link independent congestion on top of the cause.
    """
    active_links = frozenset(active_links)
    if not active_links:
        return _never_congesting(frozenset(set_links))
    inner = CommonCauseModel(
        active_links,
        cause_probability=cause_probability,
        background=background,
    )
    return ActiveSubsetModel(frozenset(set_links), inner)
