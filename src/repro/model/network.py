"""Network-level congestion model: one set-model per correlation set.

:class:`NetworkCongestionModel` is the ground truth of every experiment:
it owns a :class:`~repro.model.base.SetCongestionModel` per correlation
set, samples the network state ``S = ∪p Sp`` (sets independent — the
definition of the correlation structure), and answers exact probability
queries used for scoring and for the noise-free oracle.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence

import numpy as np

from repro.core.correlation import CorrelationStructure
from repro.exceptions import ModelError
from repro.model.base import SetCongestionModel
from repro.model.independent import IndependentModel

__all__ = ["NetworkCongestionModel"]


def _columns(model: SetCongestionModel) -> np.ndarray:
    """The state-matrix columns of a model's :meth:`sample_matrix`."""
    return np.array(model.member_order, dtype=np.intp)


class NetworkCongestionModel:
    """Joint congestion behaviour of the whole network.

    Args:
        correlation: The (ground-truth) correlation structure.  Note this
            may legitimately differ from the structure *given to the
            algorithm* — that is exactly the Figure-5 "unknown correlation
            patterns" experiment.
        models: One set-model per correlation set, aligned with
            ``correlation.sets`` (same order, same member links).
    """

    def __init__(
        self,
        correlation: CorrelationStructure,
        models: Sequence[SetCongestionModel],
    ) -> None:
        if len(models) != correlation.n_sets:
            raise ModelError(
                f"got {len(models)} set models for {correlation.n_sets} "
                "correlation sets"
            )
        self._correlation = correlation
        self._models = tuple(models)
        # sample_states' order of draws, over each model's sampler.  A
        # sampler without a uniform width draws alone, as (None,
        # (sampler, its columns)).  A run of consecutive samplers with
        # one takes its uniforms from one rng.random call, as (the run's
        # total width, its writes): a write (offset, width, sampler,
        # columns) maps the sampler's slice of the uniforms.  A sampler
        # that cannot congest has no write, since its states are all
        # good; it only moves the next offset on by its width.
        plan: list = []
        total = None
        writes: list = []
        # link_marginals' models: those whose sampler can congest (the
        # others' marginals are all 0).
        congesting = []
        for index, (group, model) in enumerate(
            zip(correlation.sets, self._models)
        ):
            if model.links is not group and model.links != group:
                raise ModelError(
                    f"set model #{index} governs links "
                    f"{sorted(model.links)} but correlation set #{index} "
                    f"is {sorted(group)}"
                )
            sampler = model.sampler
            width = sampler.uniform_width
            if width is None:
                if total is not None:
                    plan.append((total, tuple(writes)))
                    total, writes = None, []
                plan.append((None, (sampler, _columns(sampler))))
                if sampler.can_congest:
                    congesting.append(model)
                continue
            if total is None:
                total = 0
            if sampler.can_congest:
                writes.append((total, width, sampler, _columns(sampler)))
                congesting.append(model)
            total += width
        if total is not None:
            plan.append((total, tuple(writes)))
        self._draw_plan = tuple(plan)
        self._congesting = tuple(congesting)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def independent(
        cls,
        correlation: CorrelationStructure,
        marginals: Mapping[int, float] | np.ndarray,
    ) -> "NetworkCongestionModel":
        """All links independent with the given marginals.

        The correlation structure is respected only structurally (one
        model per set); within each set, links are independent.  Useful as
        the "what the independence algorithm believes" reference and as a
        degenerate-correlation ground truth.
        """
        if isinstance(marginals, Mapping):
            lookup = dict(marginals)
        else:
            array = np.asarray(marginals, dtype=np.float64)
            lookup = {k: float(array[k]) for k in range(array.shape[0])}
        models = [
            IndependentModel({k: lookup.get(k, 0.0) for k in group})
            for group in correlation.sets
        ]
        return cls(correlation, models)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def correlation(self) -> CorrelationStructure:
        return self._correlation

    @property
    def models(self) -> tuple[SetCongestionModel, ...]:
        return self._models

    @property
    def n_links(self) -> int:
        return self._correlation.topology.n_links

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> frozenset[int]:
        """Draw the network state ``S`` — the congested links of one
        snapshot (sets sampled independently, then united)."""
        congested: set[int] = set()
        for model in self._models:
            congested.update(model.sample(rng))
        return frozenset(congested)

    def sample_indicator(self, rng: np.random.Generator) -> np.ndarray:
        """Like :meth:`sample` but as a boolean vector over link ids."""
        indicator = np.zeros(self.n_links, dtype=bool)
        congested = self.sample(rng)
        if congested:
            indicator[sorted(congested)] = True
        return indicator

    def sample_states(
        self, rng: np.random.Generator, n_snapshots: int
    ) -> np.ndarray:
        """Draw ``n_snapshots`` network states as a boolean matrix
        (snapshot × link id) — the simulator's bulk entry point.

        The sets draw in order, each as its own
        :meth:`~repro.model.base.SetCongestionModel.sample_matrix` would,
        through its :attr:`~repro.model.base.SetCongestionModel.sampler`
        (only links that can congest are written).  Consecutive samplers
        with a :attr:`~repro.model.base.SetCongestionModel.uniform_width`
        take their uniforms from one ``rng.random`` call, split in
        order: consecutive calls draw the same numbers as one call of
        their total size, so the states and the generator's state after
        are the same bytes as per-set draws.  A sampler that
        :attr:`~repro.model.base.SetCongestionModel.can_congest` not
        still has its uniforms drawn, but they are never mapped: its
        states stay all good.
        """
        states = np.zeros((n_snapshots, self.n_links), dtype=bool)
        for total, writes in self._draw_plan:
            if total is None:
                sampler, columns = writes
                states[:, columns] = sampler.sample_matrix(rng, n_snapshots)
                continue
            uniforms = rng.random(n_snapshots * total)
            for offset, width, sampler, columns in writes:
                start = n_snapshots * offset
                states[:, columns] = sampler.states_from(
                    uniforms[start : start + n_snapshots * width],
                    n_snapshots,
                )
        return states

    # ------------------------------------------------------------------
    # Exact queries (ground truth)
    # ------------------------------------------------------------------
    def link_marginals(self) -> np.ndarray:
        """``P(X_ek = 1)`` per link id — the target of the evaluation."""
        marginals = np.zeros(self.n_links, dtype=np.float64)
        for model in self._congesting:
            for link_id in model.links:
                marginals[link_id] = model.marginal(link_id)
        return marginals

    def joint(self, links) -> float:
        """``P(all given links congested)`` (cross-set product rule)."""
        by_model: dict[int, set[int]] = {}
        for link_id in frozenset(links):
            by_model.setdefault(
                self._correlation.set_index_of(link_id), set()
            ).add(link_id)
        probability = 1.0
        for set_index, members in by_model.items():
            probability *= self._models[set_index].joint(frozenset(members))
        return probability

    @property
    def enumerable(self) -> bool:
        """Whether every set model can enumerate its support."""
        return all(model.enumerable for model in self._models)

    def iter_states(
        self, *, max_states: int = 1_000_000
    ) -> Iterator[tuple[frozenset[int], float]]:
        """Enumerate ``(network state, probability)`` over the product
        support.  Raises :class:`ModelError` past ``max_states`` states.
        """
        if not self.enumerable:
            raise ModelError(
                "not every set model can enumerate its support"
            )
        supports = [list(model.support()) for model in self._models]
        size = 1
        for support in supports:
            size *= max(len(support), 1)
            if size > max_states:
                raise ModelError(
                    f"product support exceeds max_states={max_states}"
                )

        def descend(index: int, state: frozenset[int], probability: float):
            if probability == 0.0:
                return
            if index == len(supports):
                yield state, probability
                return
            for subset, p in supports[index]:
                yield from descend(index + 1, state | subset, probability * p)

        yield from descend(0, frozenset(), 1.0)

    def __repr__(self) -> str:
        return (
            f"NetworkCongestionModel(n_sets={len(self._models)}, "
            f"n_links={self.n_links})"
        )
