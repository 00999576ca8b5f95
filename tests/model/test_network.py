"""Unit tests for the network-level congestion model."""

import math

import numpy as np
import pytest

from repro.core.correlation import CorrelationStructure
from repro.exceptions import ModelError
from repro.model import (
    IndependentModel,
    NetworkCongestionModel,
)
from repro.utils.rng import as_generator


class TestConstruction:
    def test_model_count_mismatch_rejected(self, instance_1a):
        with pytest.raises(ModelError, match="set models"):
            NetworkCongestionModel(
                instance_1a.correlation, [IndependentModel({0: 0.1})]
            )

    def test_link_mismatch_rejected(self, instance_1a):
        correlation = instance_1a.correlation
        models = [
            IndependentModel({k: 0.1 for k in group})
            for group in correlation.sets
        ]
        # Swap two models so their links no longer match their sets.
        models[0], models[1] = models[1], models[0]
        with pytest.raises(ModelError, match="governs links"):
            NetworkCongestionModel(correlation, models)

    def test_independent_constructor(self, instance_1a):
        model = NetworkCongestionModel.independent(
            instance_1a.correlation, {0: 0.5, 1: 0.1, 2: 0.2, 3: 0.0}
        )
        truth = model.link_marginals()
        assert truth[0] == 0.5
        assert truth[3] == 0.0

    def test_independent_from_array(self, instance_1a):
        model = NetworkCongestionModel.independent(
            instance_1a.correlation, np.array([0.1, 0.2, 0.3, 0.4])
        )
        assert math.isclose(model.link_marginals()[2], 0.3)


class TestExactQueries:
    def test_marginals_match_set_models(self, model_1a, truth_1a):
        assert np.allclose(model_1a.link_marginals(), truth_1a)

    def test_joint_within_set(self, instance_1a, model_1a):
        topology = instance_1a.topology
        e1, e2 = topology.link("e1").id, topology.link("e2").id
        assert math.isclose(model_1a.joint({e1, e2}), 0.2)

    def test_joint_across_sets_is_product(self, instance_1a, model_1a):
        topology = instance_1a.topology
        e1, e3 = topology.link("e1").id, topology.link("e3").id
        assert math.isclose(model_1a.joint({e1, e3}), 0.25 * 0.3)

    def test_enumerable(self, model_1a):
        assert model_1a.enumerable

    def test_iter_states_total_probability(self, model_1a):
        total = sum(p for _, p in model_1a.iter_states())
        assert math.isclose(total, 1.0, abs_tol=1e-9)

    def test_iter_states_max_guard(self, model_1a):
        with pytest.raises(ModelError, match="max_states"):
            list(model_1a.iter_states(max_states=1))

    def test_iter_states_marginal_consistency(self, model_1a, truth_1a):
        sums = np.zeros(model_1a.n_links)
        for state, probability in model_1a.iter_states():
            for link_id in state:
                sums[link_id] += probability
        assert np.allclose(sums, truth_1a, atol=1e-9)


class TestSampling:
    def test_sample_indicator_shape(self, model_1a):
        indicator = model_1a.sample_indicator(as_generator(0))
        assert indicator.shape == (4,)
        assert indicator.dtype == bool

    def test_sample_states_marginals(self, model_1a, truth_1a):
        states = model_1a.sample_states(as_generator(21), 20_000)
        assert states.shape == (20_000, 4)
        empirical = states.mean(axis=0)
        assert np.allclose(empirical, truth_1a, atol=0.02)

    def test_sample_states_joint(self, instance_1a, model_1a):
        topology = instance_1a.topology
        e1, e2 = topology.link("e1").id, topology.link("e2").id
        states = model_1a.sample_states(as_generator(22), 20_000)
        both = (states[:, e1] & states[:, e2]).mean()
        assert abs(both - 0.2) < 0.02

    def test_cross_set_independence_in_samples(
        self, instance_1a, model_1a
    ):
        topology = instance_1a.topology
        e1, e3 = topology.link("e1").id, topology.link("e3").id
        states = model_1a.sample_states(as_generator(23), 40_000)
        joint = (states[:, e1] & states[:, e3]).mean()
        assert abs(joint - 0.25 * 0.3) < 0.01


def per_set_draws(set_model, rng, n_snapshots):
    """One set's states drawn the way each model drew them on its own,
    written out independently of ``uniform_width``/``states_from``."""
    from repro.model import CommonCauseModel
    from repro.model.cluster import ActiveSubsetModel

    order = set_model.member_order
    if isinstance(set_model, ActiveSubsetModel):
        inner = per_set_draws(set_model.inner, rng, n_snapshots)
        out = np.zeros((n_snapshots, len(order)), dtype=bool)
        for column, link_id in enumerate(set_model.inner.member_order):
            out[:, order.index(link_id)] = inner[:, column]
        return out
    if isinstance(set_model, CommonCauseModel):
        fired = rng.random(n_snapshots) < set_model.cause_probability
        background = np.array([set_model.background_of(k) for k in order])
        return (rng.random((n_snapshots, len(order))) < background) | (
            fired[:, None]
        )
    if isinstance(set_model, IndependentModel):
        marginals = np.array([set_model.marginal(k) for k in order])
        return rng.random((n_snapshots, len(order))) < marginals
    return set_model.sample_matrix(rng, n_snapshots)


class TestBatchedDraws:
    """``sample_states`` draws the uniforms of consecutive models with a
    uniform width in one call; states and generator state must be the
    bytes of per-set draws."""

    @staticmethod
    def mixed_model():
        from repro.eval.figures import default_instance
        from repro.model import CommonCauseModel
        from repro.model.cluster import ActiveSubsetModel, make_cluster_model
        from repro.model.shared_resource import SharedResourceModel

        correlation = default_instance("brite", scale="small").correlation
        models = []
        for index, group in enumerate(correlation.sets):
            links = sorted(group)
            kind = index % 8
            if kind == 0:
                models.append(
                    IndependentModel({k: 0.05 + 0.01 * (k % 7) for k in links})
                )
            elif kind == 1:
                models.append(
                    CommonCauseModel(group, cause_probability=0.1,
                                     background=0.02)
                )
            elif kind == 2:
                models.append(
                    make_cluster_model(group, frozenset(links[:3]),
                                       cause_probability=0.2,
                                       background=0.05)
                )
            elif kind == 3:
                models.append(make_cluster_model(
                    group, frozenset(), cause_probability=0.2,
                    background=0.05,
                ))
            elif kind == 4:
                # No uniform width: draws itself at its place.
                models.append(
                    SharedResourceModel(
                        {k: {("r", k % 3)} for k in links},
                        {("r", r): 0.1 for r in range(3)},
                    )
                )
            elif kind == 5:
                models.append(ActiveSubsetModel(
                    group, IndependentModel({links[-1]: 0.3}),
                ))
            elif kind == 6:
                # Never congests through its own sampler.
                models.append(IndependentModel({k: 0.0 for k in links}))
            else:
                models.append(
                    CommonCauseModel(group, cause_probability=0.0,
                                     background=0.0)
                )
        return NetworkCongestionModel(correlation, models)

    @staticmethod
    def layout_model(pattern: str):
        """Set ``i`` never congests when ``pattern[i % len(pattern)]``
        is ``q``, draws without a uniform width when ``s``, and is an
        active cluster otherwise: runs of never-congesting sets at the
        start, the end, between active sets and around a sampler
        without a uniform width."""
        from repro.eval.figures import default_instance
        from repro.model.cluster import make_cluster_model
        from repro.model.shared_resource import SharedResourceModel

        correlation = default_instance("brite", scale="small").correlation
        models = []
        for index, group in enumerate(correlation.sets):
            links = sorted(group)
            kind = pattern[index % len(pattern)]
            if kind == "q":
                models.append(make_cluster_model(
                    group, frozenset(), cause_probability=0.0,
                    background=0.0,
                ))
            elif kind == "s":
                models.append(
                    SharedResourceModel(
                        {k: {("r", k % 2)} for k in links},
                        {("r", r): 0.2 for r in range(2)},
                    )
                )
            else:
                models.append(make_cluster_model(
                    group, frozenset(links[:2]), cause_probability=0.3,
                    background=0.1,
                ))
        return NetworkCongestionModel(correlation, models)

    @pytest.mark.parametrize("n_snapshots", [0, 1, 37, 512])
    def test_states_and_rng_state_equal_per_set_draws(self, n_snapshots):
        model = self.mixed_model()
        kinds = {m.uniform_width is None for m in model.models}
        assert kinds == {True, False}
        rng = np.random.default_rng(2024)
        reference_rng = np.random.default_rng(2024)
        states = model.sample_states(rng, n_snapshots)
        reference = np.zeros((n_snapshots, model.n_links), dtype=bool)
        for set_model in model.models:
            reference[:, set_model.member_order] = per_set_draws(
                set_model, reference_rng, n_snapshots
            )
        assert states.tobytes() == reference.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        if n_snapshots == 512:
            assert 0 < states.sum() < states.size

    @pytest.mark.parametrize(
        "pattern", ["q", "qqa", "aqq", "qsq", "sqqqa", "aqqsqq"]
    )
    @pytest.mark.parametrize("n_snapshots", [1, 60])
    def test_shared_never_congesting_sets_equal_sample_matrix(
        self, pattern, n_snapshots
    ):
        """States and generator state equal each set's own
        ``sample_matrix`` in turn, shared never-congesting models
        included."""
        model = self.layout_model(pattern)
        quiet = [m for m in model.models if not m.sampler.can_congest]
        assert quiet
        rng = np.random.default_rng(99)
        reference_rng = np.random.default_rng(99)
        states = model.sample_states(rng, n_snapshots)
        reference = np.zeros((n_snapshots, model.n_links), dtype=bool)
        for set_model in model.models:
            reference[:, set_model.member_order] = set_model.sample_matrix(
                reference_rng, n_snapshots
            )
        assert states.tobytes() == reference.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        # The same scenario built again reuses every never-congesting
        # model object.
        again = self.layout_model(pattern)
        assert [m for m in again.models if m in quiet] == [
            m for m in again.models if not m.sampler.can_congest
        ]

    def test_link_marginals_skip_only_zeros(self):
        model = self.mixed_model()
        reference = np.zeros(model.n_links)
        for set_model in model.models:
            for link_id in set_model.links:
                reference[link_id] = set_model.marginal(link_id)
        assert model.link_marginals().tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n_snapshots", [1, 37])
    def test_sample_matrix_equals_per_set_draws(self, n_snapshots):
        for set_model in self.mixed_model().models:
            rng = np.random.default_rng(7)
            reference_rng = np.random.default_rng(7)
            got = set_model.sample_matrix(rng, n_snapshots)
            expected = per_set_draws(set_model, reference_rng, n_snapshots)
            assert got.tobytes() == expected.tobytes(), set_model
            assert rng.bit_generator.state == (
                reference_rng.bit_generator.state
            )
