"""Unit tests for the Figure-3 cluster scenario model."""

import math

import pytest

from repro.exceptions import ModelError
from repro.model.cluster import ActiveSubsetModel, make_cluster_model
from repro.model.common_cause import CommonCauseModel
from repro.model.independent import IndependentModel
from repro.utils.rng import as_generator


@pytest.fixture()
def model():
    """Set {0,1,2,3}; active {0,1} via common cause."""
    inner = CommonCauseModel(
        frozenset({0, 1}), cause_probability=0.25, background=0.1
    )
    return ActiveSubsetModel(frozenset({0, 1, 2, 3}), inner)


class TestActiveSubsetModel:
    def test_inactive_links_never_congest(self, model):
        assert model.marginal(2) == 0.0
        assert model.marginal(3) == 0.0
        rng = as_generator(0)
        for _ in range(100):
            state = model.sample(rng)
            assert not state & {2, 3}

    def test_active_marginals_delegate(self, model):
        assert math.isclose(model.marginal(0), 0.25 + 0.75 * 0.1)

    def test_joint_with_inactive_is_zero(self, model):
        assert model.joint(frozenset({0, 2})) == 0.0

    def test_joint_of_active_subset(self, model):
        assert math.isclose(
            model.joint(frozenset({0, 1})), 0.25 + 0.75 * 0.01
        )

    def test_state_probability_routed(self, model):
        inner = model.inner
        assert model.state_probability(
            frozenset({0})
        ) == inner.state_probability(frozenset({0}))
        assert model.state_probability(frozenset({2})) == 0.0

    def test_active_links_must_be_members(self):
        inner = IndependentModel({9: 0.5})
        with pytest.raises(ModelError, match="not all members"):
            ActiveSubsetModel(frozenset({0, 1}), inner)

    def test_sample_matrix_embeds_columns(self, model):
        matrix = model.sample_matrix(as_generator(1), 2000)
        assert matrix.shape == (2000, 4)
        # Columns follow member_order = [0,1,2,3]; inactive all-False.
        assert not matrix[:, 2].any()
        assert not matrix[:, 3].any()
        assert abs(matrix[:, 0].mean() - model.marginal(0)) < 0.05

    def test_support_is_inner_support(self, model):
        states = {state for state, _ in model.support()}
        assert all(state <= frozenset({0, 1}) for state in states)


class TestMakeClusterModel:
    def test_empty_active_set_never_congests(self):
        model = make_cluster_model(
            frozenset({5, 6}),
            frozenset(),
            cause_probability=0.5,
            background=0.2,
        )
        assert model.marginal(5) == 0.0
        assert model.marginal(6) == 0.0
        assert model.sample(as_generator(0)) == frozenset()

    def test_active_model_is_common_cause(self):
        model = make_cluster_model(
            frozenset({5, 6, 7}),
            frozenset({5, 6}),
            cause_probability=0.4,
            background=0.0,
        )
        # With zero background the actives congest only together.
        assert math.isclose(model.joint(frozenset({5, 6})), 0.4)
        assert math.isclose(model.marginal(5), 0.4)
        assert model.marginal(7) == 0.0

    def test_per_link_background(self):
        model = make_cluster_model(
            frozenset({1, 2}),
            frozenset({1, 2}),
            cause_probability=0.0,
            background={1: 0.3, 2: 0.1},
        )
        assert math.isclose(model.marginal(1), 0.3)
        assert math.isclose(model.marginal(2), 0.1)


class TestNeverCongestingModel:
    def test_one_shared_model_per_set(self):
        group = frozenset({4, 7, 9})
        first = make_cluster_model(
            group, frozenset(), cause_probability=0.0, background=0.0
        )
        # The knobs are ignored, and an equal set built anew finds it.
        second = make_cluster_model(
            frozenset([9, 7, 4]), set(), cause_probability=0.5,
            background=0.2,
        )
        assert first is second
        assert first.links == group
        other = make_cluster_model(
            frozenset({4, 7}), frozenset(), cause_probability=0.0,
            background=0.0,
        )
        assert other is not first

    def test_it_cannot_congest_but_draws_one_uniform(self):
        group = frozenset({1, 2, 3})
        shared = make_cluster_model(
            group, frozenset(), cause_probability=0.0, background=0.0
        )
        assert not shared.can_congest
        assert not shared.sampler.can_congest
        assert shared.sampler.uniform_width == 1
        assert all(shared.marginal(k) == 0.0 for k in group)
        rng, reference = as_generator(3), as_generator(3)
        assert not shared.sample_matrix(rng, 50).any()
        reference.random(50)
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_an_active_set_can_congest(self, model):
        assert model.can_congest and model.sampler.can_congest
