"""Soundness of the Section-4 equation builder on random instances.

Every accepted row (single-path or pair) must be *exactly* satisfied by
the true log-good vector when measurements are exact — this is the
factorisation claim behind Eqs. 9 and 10: correlation-free paths and
pairs see independent links, so their good-probabilities multiply.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.equations import build_equations
from repro.simulate.oracle import ExactPathStateDistribution
from tests.property.strategies import correlated_instances, network_models

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
    ],
)


@given(correlated_instances(), st.data())
@RELAXED
def test_accepted_rows_hold_exactly(instance, data):
    topology, correlation = instance
    model = data.draw(network_models(correlation))
    oracle = ExactPathStateDistribution.from_model(topology, model)
    system = build_equations(topology, correlation, oracle)
    if not system.rows:
        return
    truth = model.link_marginals()
    # All explicit models in the strategies keep marginals < 1, so the
    # log is finite.
    x_true = np.log(1.0 - truth)
    matrix, values = system.matrix()
    assert np.allclose(matrix @ x_true, values, atol=1e-8)


@given(correlated_instances(), st.data())
@RELAXED
def test_rank_never_exceeds_links(instance, data):
    topology, correlation = instance
    model = data.draw(network_models(correlation))
    oracle = ExactPathStateDistribution.from_model(topology, model)
    system = build_equations(topology, correlation, oracle)
    assert system.rank <= topology.n_links
    assert system.rank <= len(system.rows) or not system.rows


@given(correlated_instances(), st.data())
@RELAXED
def test_independent_selection_rank_equals_row_count(instance, data):
    """Every kept row increases the rank (the paper's selection), so the
    row count equals the rank exactly."""
    topology, correlation = instance
    model = data.draw(network_models(correlation))
    oracle = ExactPathStateDistribution.from_model(topology, model)
    system = build_equations(topology, correlation, oracle)
    assert len(system.rows) == system.rank


@given(correlated_instances(), st.data())
@RELAXED
def test_eligible_paths_are_correlation_free(instance, data):
    topology, correlation = instance
    model = data.draw(network_models(correlation))
    oracle = ExactPathStateDistribution.from_model(topology, model)
    system = build_equations(topology, correlation, oracle)
    for path_id in system.eligible_paths:
        assert correlation.path_is_correlation_free(path_id)


@given(correlated_instances(), st.data())
@RELAXED
def test_full_rank_implies_exact_recovery(instance, data):
    """When the builder reaches full column rank, the L1 solve recovers
    the exact marginals from noise-free measurements."""
    from repro.core.correlation_algorithm import infer_congestion

    topology, correlation = instance
    model = data.draw(network_models(correlation))
    oracle = ExactPathStateDistribution.from_model(topology, model)
    system = build_equations(topology, correlation, oracle)
    if not system.is_fully_determined:
        return
    result = infer_congestion(topology, correlation, oracle)
    truth = model.link_marginals()
    assert np.allclose(
        result.congestion_probabilities, truth, atol=1e-5
    )
