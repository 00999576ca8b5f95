"""Shared fixtures: the paper's toy instances and small generated ones.

Expensive generated instances are session-scoped; anything a test mutates
must be function-scoped or copied.
"""

from __future__ import annotations

import signal
import threading

import numpy as np
import pytest

from repro.model import (
    ExplicitJointModel,
    IndependentModel,
    NetworkCongestionModel,
)
from repro.simulate import ExactPathStateDistribution
from repro.topogen import fig_1a, fig_1b, generate_brite, generate_planetlab


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout(seconds): fail the test if it runs longer than the budget "
        "(SIGALRM-based; deferred to the pytest-timeout plugin when it is "
        "installed)",
    )


def _timeout_budget(item) -> float | None:
    """The effective ``timeout`` budget for *item*, or None."""
    marker = item.get_closest_marker("timeout")
    if marker is None:
        return None
    if marker.args:
        seconds = marker.args[0]
    else:
        seconds = marker.kwargs.get("seconds")
    if seconds is None:
        return None
    seconds = float(seconds)
    return seconds if seconds > 0 else None


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Enforce ``@pytest.mark.timeout(seconds)`` without the plugin.

    The container does not ship pytest-timeout, so the dist suite's hang
    protection is implemented here with a real-time SIGALRM.  When the
    actual plugin is present it wins: this hook becomes a pass-through so
    the two implementations never race over the same signal.
    """
    seconds = _timeout_budget(item)
    can_alarm = (
        seconds is not None
        and not item.config.pluginmanager.hasplugin("timeout")
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not can_alarm:
        return (yield)

    def _expired(signum, frame):
        pytest.fail(
            f"test exceeded its {seconds:g}s timeout budget", pytrace=False
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def instance_1a():
    """Figure 1(a): Assumption 4 holds."""
    return fig_1a()


@pytest.fixture(scope="session")
def instance_1b():
    """Figure 1(b): Assumption 4 fails."""
    return fig_1b()


def make_fig1a_model(instance):
    """The canonical correlated ground truth used across tests.

    ``{e1, e2}`` get an explicit joint with strong positive correlation;
    ``e3`` and ``e4`` are independent.  Exact marginals:
    P(e1)=P(e2)=0.25, P(e3)=0.3, P(e4)=0.15, P(e1∧e2)=0.2.
    """
    topology = instance.topology
    e1, e2, e3, e4 = (
        topology.link(name).id for name in ("e1", "e2", "e3", "e4")
    )
    return NetworkCongestionModel(
        instance.correlation,
        [
            ExplicitJointModel(
                frozenset({e1, e2}),
                {
                    frozenset({e1}): 0.05,
                    frozenset({e2}): 0.05,
                    frozenset({e1, e2}): 0.20,
                },
            ),
            IndependentModel({e3: 0.3}),
            IndependentModel({e4: 0.15}),
        ],
    )


@pytest.fixture(scope="session")
def model_1a(instance_1a):
    return make_fig1a_model(instance_1a)


@pytest.fixture(scope="session")
def oracle_1a(instance_1a, model_1a):
    """Exact path-state distribution of the Fig-1(a) ground truth."""
    return ExactPathStateDistribution.from_model(
        instance_1a.topology, model_1a
    )


@pytest.fixture(scope="session")
def truth_1a(model_1a) -> np.ndarray:
    return model_1a.link_marginals()


@pytest.fixture(scope="session")
def brite_small():
    """A small Brite scenario shared by topogen/eval tests."""
    return generate_brite(
        n_ases=40, routers_per_as=5, n_paths=120, seed=101
    )


@pytest.fixture(scope="session")
def planetlab_small():
    """A small PlanetLab instance shared by topogen/eval tests."""
    return generate_planetlab(
        n_routers=120, n_vantages=20, n_paths=120, seed=102
    )


@pytest.fixture(scope="session")
def rebuilt_log_good():
    """The Section-4 answer by full rebuild, independent of any template.

    Runs equation selection over the measured values with
    :func:`build_equations`, then one :func:`solve` on the assembled
    sparse system.  Returns ``(log_good, solver_used, system)``;
    ``log_good`` is clamped to ``<= 0`` as every inference result is.
    Template-based answers must equal it byte for byte.
    """
    from repro.core.correlation_algorithm import AlgorithmOptions
    from repro.core.equations import build_equations
    from repro.core.solvers import solve

    def rebuild(instance, measurements, *, registry=None, **options):
        options = AlgorithmOptions(**options)
        system = build_equations(
            instance.topology,
            instance.correlation,
            measurements,
            max_pair_candidates=options.max_pair_candidates,
            pair_order_seed=options.pair_order_seed,
            registry=registry,
        )
        solution, solver_used = solve(*system.sparse_matrix())
        return np.minimum(solution, 0.0), solver_used, system

    return rebuild
