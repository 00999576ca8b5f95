"""The congestion model: exact == naive, MC agreement, cache hits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.cache import TrialCache
from repro.predict.demand import DemandMatrix
from repro.predict.model import (
    EXACT_STATE_BUDGET,
    CongestionModel,
    exact_state_bound,
    exceedance_exact,
    exceedance_naive,
    exceedance_sample,
    expected_load,
)


def random_flow_set(rng, *, n_links=5, max_flows=6, max_candidates=3):
    """A random (rates, incidences, limits) triple with feasible naive cost."""
    n_flows = int(rng.integers(1, max_flows + 1))
    rates = rng.uniform(0.1, 2.0, size=n_flows)
    incidences = []
    for _ in range(n_flows):
        k = int(rng.integers(1, max_candidates + 1))
        incidence = (rng.random((k, n_links)) < 0.5).astype(np.float64)
        incidences.append(incidence)
    limits = rng.uniform(0.5, 3.0, size=n_links)
    return rates, incidences, limits


def reference_exact(rates, incidences, limits) -> np.ndarray:
    """The exact recursion written plainly over NumPy scalars, as a
    byte-for-byte reference for ``exceedance_exact``."""
    rates = np.asarray(rates, dtype=np.float64)
    limits = np.asarray(limits, dtype=np.float64)
    membership = np.stack(
        [np.asarray(inc, dtype=np.float64).mean(axis=0) for inc in incidences]
    )
    boundary = limits + 1e-9 * (1.0 + np.abs(limits))
    out = np.empty(limits.size)
    for link in range(limits.size):
        headroom = float(boundary[link])
        uncertain = []
        for flow in range(rates.size):
            prob = float(membership[flow, link])
            if prob == 0.0 or rates[flow] == 0.0:
                continue
            if prob == 1.0:
                headroom -= float(rates[flow])
            else:
                uncertain.append((float(rates[flow]), prob))
        uncertain.sort(key=lambda pair: (-pair[0], pair[1]))
        link_rates = [rate for rate, _ in uncertain]
        suffix = np.concatenate([np.cumsum(link_rates[::-1])[::-1], [0.0]])
        memo = {}

        def solve(index, headroom):
            if headroom < 0.0:
                return 1.0
            if suffix[index] <= headroom:
                return 0.0
            key = (index, round(headroom, 12))
            if key not in memo:
                rate, prob = uncertain[index]
                memo[key] = prob * solve(index + 1, headroom - rate) + (
                    1.0 - prob
                ) * solve(index + 1, headroom)
            return memo[key]

        out[link] = solve(0, headroom)
    return out


class TestExactVsNaive:
    def test_exact_bytes_equal_the_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            rates, incidences, limits = random_flow_set(
                rng, n_links=8, max_flows=12, max_candidates=4
            )
            # Repeated rates make partial loads collide in the memo.
            rates = np.round(rates, 1)
            assert exceedance_exact(rates, incidences, limits).tobytes() == (
                reference_exact(rates, incidences, limits).tobytes()
            )

    def test_exact_equals_naive_on_random_flow_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            rates, incidences, limits = random_flow_set(rng)
            exact = exceedance_exact(rates, incidences, limits)
            naive = exceedance_naive(rates, incidences, limits)
            assert np.allclose(exact, naive, atol=1e-12)

    def test_certain_and_irrelevant_flows(self):
        # Flow 0 always crosses link 0 (single candidate); flow 1 never
        # does.  Exact must treat them deterministically.
        incidences = [
            np.array([[1.0, 0.0]]),
            np.array([[0.0, 1.0], [0.0, 1.0]]),
        ]
        out = exceedance_exact([1.0, 1.0], incidences, [0.5, 10.0])
        assert out[0] == 1.0  # certain load 1.0 > 0.5
        assert out[1] == 0.0  # load 1.0 <= 10

    def test_load_exactly_at_limit_is_not_congested(self):
        # The shared boundary epsilon: load == limit counts as fine, for
        # all three evaluators.
        incidence = [np.array([[1.0]])]
        for evaluate in (
            lambda: exceedance_exact([0.85], incidence, [0.85]),
            lambda: exceedance_naive([0.85], incidence, [0.85]),
            lambda: exceedance_sample(
                [0.85],
                incidence,
                [0.85],
                rng=np.random.default_rng(0),
                n_samples=10,
            ),
        ):
            assert evaluate()[0] == 0.0

    def test_empty_links_and_mismatched_inputs(self):
        with pytest.raises(ValueError):
            exceedance_exact([1.0, 2.0], [np.ones((1, 3))], np.ones(3))
        with pytest.raises(ValueError):
            exceedance_exact([1.0], [np.ones((1, 4))], np.ones(3))


class TestMonteCarlo:
    def test_sampler_is_deterministic_given_the_generator(self):
        rng = np.random.default_rng(3)
        rates, incidences, limits = random_flow_set(rng, max_flows=5)
        first = exceedance_sample(
            rates, incidences, limits,
            rng=np.random.default_rng(11), n_samples=500,
        )
        second = exceedance_sample(
            rates, incidences, limits,
            rng=np.random.default_rng(11), n_samples=500,
        )
        assert np.array_equal(first, second)

    def test_sampler_agrees_with_exact(self):
        rng = np.random.default_rng(5)
        rates, incidences, limits = random_flow_set(rng, max_flows=6)
        exact = exceedance_exact(rates, incidences, limits)
        sampled = exceedance_sample(
            rates, incidences, limits,
            rng=np.random.default_rng(0), n_samples=40_000,
        )
        assert np.abs(exact - sampled).max() < 0.02

    def test_sampler_bytes_equal_scaling_the_gathered_rows(self):
        rng = np.random.default_rng(13)
        rates, incidences, limits = random_flow_set(rng, max_flows=7)
        assert sum(len(incidence) > 1 for incidence in incidences) >= 3
        got = exceedance_sample(
            rates, incidences, limits,
            rng=np.random.default_rng(4), n_samples=300,
        )
        draws = np.random.default_rng(4)
        load = np.zeros((300, len(limits)))
        for rate, incidence in zip(rates, incidences):
            choices = draws.integers(0, len(incidence), size=300)
            load += rate * np.asarray(incidence, dtype=np.float64)[choices]
        limits = np.asarray(limits, dtype=np.float64)
        boundary = limits + 1e-9 * (1.0 + np.abs(limits))
        assert got.tobytes() == (load > boundary).mean(axis=0).tobytes()

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            exceedance_sample(
                [1.0], [np.ones((1, 1))], [1.0],
                rng=np.random.default_rng(0), n_samples=0,
            )


class TestExpectedLoad:
    def test_expected_load_is_rate_weighted_membership(self):
        incidences = [
            np.array([[1.0, 0.0], [0.0, 1.0]]),  # 50/50 split
            np.array([[1.0, 1.0]]),  # always both links
        ]
        load = expected_load([2.0, 3.0], incidences)
        assert np.allclose(load, [2.0 * 0.5 + 3.0, 2.0 * 0.5 + 3.0])


class TestCongestionModel:
    def test_method_selection(self):
        model = CongestionModel(exact_max_flows=2)
        assert model.method_for(2) == "exact"
        assert model.method_for(3) == "monte-carlo"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"utilization_threshold": 0.0},
            {"exact_max_flows": -1},
            {"mc_samples": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            CongestionModel(**kwargs)

    def test_rejects_wrong_rate_shape(self, instance, demand_payload):
        resolved = DemandMatrix.from_payload(demand_payload).resolve(
            instance.topology
        )
        with pytest.raises(ValueError, match="shape"):
            CongestionModel().predict(resolved, rates=[1.0])

    def test_cache_hit_skips_the_computation(
        self, instance, demand_payload, tmp_path, monkeypatch
    ):
        resolved = DemandMatrix.from_payload(demand_payload).resolve(
            instance.topology
        )
        cache = TrialCache(tmp_path)
        model = CongestionModel()
        cold = model.predict(resolved, cache=cache)
        assert cold.method == "exact" and not cold.cached

        # Any recomputation after the hit would blow up.
        import repro.predict.model as model_module

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("cache hit recomputed the prediction")

        monkeypatch.setattr(model_module, "exceedance_exact", boom)
        monkeypatch.setattr(model_module, "exceedance_sample", boom)
        warm = model.predict(resolved, cache=cache)
        assert warm.cached
        assert np.array_equal(warm.probability, cold.probability)
        assert np.array_equal(warm.expected_load, cold.expected_load)
        assert np.array_equal(
            warm.expected_utilization, cold.expected_utilization
        )

    def test_cache_key_moves_with_rates_threshold_and_seed(
        self, instance, demand_payload, tmp_path
    ):
        resolved = DemandMatrix.from_payload(demand_payload).resolve(
            instance.topology
        )
        cache = TrialCache(tmp_path)
        model = CongestionModel()
        model.predict(resolved, cache=cache)
        shifted = model.predict(
            resolved, rates=resolved.rates * 1.5, cache=cache
        )
        assert not shifted.cached  # rate perturbation = new key
        other_threshold = CongestionModel(utilization_threshold=0.9)
        assert not other_threshold.predict(resolved, cache=cache).cached
        # Monte Carlo keys include the seed; exact keys do not.
        mc_model = CongestionModel(exact_max_flows=0, mc_samples=200)
        first = mc_model.predict(resolved, seed=1, cache=cache)
        assert first.method == "monte-carlo" and not first.cached
        assert mc_model.predict(resolved, seed=1, cache=cache).cached
        assert not mc_model.predict(resolved, seed=2, cache=cache).cached

    def test_exact_prediction_ignores_seed(self, instance, demand_payload):
        resolved = DemandMatrix.from_payload(demand_payload).resolve(
            instance.topology
        )
        model = CongestionModel()
        one = model.predict(resolved, seed=1)
        two = model.predict(resolved, seed=2)
        assert np.array_equal(one.probability, two.probability)


def serve_mixed_demand(seed: int = 11) -> dict:
    """The service benchmark's what-if demand shape: 16 flows with
    two-path ECMP splits over a 6-path pool, capacity 4.5 everywhere."""
    rng = np.random.default_rng(seed)
    flows = []
    for index in range(16):
        split = sorted(int(p) for p in rng.choice(6, size=2, replace=False))
        rate = float(rng.choice([0.6, 1.0, 1.4]))
        flows.append({"name": f"f{index}", "rate": rate, "paths": split})
    return {"flows": flows, "capacities": {"default": 4.5}}


def distinct_rate_flows(n_flows: int) -> tuple:
    """``n_flows`` flows of distinct rates, each crossing link 0 on one
    of its two candidates, with the limit at half their total: the
    exact recursion's worst case on that link."""
    rates = np.array([1.0 + 0.137 * index for index in range(n_flows)])
    incidence = np.array([[1.0, 0.0], [0.0, 1.0]])
    limits = np.array([rates.sum() / 2.0, 1e9])
    return rates, [incidence] * n_flows, limits


class TestExactStateBudget:
    """The exact recursion is budgeted by its memo states per link."""

    @staticmethod
    def memo_states(rates, incidences, limits) -> int:
        """The recursion's largest memo on any link, counted by running
        it: the quantity :func:`exact_state_bound` bounds."""
        from repro.predict import model as model_module

        sizes = []
        original = model_module._link_exceed

        def counting(rates, probs, headroom, memo):
            value = original(rates, probs, headroom, memo)
            sizes.append(len(memo))
            return value

        model_module._link_exceed = counting
        try:
            exceedance_exact(rates, incidences, limits)
        finally:
            model_module._link_exceed = original
        return max(sizes, default=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_bound_covers_the_memo(self, seed):
        rng = np.random.default_rng(seed)
        rates, incidences, limits = random_flow_set(
            rng, n_links=6, max_flows=9, max_candidates=3
        )
        # Repeat some rates, so equal partial loads collapse.
        rates = np.round(rates * 2.0) / 2.0
        membership = np.stack([inc.mean(axis=0) for inc in incidences])
        assert self.memo_states(rates, incidences, limits) <= (
            exact_state_bound(rates, membership)
        )

    def test_bound_of_distinct_rates(self):
        rates, incidences, limits = distinct_rate_flows(10)
        membership = np.stack([inc.mean(axis=0) for inc in incidences])
        assert exact_state_bound(rates, membership) == 10 * 2**10
        # Certain or absent flows and zero rates add no state.
        assert exact_state_bound(rates * 0.0, membership) == 0
        assert exact_state_bound(rates, np.round(membership)) == 0
        # The bound is capped just past the budget.
        rates, incidences, _ = distinct_rate_flows(40)
        membership = np.stack([inc.mean(axis=0) for inc in incidences])
        assert exact_state_bound(rates, membership) == EXACT_STATE_BUDGET + 1

    def test_sixteen_distinct_rates_go_monte_carlo_quickly(self, instance):
        import time

        rates, incidences, limits = distinct_rate_flows(16)
        demand = DemandMatrix.from_payload({
            "flows": [
                {"name": f"f{index}", "rate": float(rate), "paths": [0, 1]}
                for index, rate in enumerate(rates)
            ],
            "capacities": {"default": float(rates.sum() / 2.0 / 0.85)},
        })
        resolved = demand.resolve(instance.topology)
        model = CongestionModel(mc_samples=2000)
        assert model.method(resolved, resolved.rates) == "monte-carlo"
        started = time.perf_counter()
        prediction = model.predict(resolved, seed=3)
        assert time.perf_counter() - started < 1.0
        assert prediction.method == "monte-carlo"
        # Under the flow-count rule alone it would have run exact.
        assert resolved.n_flows <= model.exact_max_flows

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_service_benchmark_demands_stay_exact(self, seed):
        from repro.serve.registry import instance_from_payload

        topology = instance_from_payload({"generator": {
            "kind": "brite", "n_ases": 40, "routers_per_as": 5,
            "n_paths": 120, "seed": 7,
        }}).topology
        resolved = DemandMatrix.from_payload(
            serve_mixed_demand(seed)
        ).resolve(topology)
        bound = exact_state_bound(resolved.rates, resolved.membership())
        assert bound <= 750
        assert CongestionModel().method(resolved, resolved.rates) == "exact"


class TestForecastKey:
    def test_key_covers_the_topology(self, tmp_path):
        """One demand on two topologies with the same path ids: the
        forecasts differ, so a trial cache shared across topologies must
        key them apart."""
        from repro.serve.registry import instance_from_payload

        generator = {"kind": "brite", "n_ases": 40, "routers_per_as": 5,
                     "n_paths": 120}
        demand = DemandMatrix.from_payload(serve_mixed_demand())
        resolved = [
            demand.resolve(
                instance_from_payload(
                    {"generator": dict(generator, seed=seed)}
                ).topology
            )
            for seed in (7, 13)
        ]
        model = CongestionModel()
        limits = [model.utilization_threshold * r.capacities for r in resolved]
        fresh = [
            exceedance_exact(r.rates, r.incidences, limit)
            for r, limit in zip(resolved, limits)
        ]
        assert fresh[0].tobytes() != fresh[1].tobytes()
        keys = [model._key(r, r.rates, "exact", 0) for r in resolved]
        assert keys[0] != keys[1]
        cache = TrialCache(tmp_path)
        for r, expected in zip(resolved, fresh):
            assert model.predict(r, cache=cache).probability.tobytes() == (
                expected.tobytes()
            )
