"""Query normalisation, codec round-trips, and runner determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.scenario import HIGH_CORRELATION_RANGE, LOOSE_CORRELATION_RANGE
from repro.eval.cache import trial_key
from repro.serve.queries import (
    MAX_EXACT_FLOWS,
    MAX_MC_SAMPLES,
    MAX_QUERY_CELLS,
    decode_vectors,
    encode_vectors,
    normalize_query,
    query_tasks,
    run_query,
    validate_query,
)


class TestNormalizeQuery:
    def test_defaults(self):
        runner, kwargs, seed = normalize_query({})
        assert runner.endswith(":run_localization_task")
        assert seed == 0
        assert kwargs["n_snapshots"] == 120
        assert kwargs["per_set_range"] == HIGH_CORRELATION_RANGE

    def test_overrides_and_seed(self):
        runner, kwargs, seed = normalize_query(
            {
                "kind": "localization",
                "seed": 7,
                "n_snapshots": 40,
                "per_set_range": "loose",
                "packets_per_path": None,
            }
        )
        assert seed == 7
        assert kwargs["n_snapshots"] == 40
        assert kwargs["per_set_range"] == LOOSE_CORRELATION_RANGE
        assert kwargs["packets_per_path"] is None

    def test_per_set_range_accepts_explicit_pair(self):
        _, kwargs, _ = normalize_query({"per_set_range": [2, 5]})
        assert kwargs["per_set_range"] == (2, 5)

    def test_identifiability_kind(self):
        runner, kwargs, _ = normalize_query(
            {"kind": "identifiability", "max_subset_size": 3}
        )
        assert runner.endswith(":run_identifiability_task")
        assert kwargs == {"max_subset_size": 3}

    @pytest.mark.parametrize(
        "query, match",
        [
            ({"kind": "nonsense"}, "unknown query kind"),
            ({"bogus": 1}, "unknown localization query parameter"),
            ({"kind": "identifiability", "n_snapshots": 5}, "unknown"),
            ({"seed": "abc"}, "seed must be an integer"),
            ([], "must be an object"),
        ],
    )
    def test_rejections(self, query, match):
        with pytest.raises(ValueError, match=match):
            normalize_query(query)

    @pytest.mark.parametrize(
        "query, match",
        [
            ({"n_snapshots": "abc"}, "n_snapshots must be an integer"),
            ({"n_snapshots": 10**9}, "n_snapshots must be an integer"),
            ({"n_snapshots": True}, "n_snapshots must be an integer"),
            ({"congested_fraction": float("nan")}, "congested_fraction"),
            ({"congested_fraction": -0.1}, "congested_fraction"),
            ({"max_nodes": -1}, "max_nodes"),
            ({"loc_snapshots": True}, "loc_snapshots"),
            ({"packets_per_path": 0}, "packets_per_path"),
            ({"per_set_range": [0, 2]}, "per_set_range"),
            ({"per_set_range": "tight"}, "per_set_range"),
            ({"seed": -3}, "seed must be an integer >= 0"),
            ({"seed": False}, "seed must be an integer >= 0"),
            (
                {"kind": "whatif", "demand": {"flows": [
                    {"name": "f", "rate": 1.0, "paths": [0]}]},
                 "utilization_threshold": float("inf")},
                "utilization_threshold",
            ),
            (
                {"kind": "whatif", "demand": {"flows": [
                    {"name": "f", "rate": 1.0, "paths": [0]}]},
                 "mc_samples": 10**9},
                "mc_samples",
            ),
            (
                {"kind": "whatif", "demand": {"flows": [
                    {"name": "f", "rate": 1.0, "paths": [0]}]},
                 "n_snapshots": 0},
                "n_snapshots",
            ),
        ],
    )
    def test_parameter_limits(self, query, match):
        with pytest.raises(ValueError, match=match):
            normalize_query(query)

    def test_limits_admit_the_largest_benchmark_values(self):
        normalize_query(
            {"n_snapshots": 20_000, "packets_per_path": 1000,
             "loc_snapshots": 8, "max_nodes": 200_000}
        )
        normalize_query(
            {"kind": "whatif", "demand": {"flows": [
                {"name": "f", "rate": 1.0, "paths": [0]}]},
             "mc_samples": 150_000, "exact_max_flows": 16,
             "packets_per_path": None}
        )

    def test_exact_max_flows_bound(self):
        demand = {"flows": [{"name": "f", "rate": 1.0, "paths": [0]}]}
        normalize_query(
            {"kind": "whatif", "demand": demand,
             "exact_max_flows": MAX_EXACT_FLOWS}
        )
        with pytest.raises(ValueError, match="exact_max_flows"):
            normalize_query(
                {"kind": "whatif", "demand": demand,
                 "exact_max_flows": MAX_EXACT_FLOWS + 1}
            )

    def test_does_not_mutate_input(self):
        query = {"kind": "localization", "seed": 3}
        normalize_query(query)
        assert query == {"kind": "localization", "seed": 3}


class TestValidateQueryCells:
    """``validate_query`` bounds a query's matrices on its topology."""

    @pytest.fixture(scope="class")
    def instance(self):
        from repro.serve.registry import instance_from_payload

        # The service benchmark's topology: 120 links, 120 paths.
        return instance_from_payload({"generator": {
            "kind": "brite", "n_ases": 40, "routers_per_as": 5,
            "n_paths": 120, "seed": 7,
        }})

    @staticmethod
    def demand(n_flows: int) -> dict:
        return {"flows": [
            {"name": f"f{i}", "rate": 1.0, "paths": [i % 6, (i + 1) % 6]}
            for i in range(n_flows)
        ]}

    def test_defaults_fit(self, instance):
        validate_query(instance, {"kind": "localization"})
        # 17 flows > exact_max_flows: the default 20000-sample Monte
        # Carlo forecast.
        validate_query(
            instance, {"kind": "whatif", "demand": self.demand(17)}
        )

    def test_window_over_the_limit_is_refused(self, instance):
        topology = instance.topology
        width = topology.n_links + topology.n_paths
        fits = MAX_QUERY_CELLS // width
        validate_query(instance, {"n_snapshots": fits})
        with pytest.raises(ValueError, match="cells"):
            validate_query(instance, {"n_snapshots": fits + 1})

    def test_monte_carlo_over_the_limit_is_refused(self, instance):
        query = {
            "kind": "whatif",
            "demand": self.demand(3),
            "exact_max_flows": 0,
            "mc_samples": MAX_MC_SAMPLES,
        }
        assert MAX_MC_SAMPLES * instance.topology.n_links > MAX_QUERY_CELLS
        with pytest.raises(ValueError, match="Monte Carlo"):
            validate_query(instance, query)
        # The exact path never allocates the samples.
        validate_query(instance, dict(query, exact_max_flows=3))


class TestValidateQueryTasks:
    """``validate_query`` returns the query's tasks, parsed once."""

    def test_tasks_equal_query_tasks(self, instance_1a):
        for query in (
            {"seed": 5, "n_snapshots": 40},
            {"kind": "identifiability"},
            {"kind": "whatif", "seed": 2, "demand": {
                "flows": [{"name": "f", "rate": 1, "paths": [0, 1]}],
            }},
        ):
            validated = validate_query(instance_1a, query)
            parsed = query_tasks(query)
            assert len(validated) == len(parsed) == 1
            assert trial_key("fp", validated[0]) == trial_key("fp", parsed[0])
            assert validated[0].factory_kwargs == parsed[0].factory_kwargs

    def test_duplicate_shift_names_fail_at_the_door(self, instance_1a):
        query = {"kind": "whatif", "demand": {
            "flows": [{"name": "f", "rate": 1, "paths": [0]}],
        }, "shifts": [{"name": "s", "scale": 1.5}, {"name": "s"}]}
        with pytest.raises(ValueError, match="duplicate shift"):
            validate_query(instance_1a, query)

    def test_state_budget_brings_the_monte_carlo_cell_check(self):
        """16 distinct-rate flows on one link run Monte Carlo under the
        default flow limit, so its sample matrix is bounded too."""
        from repro.serve.registry import instance_from_payload

        instance = instance_from_payload({"generator": {
            "kind": "brite", "n_ases": 40, "routers_per_as": 5,
            "n_paths": 120, "seed": 7,
        }})
        flows = [
            {"name": f"f{i}", "rate": 1.0 + 0.137 * i, "paths": [0, 1]}
            for i in range(16)
        ]
        query = {
            "kind": "whatif",
            "demand": {"flows": flows},
            "mc_samples": MAX_MC_SAMPLES,
        }
        with pytest.raises(ValueError, match="Monte Carlo"):
            validate_query(instance, query)
        # Equal rates keep the recursion small: exact, no samples drawn.
        for flow in flows:
            flow["rate"] = 1.0
        validate_query(instance, query)


class TestQueryTasks:
    @staticmethod
    def _key(task) -> str:
        return trial_key("fp", task)

    def test_same_query_same_tasks(self):
        query = {"seed": 11, "n_snapshots": 50}
        first = query_tasks(query)
        second = query_tasks(query)
        assert len(first) == len(second) == 1
        assert self._key(first[0]) == self._key(second[0])

    def test_different_seed_different_tasks(self):
        one = query_tasks({"seed": 1})[0]
        two = query_tasks({"seed": 2})[0]
        assert self._key(one) != self._key(two)

    def test_group_does_not_change_cache_key(self):
        """Coalescing position must never change a query's answer."""
        alone = query_tasks({"seed": 4}, group=0)[0]
        batched = query_tasks({"seed": 4}, group=7)[0]
        assert self._key(alone) == self._key(batched)


class TestVectorCodec:
    def test_round_trip_is_bit_identical(self):
        rng = np.random.default_rng(0)
        vectors = {
            "uniform": rng.random(64),
            "awkward": np.array(
                [0.1, 1 / 3, np.pi, 1e-308, 1e308, -0.0, 7.0]
            ),
            "empty": np.array([], dtype=np.float64),
        }
        decoded = decode_vectors(encode_vectors(vectors))
        assert set(decoded) == set(vectors)
        for name, vector in vectors.items():
            # array_equal + byte compare: NaN-free here, and the byte
            # view also pins down signed zeros.
            assert np.array_equal(decoded[name], vector)
            assert decoded[name].tobytes() == vector.tobytes()

    def test_json_round_trip(self):
        import json

        vectors = {"values": np.array([0.1, 2 / 7, 1e-17])}
        over_the_wire = json.loads(json.dumps(encode_vectors(vectors)))
        decoded = decode_vectors(over_the_wire)
        assert decoded["values"].tobytes() == vectors["values"].tobytes()


class TestRunQuery:
    QUERY = {
        "kind": "localization",
        "seed": 5,
        "n_snapshots": 30,
        "packets_per_path": 200,
        "loc_snapshots": 2,
    }

    def test_localization_deterministic(self, instance_1a):
        first = run_query(instance_1a, self.QUERY)
        second = run_query(instance_1a, self.QUERY)
        assert set(first) == set(second)
        for name in first:
            assert np.array_equal(first[name], second[name]), name
        assert first["probabilities"].shape == (
            instance_1a.topology.n_links,
        )
        assert first["loc_precision"].shape == (2,)
        # Flattened link sets are consistent with their counts vector.
        assert first["loc_links"].size == int(
            first["loc_link_counts"].sum()
        )
        assert first["true_links"].size == int(
            first["true_link_counts"].sum()
        )

    def test_seed_changes_answer(self, instance_1a):
        base = run_query(instance_1a, self.QUERY)
        other = run_query(instance_1a, dict(self.QUERY, seed=6))
        assert any(
            not np.array_equal(base[name], other[name]) for name in base
        )

    def test_identifiability_fig1(self, instance_1a, instance_1b):
        holds = run_query(instance_1a, {"kind": "identifiability"})
        fails = run_query(instance_1b, {"kind": "identifiability"})
        assert holds["holds"].tolist() == [1.0]
        assert holds["exhaustive"].tolist() == [1.0]
        assert fails["holds"].tolist() == [0.0]
        assert fails["n_collisions"][0] >= 1.0

    def test_results_are_float64(self, instance_1a):
        result = run_query(instance_1a, {"kind": "identifiability"})
        assert all(v.dtype == np.float64 for v in result.values())
