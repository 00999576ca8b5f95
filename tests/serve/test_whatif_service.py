"""The ``/whatif`` endpoint: service == batch bit-identity, validation.

The service runs on the in-process harness from ``conftest.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.client import ServiceError
from repro.serve.queries import decode_vectors, run_query
from repro.serve.registry import instance_from_payload

GENERATOR = {
    "kind": "brite",
    "n_ases": 12,
    "routers_per_as": 3,
    "n_paths": 30,
    "seed": 7,
}
DEMAND = {
    "flows": [
        {"name": "f0", "rate": 6.0, "paths": [0, 1]},
        {"name": "f1", "rate": 5.0, "paths": [1, 2]},
        {"name": "f2", "rate": 4.0, "paths": [0, 2]},
    ],
    "capacities": {"default": 10.0},
    "shifts": [{"name": "surge", "scale": 1.6}],
}
PARAMS = {"seed": 3, "n_snapshots": 30, "packets_per_path": 200}


@pytest.fixture(scope="module")
def fingerprint(client):
    return client.load_topology(generator=GENERATOR)


class TestWhatIfEndpoint:
    def test_service_matches_batch_bit_for_bit(self, client, fingerprint):
        served = client.whatif(fingerprint, DEMAND, **PARAMS)
        batch = run_query(
            instance_from_payload({"generator": GENERATOR}),
            dict(PARAMS, kind="whatif", demand=DEMAND),
        )
        assert sorted(served) == sorted(batch)
        for key, vector in batch.items():
            assert np.array_equal(vector, served[key]), key

    def test_sugar_route_matches_generic_query(self, client, fingerprint):
        via_query = client.whatif(fingerprint, DEMAND, **PARAMS)
        response = client.request(
            "POST",
            f"/topologies/{fingerprint}/whatif",
            dict(PARAMS, demand=DEMAND),
        )
        via_sugar = decode_vectors(response["result"])
        assert sorted(via_query) == sorted(via_sugar)
        for key, vector in via_query.items():
            assert np.array_equal(vector, via_sugar[key]), key

    def test_repeat_queries_are_deterministic(self, client, fingerprint):
        first = client.whatif(fingerprint, DEMAND, **PARAMS)
        second = client.whatif(fingerprint, DEMAND, **PARAMS)
        for key, vector in first.items():
            assert np.array_equal(vector, second[key]), key

    @pytest.mark.parametrize(
        "query, match",
        [
            (dict(PARAMS, kind="whatif"), "demand"),
            (
                dict(PARAMS, kind="whatif", demand=DEMAND, bogus=1),
                "bogus",
            ),
            (
                dict(
                    PARAMS,
                    kind="whatif",
                    demand={"flows": [{"name": "f", "rate": -1, "paths": [0]}]},
                ),
                "rate",
            ),
            (
                dict(PARAMS, kind="whatif", demand=DEMAND, shifts=[]),
                "shifts",
            ),
        ],
    )
    def test_malformed_queries_are_bad_requests(
        self, client, fingerprint, query, match
    ):
        with pytest.raises(ServiceError) as excinfo:
            client.query(fingerprint, query)
        assert excinfo.value.status == 400
        assert match in str(excinfo.value)

    def test_unresolvable_demand_rejected_at_the_door(
        self, client, fingerprint
    ):
        demand = {"flows": [{"name": "f", "rate": 1.0, "paths": [9_999]}]}
        with pytest.raises(ServiceError) as excinfo:
            client.whatif(fingerprint, demand, **PARAMS)
        assert excinfo.value.status == 400
        assert "flow 'f'" in str(excinfo.value)
