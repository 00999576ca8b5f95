"""/stream endpoint integration plus the client timeout satellite.

The service runs on the in-process harness from ``conftest.py``; the
blocking :class:`ServiceClient` exercises the real chunked HTTP/1.1 path
over a loopback socket.
"""

from __future__ import annotations

import http.client
import json
import socket
import time

import numpy as np
import pytest

from repro.core.correlation_algorithm import infer_congestion
from repro.serve.client import ServiceClient, ServiceError
from repro.serve.queries import decode_vectors
from repro.serve.registry import instance_from_payload
from repro.simulate.observations import PathObservations
from repro.utils.rng import as_generator

GENERATOR = {
    "kind": "brite",
    "n_ases": 12,
    "routers_per_as": 3,
    "n_paths": 30,
    "seed": 7,
}
N_PATHS = GENERATOR["n_paths"]


@pytest.fixture(scope="module")
def fingerprint(client):
    return client.load_topology(generator=GENERATOR, name="stream-itest")


def make_windows(n_windows, rows=20, seed=0):
    rng = as_generator(seed)
    return [
        (rng.random((rows, N_PATHS)) < 0.3).astype(int).tolist()
        for _ in range(n_windows)
    ]


class TestStreamEndpoint:
    def test_deltas_then_final_bit_identical_to_batch(
        self, client, fingerprint
    ):
        windows = make_windows(5, seed=1)
        lines = list(client.stream(fingerprint, windows))
        deltas, final = lines[:-1], lines[-1]

        assert len(deltas) == len(windows)
        for index, delta in enumerate(deltas):
            assert delta["window"] == index
            assert delta["timestamp"] == 20 * (index + 1)
            assert delta["n_snapshots"] == 20 * (index + 1)
            assert isinstance(delta["onsets"], list)
            assert isinstance(delta["clears"], list)
            assert delta["changed"] == bool(
                delta["onsets"] or delta["clears"]
            )

        assert set(final) == {"final"}
        assert final["final"]["n_snapshots"] == 100
        assert final["final"]["n_evicted"] == 0

        # The correctness anchor: the streamed full-history estimates
        # equal a local batch inference, byte for byte.
        instance = instance_from_payload({"generator": GENERATOR})
        batch = infer_congestion(
            instance.topology,
            instance.correlation,
            PathObservations(
                np.concatenate(
                    [np.asarray(w, dtype=bool) for w in windows], axis=0
                )
            ),
        )
        streamed = decode_vectors(final["final"]["result"])
        assert (
            streamed["probabilities"].tobytes()
            == batch.congestion_probabilities.tobytes()
        )
        assert streamed["log_good"].tobytes() == batch.log_good.tobytes()

    def test_max_window_evicts_history(self, client, fingerprint):
        windows = make_windows(4, rows=10, seed=2)
        *_, final = client.stream(
            fingerprint, windows, max_window=25
        )
        assert final["final"]["n_snapshots"] == 25
        assert final["final"]["n_evicted"] == 15

    def test_localize_last_adds_links(self, client, fingerprint):
        windows = make_windows(2, rows=10, seed=3)
        first, second, _final = client.stream(
            fingerprint, windows, localize_last=True
        )
        assert "localized_links" in first
        assert "localized_links" in second

    def test_unknown_fingerprint_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            list(client.stream("deadbeef", make_windows(1)))
        assert excinfo.value.status == 404

    def test_empty_windows_400(self, client, fingerprint):
        with pytest.raises(ServiceError) as excinfo:
            list(client.stream(fingerprint, []))
        assert excinfo.value.status == 400

    def test_bad_threshold_400(self, client, fingerprint):
        with pytest.raises(ServiceError) as excinfo:
            list(
                client.stream(
                    fingerprint, make_windows(1), threshold=2.0
                )
            )
        assert excinfo.value.status == 400

    def test_bad_window_mid_stream_errors_then_connection_survives(
        self, client, fingerprint
    ):
        """A malformed window after good ones surfaces as a terminal
        error line (the 200 status is already on the wire) — and the
        keep-alive connection stays usable for the next request."""
        ragged = make_windows(1, rows=4, seed=4) + [[[0] * 5]]
        deltas = client.stream(fingerprint, ragged)
        first = next(deltas)
        assert first["window"] == 0
        with pytest.raises(ServiceError) as excinfo:
            list(deltas)
        assert excinfo.value.status == 500
        assert "paths" in str(excinfo.value.payload)
        assert client.health()["status"] == "ok"

    @pytest.mark.parametrize("value", ['"a"', "2", "-1", "0.5", "1e300"])
    def test_window_value_outside_0_1_is_a_terminal_error(
        self, harness, fingerprint, value
    ):
        """Only 0/1 and true/false are verdicts; any other value ends
        the stream with an ``{"error": ...}`` line instead of being read
        as congested."""
        good = json.dumps(make_windows(1, rows=3, seed=5)[0])
        bad = "[[" + ", ".join(["0"] * (N_PATHS - 1) + [value]) + "]]"
        connection = http.client.HTTPConnection(
            "127.0.0.1", harness.service.port, timeout=30
        )
        try:
            connection.request(
                "POST",
                f"/topologies/{fingerprint}/stream",
                body=f'{{"windows": [{good}, {bad}]}}'.encode(),
            )
            response = connection.getresponse()
            lines = [json.loads(line) for line in response.read().splitlines()]
        finally:
            connection.close()
        assert response.status == 200
        assert [line.get("window") for line in lines[:-1]] == [0]
        assert lines[-1] == {"error": "window verdicts must be 0/1 or true/false"}

    def test_float_window_through_client_is_refused(
        self, client, fingerprint
    ):
        """The client sends verdicts as given, so the server's 0/1 check
        sees a float window instead of its truncation to ``[0, 0, 1]``."""
        window = [[0.5, 0.9, 1.7] + [0] * (N_PATHS - 3)]
        with pytest.raises(ServiceError) as excinfo:
            list(client.stream(fingerprint, [window]))
        assert excinfo.value.payload == {
            "error": "window verdicts must be 0/1 or true/false"
        }

    @pytest.mark.parametrize("value", ["no", "yes", 1, 0, None])
    def test_localize_last_must_be_a_boolean(
        self, client, fingerprint, value
    ):
        with pytest.raises(ServiceError) as excinfo:
            list(
                client.stream(
                    fingerprint, make_windows(1), localize_last=value
                )
            )
        assert excinfo.value.status == 400
        assert "bad stream parameters" in str(excinfo.value.payload)

    @pytest.mark.parametrize("value", [2.7, 25.0, "25", True, 0, -3])
    def test_max_window_must_be_a_positive_integer(
        self, client, fingerprint, value
    ):
        with pytest.raises(ServiceError) as excinfo:
            list(
                client.stream(fingerprint, make_windows(1), max_window=value)
            )
        assert excinfo.value.status == 400
        assert "bad stream parameters" in str(excinfo.value.payload)

    @pytest.mark.parametrize("value", ["0.7", True, None, [0.5]])
    def test_threshold_must_be_a_number(self, client, fingerprint, value):
        with pytest.raises(ServiceError) as excinfo:
            list(
                client.stream(fingerprint, make_windows(1), threshold=value)
            )
        assert excinfo.value.status == 400
        assert "bad stream parameters" in str(excinfo.value.payload)

    def test_true_false_windows_read_as_0_1(self, harness, fingerprint):
        windows = make_windows(2, rows=4, seed=6)
        as_bools = [[[bool(v) for v in row] for row in w] for w in windows]
        connection = http.client.HTTPConnection(
            "127.0.0.1", harness.service.port, timeout=30
        )
        try:
            answers = []
            for payload in (windows, as_bools):
                connection.request(
                    "POST",
                    f"/topologies/{fingerprint}/stream",
                    body=json.dumps({"windows": payload}).encode(),
                )
                answers.append(connection.getresponse().read())
        finally:
            connection.close()
        assert answers[0] == answers[1]
        assert b"error" not in answers[0]

    def test_ordinary_queries_unaffected_after_stream(
        self, client, fingerprint
    ):
        """StepFailure isolation: a failed stream step must not poison
        the topology's batcher for co-batched ordinary queries."""
        with pytest.raises(ServiceError):
            list(client.stream(fingerprint, [[[0] * 5]]))
        answer = client.query(
            fingerprint,
            {
                "kind": "localization",
                "seed": 3,
                "n_snapshots": 20,
                "packets_per_path": 200,
                "loc_snapshots": 1,
            },
        )
        assert answer


class TestClientTimeout:
    def test_stalled_server_raises_clean_error(self):
        """Satellite: a server that accepts but never answers must fail
        within the configured timeout, not hang forever."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        try:
            with ServiceClient(port=port, timeout=0.2) as client:
                started = time.monotonic()
                with pytest.raises(ServiceError) as excinfo:
                    client.health()
                elapsed = time.monotonic() - started
            assert excinfo.value.status == 0
            assert "no response" in str(excinfo.value.payload).lower() or (
                "0.2" in str(excinfo.value.payload)
            )
            assert elapsed < 5.0
        finally:
            listener.close()

    def test_default_timeout_is_bounded(self):
        assert ServiceClient().timeout == 30.0
