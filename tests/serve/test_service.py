"""Service integration: HTTP endpoints and service == batch bit-identity.

The service runs in-process on a dedicated event-loop thread; the
blocking :class:`ServiceClient` talks to it over a real loopback socket,
so the whole HTTP/JSON/batching path is exercised.  The final test goes
through the actual ``repro-tomography serve`` / ``localize`` CLI
entry points in subprocesses.
"""

from __future__ import annotations

import asyncio
import json
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.serve.client import ServiceClient, ServiceError
from repro.serve.queries import decode_vectors, run_query
from repro.serve.registry import instance_from_payload
from repro.serve.server import TomographyService

GENERATOR = {
    "kind": "brite",
    "n_ases": 12,
    "routers_per_as": 3,
    "n_paths": 30,
    "seed": 7,
}
OTHER_GENERATOR = dict(GENERATOR, seed=8)
QUERY = {
    "kind": "localization",
    "seed": 3,
    "n_snapshots": 30,
    "packets_per_path": 200,
    "loc_snapshots": 2,
}


class ServiceHarness:
    """A TomographyService on its own event-loop thread."""

    def __init__(self, **knobs) -> None:
        self.service = TomographyService(port=0, **knobs)
        self.loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.service.start())
        self._started.set()
        self.loop.run_forever()

    def __enter__(self) -> "ServiceHarness":
        self.thread.start()
        assert self._started.wait(timeout=30), "service failed to start"
        return self

    def __exit__(self, *exc_info) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(), self.loop
        )
        future.result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient(port=self.service.port, **kwargs)


@pytest.fixture(scope="module")
def harness():
    with ServiceHarness(flush_interval=0.01) as running:
        yield running


@pytest.fixture(scope="module")
def client(harness):
    with harness.client() as connected:
        yield connected


@pytest.fixture(scope="module")
def fingerprint(client):
    return client.load_topology(generator=GENERATOR, name="itest")


class TestEndpoints:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"

    def test_load_is_idempotent(self, client, fingerprint):
        assert client.load_topology(generator=GENERATOR) == fingerprint
        listed = client.topologies()
        assert [t["fingerprint"] for t in listed].count(fingerprint) == 1
        entry = next(
            t for t in listed if t["fingerprint"] == fingerprint
        )
        assert entry["name"] == "itest"
        assert entry["n_paths"] == GENERATOR["n_paths"]

    def test_stats_reports_warm_prep(self, client, fingerprint):
        stats = client.stats()
        assert stats["prep_registry"]["size"] >= 1
        assert fingerprint in stats["batchers"]

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({}, "exactly one"),
            ({"generator": {"kind": "nope"}}, "kind"),
            (
                {"generator": dict(GENERATOR, bogus=1)},
                "unknown brite generator",
            ),
        ],
    )
    def test_bad_load_payloads_are_400(self, client, payload, match):
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/topologies", payload)
        assert excinfo.value.status == 400
        assert match in str(excinfo.value)

    def test_unknown_topology_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.query("no-such-fingerprint", QUERY)
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("GET", "/nonsense")
        assert excinfo.value.status == 404

    def test_bad_method_is_405(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("PUT", "/topologies")
        assert excinfo.value.status == 405

    def test_bad_query_is_400(self, client, fingerprint):
        with pytest.raises(ServiceError) as excinfo:
            client.query(fingerprint, {"bogus_param": 1})
        assert excinfo.value.status == 400

    def test_malformed_json_is_400(self, client):
        connection = client._connect()
        connection.request(
            "POST",
            "/topologies",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        body = response.read()
        assert response.status == 400
        assert b"invalid JSON" in body

    def test_negative_content_length_is_400(self, harness, client):
        with socket.create_connection(
            ("127.0.0.1", harness.service.port), timeout=10
        ) as raw:
            raw.sendall(
                b"POST /topologies HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Length: -5\r\n\r\n"
            )
            reply = b""
            while chunk := raw.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert json.loads(body) == {"error": "bad Content-Length"}
        assert client.health()["status"] == "ok"


class TestQueries:
    def test_service_matches_batch_bit_for_bit(self, client, fingerprint):
        """The tentpole guarantee: same query, same seeds, same bits."""
        instance = instance_from_payload({"generator": GENERATOR})
        reference = run_query(instance, QUERY)
        served = client.query(fingerprint, QUERY)
        assert set(served) == set(reference)
        for name in reference:
            assert np.array_equal(served[name], reference[name]), name
            assert served[name].tobytes() == reference[name].tobytes()

    def test_concurrent_mixed_queries_coalesce_and_stay_exact(
        self, harness, fingerprint
    ):
        instance = instance_from_payload({"generator": GENERATOR})
        seeds = [3, 3, 5, 9]
        references = {
            seed: run_query(instance, dict(QUERY, seed=seed))
            for seed in set(seeds)
        }
        results: dict[int, dict] = {}
        errors: list[Exception] = []

        def one(index: int, seed: int) -> None:
            try:
                with harness.client() as own:
                    results[index] = own.query(
                        fingerprint, dict(QUERY, seed=seed)
                    )
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=one, args=(index, seed))
            for index, seed in enumerate(seeds)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert len(results) == len(seeds)
        for index, seed in enumerate(seeds):
            for name, vector in references[seed].items():
                assert np.array_equal(results[index][name], vector), (
                    seed,
                    name,
                )

    def test_identifiability_endpoint(self, client, fingerprint):
        instance = instance_from_payload({"generator": GENERATOR})
        reference = run_query(instance, {"kind": "identifiability"})
        served = client.identifiability(fingerprint)
        for name in reference:
            assert np.array_equal(served[name], reference[name]), name

    def test_sugar_endpoints_fix_the_kind(self, client, fingerprint):
        served = client.localize(fingerprint, **{
            key: value for key, value in QUERY.items() if key != "kind"
        })
        assert "loc_precision" in served
        # kind in the body of a sugar endpoint is overridden, not an error
        response = client.request(
            "POST",
            f"/topologies/{fingerprint}/identifiability",
            {"kind": "localization"},
        )
        assert "holds" in response["result"]


class TestStoreLifecycle:
    def test_store_full_409_then_evict_frees_a_slot(self):
        with ServiceHarness(
            max_topologies=1, flush_interval=0
        ) as harness:
            with harness.client() as client:
                first = client.load_topology(generator=GENERATOR)
                with pytest.raises(ServiceError) as excinfo:
                    client.load_topology(generator=OTHER_GENERATOR)
                assert excinfo.value.status == 409
                client.evict(first)
                assert client.topologies() == []
                second = client.load_topology(generator=OTHER_GENERATOR)
                assert second != first
                with pytest.raises(ServiceError) as excinfo:
                    client.evict(first)
                assert excinfo.value.status == 404

    def test_shutdown_fails_queries_not_connections(self):
        harness = ServiceHarness(flush_interval=0)
        with harness:
            with harness.client() as client:
                fingerprint = client.load_topology(generator=GENERATOR)
                assert client.health()["status"] == "ok"
        # After shutdown the socket is gone entirely.
        with pytest.raises(OSError):
            with harness.client(timeout=5) as client:
                client.health()


@pytest.mark.timeout(300)
def test_cli_round_trip_matches_localize_command(tmp_path):
    """serve + client == localize CLI, through the real entry points."""
    env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"}
    cli = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "localize",
            "--generator",
            json.dumps(GENERATOR),
            "--seed",
            str(QUERY["seed"]),
            "--n-snapshots",
            str(QUERY["n_snapshots"]),
            "--packets-per-path",
            str(QUERY["packets_per_path"]),
            "--loc-snapshots",
            str(QUERY["loc_snapshots"]),
            "--no-cache",
        ],
        capture_output=True,
        text=True,
        cwd="/root/repo",
        env=env,
    )
    assert cli.returncode == 0, cli.stderr[-2000:]
    reference = decode_vectors(json.loads(cli.stdout)["result"])

    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--no-cache",
        ],
        stdout=subprocess.PIPE,
        text=True,
        cwd="/root/repo",
        env=env,
    )
    try:
        banner = process.stdout.readline().strip()
        assert banner.startswith("serving on "), banner
        port = int(banner.rsplit(":", 1)[1])
        with ServiceClient(port=port, timeout=120) as client:
            fingerprint = client.load_topology(generator=GENERATOR)
            served = client.query(fingerprint, QUERY)
        for name in reference:
            assert served[name].tobytes() == reference[name].tobytes(), name
    finally:
        process.terminate()
        process.wait(timeout=30)
    assert process.returncode == 0
