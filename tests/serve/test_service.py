"""Service integration: HTTP endpoints and service == batch bit-identity.

The service runs on the in-process harness from ``conftest.py``; the
blocking :class:`ServiceClient` talks to it over a real loopback socket,
so the whole HTTP/JSON/batching path is exercised.  The final tests go
through the actual ``repro-tomography serve`` / ``localize`` CLI
entry points in subprocesses.
"""

from __future__ import annotations

import ast
import asyncio
import http.client
import json
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.eval.figures import SCALES
from repro.serve.client import ServiceClient, ServiceError
from repro.serve.queries import MAX_MC_SAMPLES, decode_vectors, run_query
from repro.serve import registry, server
from repro.serve.registry import instance_from_payload
from repro.serve.server import MAX_HEADERS, MAX_LINE_BYTES

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

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


def raw_exchange(port: int, request: bytes) -> tuple[bytes, bytes]:
    """Send raw ``request`` bytes, read until the service closes; the
    reply's head and body."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as raw:
        raw.sendall(request)
        reply = b""
        while chunk := raw.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return head, body


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

    @pytest.mark.parametrize(
        "kind, name",
        [
            (kind, name)
            for kind in ("brite", "planetlab")
            for name in SCALES["paper"][kind]
        ],
    )
    def test_size_one_past_the_paper_scale_is_400(self, client, kind, name):
        """The first size past the largest topology the repo builds is
        refused before any generation starts."""
        too_big = SCALES["paper"][kind][name] + 1
        started = time.perf_counter()
        with pytest.raises(ServiceError) as excinfo:
            client.request(
                "POST",
                "/topologies",
                {"generator": {"kind": kind, name: too_big}},
            )
        elapsed = time.perf_counter() - started
        assert excinfo.value.status == 400
        assert f"{name}={too_big}" in str(excinfo.value)
        assert elapsed < 0.5

    def test_health_answers_while_a_slow_load_runs(
        self, service_harness, monkeypatch
    ):
        """Topology generation runs off the event loop: a load that
        takes seconds does not hold up other connections."""
        generating, release = threading.Event(), threading.Event()

        def slow_generation(payload):
            generating.set()
            release.wait(timeout=10)
            return instance_from_payload(payload)

        monkeypatch.setattr(server, "instance_from_payload", slow_generation)
        loaded = []
        with service_harness() as running:

            def load() -> None:
                with running.client() as loader:
                    loaded.append(loader.load_topology(generator=GENERATOR))

            thread = threading.Thread(target=load)
            thread.start()
            try:
                assert generating.wait(timeout=10)
                with running.client() as probe:
                    started = time.perf_counter()
                    assert probe.health()["status"] == "ok"
                    elapsed = time.perf_counter() - started
            finally:
                release.set()
                thread.join(timeout=30)
        assert not thread.is_alive()
        assert elapsed < 1.0
        assert len(loaded) == 1

    @pytest.mark.parametrize("value", ["40", 40.0, True, None])
    def test_non_integer_size_is_400(self, client, value):
        with pytest.raises(ServiceError) as excinfo:
            client.request(
                "POST",
                "/topologies",
                {"generator": dict(GENERATOR, n_ases=value)},
            )
        assert excinfo.value.status == 400
        assert "must be an integer" in str(excinfo.value)

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

    @pytest.mark.parametrize(
        "value",
        [b"-5", b"1_0", b"+10", b" 10x"],
        ids=["negative", "underscore", "plus-sign", "trailing-junk"],
    )
    def test_non_digit_content_length_is_400(self, harness, client, value):
        """HTTP takes digits only (``int()`` would also take ``1_0`` and
        ``+10``); the bytes after the head are never read as a body."""
        head, body = raw_exchange(
            harness.service.port,
            b"POST /topologies HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: " + value + b"\r\n\r\n0123456789",
        )
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body) == {"error": "bad Content-Length"}
        assert client.health()["status"] == "ok"

    def test_chunked_body_gets_one_json_501(self, harness, client):
        """A chunked body is refused, not read as the next request."""
        chunked = b'{"generator": {"kind": "toy"}}'
        head, body = raw_exchange(
            harness.service.port,
            b"POST /topologies HTTP/1.1\r\nHost: localhost\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + b"%X\r\n" % len(chunked) + chunked + b"\r\n0\r\n\r\n"
            + b"GET /health HTTP/1.1\r\nHost: localhost\r\n\r\n",
        )
        assert head.startswith(b"HTTP/1.1 501 ")
        assert json.loads(body) == {
            "error": "Transfer-Encoding is not supported; "
            "send the body with a Content-Length"
        }
        assert client.health()["status"] == "ok"

    @pytest.mark.parametrize(
        "request_head, status, error",
        [
            (b"GET /" + b"a" * 200_000 + b" HTTP/1.1\r\n\r\n",
             414, f"request line exceeds {MAX_LINE_BYTES} bytes"),
            (b"GET /health HTTP/1.1\r\nX-Big: " + b"a" * 200_000
             + b"\r\n\r\n", 431,
             f"header line exceeds {MAX_LINE_BYTES} bytes"),
            (b"GET /health HTTP/1.1\r\nHost: localhost\r\n"
             + b"X-Same: 1\r\n" * MAX_HEADERS + b"\r\n", 431,
             f"more than {MAX_HEADERS} header lines"),
        ],
        ids=["request-line", "header-line", "header-count"],
    )
    def test_oversized_head_line_gets_one_json_answer(
        self, harness, client, request_head, status, error
    ):
        head, body = raw_exchange(harness.service.port, request_head)
        assert head.startswith(b"HTTP/1.1 %d " % status)
        assert json.loads(body) == {"error": error}
        assert client.health()["status"] == "ok"

    def test_header_count_at_the_cap_is_served(self, harness):
        head, body = raw_exchange(
            harness.service.port,
            b"GET /health HTTP/1.1\r\nHost: localhost\r\n"
            + b"X-Same: 1\r\n" * (MAX_HEADERS - 2)
            + b"Connection: close\r\n\r\n",
        )
        assert head.startswith(b"HTTP/1.1 200 ")
        assert json.loads(body)["status"] == "ok"

    def test_short_body_gets_one_json_408(
        self, harness, client, monkeypatch
    ):
        monkeypatch.setattr(server, "BODY_READ_SECONDS", 0.2)
        head, body = raw_exchange(
            harness.service.port,
            b"POST /topologies HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: 100\r\n\r\n{\"generator\": ",
        )
        assert head.startswith(b"HTTP/1.1 408 ")
        assert json.loads(body) == {
            "error": "body shorter than Content-Length 100 after 0.2 s"
        }
        assert client.health()["status"] == "ok"

    def test_stalled_head_gets_one_json_408(
        self, harness, client, monkeypatch
    ):
        """A client that sends the request line and one header line,
        then stalls, is answered and closed at the head deadline."""
        monkeypatch.setattr(server, "HEAD_READ_SECONDS", 0.2)
        head, body = raw_exchange(
            harness.service.port,
            b"GET /health HTTP/1.1\r\nHost: localhost\r\n",
        )
        assert head.startswith(b"HTTP/1.1 408 ")
        assert json.loads(body) == {
            "error": "request head incomplete after 0.2 s"
        }
        assert client.health()["status"] == "ok"

    def test_idle_keep_alive_connection_is_not_timed(
        self, harness, monkeypatch
    ):
        """The head deadline starts at the request line: a keep-alive
        connection idle for longer between requests is still served."""
        monkeypatch.setattr(server, "HEAD_READ_SECONDS", 0.2)
        connection = http.client.HTTPConnection(
            "127.0.0.1", harness.service.port, timeout=10
        )
        try:
            sockets = []
            for _ in range(2):
                connection.request("GET", "/health")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
                sockets.append(connection.sock)
                time.sleep(0.5)
        finally:
            connection.close()
        assert sockets[0] is sockets[1]


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


BAD_QUERY_BODIES = [
    b'{"kind": "localization", "n_snapshots": "abc"}',
    b'{"kind": "localization", "n_snapshots": 1000000000}',
    b'{"kind": "localization", "n_snapshots": 0}',
    b'{"kind": "localization", "n_snapshots": 30.0}',
    b'{"kind": "localization", "congested_fraction": NaN}',
    b'{"kind": "localization", "congested_fraction": 1.5}',
    b'{"kind": "localization", "congested_fraction": Infinity}',
    b'{"kind": "localization", "max_nodes": -1}',
    b'{"kind": "localization", "loc_snapshots": true}',
    b'{"kind": "localization", "packets_per_path": -Infinity}',
    b'{"kind": "localization", "per_set_range": [3, 2]}',
    b'{"kind": "localization", "per_set_range": "tight"}',
    b'{"kind": "localization", "seed": -3}',
    b'{"kind": "localization", "seed": true}',
    b'{"kind": "whatif", "demand": {"flows": [{"name": "f", "rate": 1.0,'
    b' "paths": [0]}]}, "mc_samples": 1e12}',
    b'{"kind": "whatif", "demand": {"flows": [{"name": "f", "rate": 1.0,'
    b' "paths": [0]}]}, "utilization_threshold": NaN}',
    b'{"kind": "whatif", "demand": {"flows": [{"name": "f", "rate": 1.0,'
    b' "paths": [0]}]}, "exact_max_flows": 1000}',
]


class TestQueryLimits:
    @pytest.mark.parametrize("body", BAD_QUERY_BODIES)
    def test_bad_parameter_is_one_400(self, harness, fingerprint, body):
        connection = http.client.HTTPConnection(
            "127.0.0.1", harness.service.port, timeout=30
        )
        try:
            connection.request(
                "POST",
                f"/topologies/{fingerprint}/query",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            answer = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400, answer
        assert "error" in answer

    @pytest.mark.parametrize("constant", [b"NaN", b"Infinity", b"-Infinity"])
    def test_non_finite_json_constant_is_400(self, harness, constant):
        connection = http.client.HTTPConnection(
            "127.0.0.1", harness.service.port, timeout=30
        )
        try:
            connection.request(
                "POST",
                "/topologies",
                body=b'{"generator": {"kind": "brite", "n_ases": '
                + constant
                + b"}}",
            )
            response = connection.getresponse()
            answer = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "invalid JSON" in answer["error"]

    @pytest.mark.parametrize("opener", [b"[", b'{"a":'])
    def test_deeply_nested_json_is_400_on_a_live_connection(
        self, harness, opener
    ):
        """Nesting past the parser's recursion limit is a bad body, not
        a 500; the keep-alive connection then serves the next request."""
        connection = http.client.HTTPConnection(
            "127.0.0.1", harness.service.port, timeout=30
        )
        try:
            connection.request("POST", "/topologies", body=opener * 200_000)
            response = connection.getresponse()
            answer = json.loads(response.read())
            socket_after_error = connection.sock
            connection.request("GET", "/health")
            health = connection.getresponse()
            health_answer = json.loads(health.read())
            assert connection.sock is socket_after_error is not None
        finally:
            connection.close()
        assert response.status == 400
        assert "nested too deeply" in answer["error"]
        assert health.status == 200
        assert health_answer["status"] == "ok"

    def test_forced_monte_carlo_over_the_cell_limit_is_400(
        self, client, fingerprint
    ):
        with pytest.raises(ServiceError) as excinfo:
            client.query(fingerprint, {
                "kind": "whatif",
                "demand": {"flows": [
                    {"name": "f", "rate": 1.0, "paths": [0, 1]}]},
                "exact_max_flows": 0,
                "mc_samples": MAX_MC_SAMPLES,
            })
        assert excinfo.value.status == 400
        assert "cells" in str(excinfo.value)

    def test_co_batched_good_query_is_answered(self, harness, fingerprint):
        reference = run_query(
            instance_from_payload({"generator": GENERATOR}), QUERY
        )
        statuses: list[int] = []
        served: dict = {}

        def bad(body: bytes) -> None:
            connection = http.client.HTTPConnection(
                "127.0.0.1", harness.service.port, timeout=60
            )
            connection.request(
                "POST", f"/topologies/{fingerprint}/query", body=body
            )
            statuses.append(connection.getresponse().status)
            connection.close()

        def good() -> None:
            with harness.client() as own:
                served.update(own.query(fingerprint, QUERY))

        threads = [threading.Thread(target=good)] + [
            threading.Thread(target=bad, args=(body,))
            for body in BAD_QUERY_BODIES[:6]
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert statuses == [400] * 6
        assert set(served) == set(reference)
        for name, vector in reference.items():
            assert served[name].tobytes() == vector.tobytes(), name


class TestConnectionCap:
    @staticmethod
    def wait_for(predicate, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, "timed out"
            time.sleep(0.01)

    def test_one_past_the_cap_gets_one_json_503(self, service_harness):
        """``MAX_CONNECTIONS + 1`` raw connections: the last is refused
        with one JSON 503 and closed; the first still answers a query."""
        harness = service_harness()
        with harness:
            live = harness.service._connections
            with harness.client() as client:
                fingerprint = client.load_topology(generator=GENERATOR)
            self.wait_for(lambda: not live)
            address = ("127.0.0.1", harness.service.port)
            held = [
                socket.create_connection(address, timeout=30)
                for _ in range(server.MAX_CONNECTIONS)
            ]
            try:
                self.wait_for(lambda: len(live) == server.MAX_CONNECTIONS)
                head, body = raw_exchange(
                    harness.service.port,
                    b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n",
                )
                assert head.startswith(b"HTTP/1.1 503")
                assert b"Connection: close" in head
                assert str(server.MAX_CONNECTIONS) in json.loads(body)["error"]

                payload = json.dumps(QUERY).encode()
                first = held[0]
                first.sendall(
                    f"POST /topologies/{fingerprint}/localize HTTP/1.1\r\n"
                    f"Host: x\r\nContent-Length: {len(payload)}\r\n"
                    "Connection: close\r\n\r\n".encode() + payload
                )
                reply = b""
                while chunk := first.recv(65536):
                    reply += chunk
                head, _, body = reply.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 200")
                assert json.loads(body)["fingerprint"] == fingerprint
            finally:
                for connection in held:
                    connection.close()


class TestStoreLifecycle:
    def test_store_full_409_then_evict_frees_a_slot(self, service_harness):
        with service_harness(max_topologies=1) as harness:
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

    def test_shutdown_fails_queries_not_connections(self, service_harness):
        harness = service_harness()
        with harness:
            with harness.client() as client:
                fingerprint = client.load_topology(generator=GENERATOR)
                assert client.health()["status"] == "ok"
        # After shutdown the socket is gone entirely.
        with pytest.raises(OSError):
            with harness.client(timeout=5) as client:
                client.health()

    def test_shutdown_answers_inflight_query_503(self, service_harness):
        entered, release = threading.Event(), threading.Event()
        harness = service_harness()
        run_batch = harness.service._run_batch

        def held_batch(instance, queries):
            entered.set()
            release.wait(timeout=30)
            return run_batch(instance, queries)

        harness.service._run_batch = held_batch
        outcome = {}
        with harness:
            with harness.client() as client:
                fingerprint = client.load_topology(generator=GENERATOR)

                def query() -> None:
                    try:
                        outcome["result"] = client.query(fingerprint, QUERY)
                    except ServiceError as exc:
                        outcome["status"] = exc.status

                thread = threading.Thread(target=query)
                thread.start()
                try:
                    assert entered.wait(timeout=30)
                    asyncio.run_coroutine_threadsafe(
                        harness.service.shutdown(), harness.loop
                    ).result(timeout=30)
                    thread.join(timeout=30)
                finally:
                    release.set()
        # The connection closes at shutdown, but only after the query
        # it was waiting on got its answer.
        assert outcome == {"status": 503}


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
        cwd=REPO_ROOT,
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
        cwd=REPO_ROOT,
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


@pytest.mark.timeout(120)
def test_sigterm_with_idle_keepalive_client_exits_quietly():
    """SIGTERM while a keep-alive connection sits idle: the handler ends
    normally, so the server exits 0 without a traceback on stderr."""
    env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"}
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--no-cache"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    try:
        banner = process.stdout.readline().strip()
        assert banner.startswith("serving on "), banner
        port = int(banner.rsplit(":", 1)[1])
        with ServiceClient(port=port, timeout=30) as client:
            assert client.health()["status"] == "ok"
            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0
    assert "Traceback" not in stderr, stderr


def _serve_mixed_generator() -> dict:
    """The ``GENERATOR`` literal of the mixed service workload."""
    source = (REPO_ROOT / "perfbench" / "serve_mixed.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "GENERATOR"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/serve_mixed.py defines no GENERATOR")


@pytest.mark.parametrize(
    "generator",
    [
        dict(SCALES["paper"]["brite"], kind="brite", seed=0),
        dict(SCALES["paper"]["planetlab"], kind="planetlab", seed=0),
        _serve_mixed_generator(),
    ],
    ids=["paper-brite", "paper-planetlab", "serve-mixed"],
)
def test_repo_generator_specs_pass_the_size_check(monkeypatch, generator):
    """Every topology the repo itself builds is still accepted; the
    generators are stubbed so the check runs without generating."""
    calls = []

    def fake_brite(**params):
        calls.append(params)
        return type("Generated", (), {"instance": "brite"})

    def fake_planetlab(**params):
        calls.append(params)
        return "planetlab"

    monkeypatch.setattr(registry, "generate_brite", fake_brite)
    monkeypatch.setattr(registry, "generate_planetlab", fake_planetlab)
    kind = generator["kind"]
    assert instance_from_payload({"generator": generator}) == kind
    assert calls == [{k: v for k, v in generator.items() if k != "kind"}]
