"""Distributed sweep backend: framing, fault tolerance, bit-identity."""

import pathlib
import pickle
import socket
import threading
import time

import numpy as np
import pytest

from repro.eval.dist import (
    MAGIC,
    PROTOCOL_VERSION,
    ChunkBoard,
    CodecError,
    ConnectionClosed,
    FaultPlan,
    HostSpec,
    ProtocolError,
    RemoteExecutor,
    SHM_PREFIX,
    ShmError,
    WorkerServer,
    buffer_payload,
    parse_hosts,
    payload_to_buffer,
    recv_json_message,
    send_json_message,
)
from repro.eval.cache import TrialCache
from repro.eval.parallel import (
    SCENARIO_FACTORIES,
    ScenarioTaskError,
    _pack_error_dicts,
    _unpack_error_dicts,
    run_scenario_tasks,
    scenario_tasks,
)
from repro.simulate.experiment import ExperimentConfig

from dist_support import assert_identical, pipe, worker_fleet

FAST = ExperimentConfig(n_snapshots=120, packets_per_path=200)

# Hang protection for the whole dist suite: a deadlocked coordinator or
# worker thread should fail a single test, not stall the entire run.
pytestmark = pytest.mark.timeout(120)


# ----------------------------------------------------------------------
# Protocol framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_round_trip_header_and_payload(self):
        with pipe() as (left, right):
            payload = bytes(range(256)) * 100
            send_json_message(
                left, {"type": "chunk", "chunk": 7, "extra": [1, 2]}, payload
            )
            header, received = recv_json_message(right)
        assert header == {"type": "chunk", "chunk": 7, "extra": [1, 2]}
        assert received == payload

    def test_round_trip_empty_payload(self):
        with pipe() as (left, right):
            send_json_message(left, {"type": "end"})
            header, received = recv_json_message(right)
        assert header["type"] == "end"
        assert received == b""

    def test_multiple_frames_in_sequence(self):
        with pipe() as (left, right):
            for index in range(5):
                send_json_message(left, {"type": "chunk", "chunk": index})
            got = [recv_json_message(right)[0]["chunk"] for _ in range(5)]
        assert got == list(range(5))

    def test_clean_close_raises_connection_closed(self):
        with pipe() as (left, right):
            left.close()
            with pytest.raises(ConnectionClosed):
                recv_json_message(right)

    def test_mid_frame_close_is_not_clean(self):
        with pipe() as (left, right):
            send_json_message(left, {"type": "chunk"}, b"x" * 64)
            left.close()
            recv_json_message(right)  # the full frame arrives fine
        with pipe() as (left, right):
            left.sendall(MAGIC)  # magic only, then vanish
            left.close()
            with pytest.raises(ProtocolError) as excinfo:
                recv_json_message(right)
            assert not isinstance(excinfo.value, ConnectionClosed)

    def test_bad_magic_rejected(self):
        with pipe() as (left, right):
            left.sendall(b"BOGUS!!!" + bytes(16))
            with pytest.raises(ProtocolError, match="magic"):
                recv_json_message(right)

    def test_oversized_lengths_rejected(self):
        import struct

        with pipe() as (left, right):
            left.sendall(struct.pack("!4sQQ", MAGIC, 1 << 60, 0))
            with pytest.raises(ProtocolError, match="header length"):
                recv_json_message(right)
        with pipe() as (left, right):
            left.sendall(struct.pack("!4sQQ", MAGIC, 2, 1 << 60))
            with pytest.raises(ProtocolError, match="payload length"):
                recv_json_message(right)

    def test_non_dict_header_rejected(self):
        import struct

        blob = b'["not", "a", "dict"]'
        with pipe() as (left, right):
            left.sendall(struct.pack("!4sQQ", MAGIC, len(blob), 0) + blob)
            with pytest.raises(ProtocolError, match="JSON object"):
                recv_json_message(right)

    def test_malformed_json_header_rejected(self):
        import struct

        blob = b'{"type": "chunk", '
        with pipe() as (left, right):
            left.sendall(struct.pack("!4sQQ", MAGIC, len(blob), 0) + blob)
            with pytest.raises(ProtocolError, match="malformed"):
                recv_json_message(right)

    def test_packed_buffer_round_trip(self):
        dicts = [
            {"correlation": np.array([0.1, 0.2]), "independence": np.array([0.3])},
            {"correlation": np.array([], dtype=np.float64)},
        ]
        descriptor, buffer = _pack_error_dicts(dicts)
        payload = bytes(buffer_payload(buffer))
        restored = _unpack_error_dicts(
            descriptor, payload_to_buffer(payload)
        )
        assert len(restored) == 2
        assert np.array_equal(restored[0]["correlation"], [0.1, 0.2])
        assert np.array_equal(restored[0]["independence"], [0.3])
        assert restored[1]["correlation"].size == 0
        # Copies, not views into the read-only socket buffer.
        assert restored[0]["correlation"].flags.writeable

    def test_ragged_payload_rejected(self):
        with pytest.raises(ProtocolError, match="float64"):
            payload_to_buffer(b"12345")


class TestParseHosts:
    def test_comma_separated_string(self):
        assert [spec.endpoint for spec in parse_hosts("a:7100, b:7200")] == [
            ("a", 7100),
            ("b", 7200),
        ]

    def test_iterables_and_tuples(self):
        specs = parse_hosts([("a", 1), "b:2"])
        assert [spec.endpoint for spec in specs] == [("a", 1), ("b", 2)]

    def test_ipv6_brackets(self):
        (spec,) = parse_hosts("[::1]:7100")
        assert spec.endpoint == ("::1", 7100)
        assert spec.address == "[::1]:7100"

    def test_user_prefix_carried_for_ssh(self):
        specs = parse_hosts("alice@a:7100, b:7200")
        assert specs[0] == HostSpec("a", 7100, "alice")
        assert specs[0].ssh_target == "alice@a"
        assert specs[0].endpoint == ("a", 7100)  # user never connects
        assert specs[1].ssh_target == "b"

    def test_user_prefix_with_ipv6(self):
        (spec,) = parse_hosts("bob@[::1]:7100")
        assert spec == HostSpec("::1", 7100, "bob")

    def test_host_spec_entries_pass_through(self):
        spec = HostSpec("a", 7100, "carol")
        assert parse_hosts([spec]) == [spec]

    @pytest.mark.parametrize(
        "spec", ["", "hostonly", "a:notaport", "a:0", "[::1]7100"]
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_hosts(spec)

    @pytest.mark.parametrize("port", [0, -1, 65536, 1 << 20])
    def test_out_of_range_ports_rejected(self, port):
        with pytest.raises(ValueError, match="out of range"):
            parse_hosts([("a", port)])

    def test_duplicate_endpoints_rejected(self):
        with pytest.raises(ValueError, match="duplicate worker endpoint"):
            parse_hosts("a:7100,b:7200,a:7100")

    def test_duplicate_detection_ignores_user(self):
        # Two logins to one endpoint is still one worker socket.
        with pytest.raises(ValueError, match="duplicate"):
            parse_hosts("alice@a:7100,bob@a:7100")


# ----------------------------------------------------------------------
# Remote execution
# ----------------------------------------------------------------------
def _boom_factory(instance, seed=None, **kwargs):
    raise RuntimeError("injected failure")


class TestRemoteExecution:
    def test_remote_matches_serial_bit_identical(self, planetlab_small):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=4, seed=21
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(2) as servers:
            remote = run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor(
                    [server.address for server in servers]
                ),
            )
        assert_identical(serial, remote)

    def test_worker_death_requeues_deterministically(self, planetlab_small):
        """One worker drops mid-chunk; survivors absorb the requeue."""
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=4, seed=22
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1) as good:
            with worker_fleet(1, fail_after_chunks=1) as flaky:
                remote = run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor(
                        [good[0].address, flaky[0].address]
                    ),
                )
        assert_identical(serial, remote)

    def test_death_during_send_requeues_the_claimed_chunk(
        self, planetlab_small, monkeypatch
    ):
        """A worker that dies with RST makes the *send* fail.

        The chunk was already claimed from the board at that point; it
        must be requeued (not leaked) or the sweep hangs forever —
        regression test for the SIGKILL-mid-sweep hang.
        """
        from repro.eval.dist import coordinator as coordinator_module

        tripped = []
        real_send = coordinator_module.send_json_message

        def flaky_send(sock, header, payload=b""):
            if header.get("type") == "chunk" and not tripped:
                tripped.append(header["chunk"])
                raise OSError("simulated connection reset")
            return real_send(sock, header, payload)

        monkeypatch.setattr(
            coordinator_module, "send_json_message", flaky_send
        )
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=4, seed=30
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        outcome = {}

        def sweep():
            with worker_fleet(2) as servers:
                outcome["remote"] = run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor(
                        [server.address for server in servers]
                    ),
                )

        # Drive the sweep from a daemon thread so a reintroduced leak
        # fails the test instead of hanging the whole session.
        thread = threading.Thread(target=sweep, daemon=True)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive(), (
            "sweep hung: a chunk claimed by the dead worker was never "
            "requeued"
        )
        assert tripped  # the failure injection actually fired
        assert_identical(serial, outcome["remote"])

    def test_requeued_duplicate_of_own_inflight_chunk_is_absorbed(
        self, planetlab_small
    ):
        """A dead duplicator requeues a chunk its victim still runs.

        The victim's pipeline top-up then claims a chunk it already
        has in flight; that token must collapse into the running
        execution — re-sending it would produce a second result frame
        and a ProtocolError that kills the healthy worker.  The
        interleaving is timing-dependent, but the sweep must complete
        bit-identically on every schedule this race can produce.
        """
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=34
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1, capacity=2) as wide:
            with worker_fleet(1, fail_after_chunks=0) as doomed:
                remote = run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor(
                        [wide[0].address, doomed[0].address],
                        straggler_timeout=0.05,
                        max_attempts=5,
                    ),
                )
        assert_identical(serial, remote)

    def test_all_workers_lost_raises_with_task_indices(
        self, planetlab_small
    ):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=3, seed=23
        )
        with worker_fleet(2, fail_after_chunks=0) as servers:
            with pytest.raises(ScenarioTaskError) as excinfo:
                run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor(
                        [server.address for server in servers]
                    ),
                )
        assert excinfo.value.task_indices == [0, 1, 2]

    def test_unreachable_endpoint_does_not_kill_sweep(
        self, planetlab_small
    ):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=24
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        # Reserve a port nothing listens on.
        probe = socket.create_server(("127.0.0.1", 0))
        dead_address = "{}:{}".format(*probe.getsockname()[:2])
        probe.close()
        with worker_fleet(1) as servers:
            remote = run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor(
                    [servers[0].address, dead_address],
                    connect_timeout=2.0,
                ),
            )
        assert_identical(serial, remote)

    def test_remote_task_error_settles_other_chunks(
        self, planetlab_small, monkeypatch, tmp_path
    ):
        monkeypatch.setitem(SCENARIO_FACTORIES, "boom", _boom_factory)
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=3, seed=25
        )
        bad = tasks[1]
        tasks[1] = type(bad)(
            group=bad.group,
            factory="boom",
            factory_kwargs={},
            scenario_seed=bad.scenario_seed,
            run_seed=bad.run_seed,
        )
        cache = TrialCache(tmp_path / "store")
        with worker_fleet(2) as servers:
            with pytest.raises(ScenarioTaskError) as excinfo:
                run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    cache=cache,
                    executor=RemoteExecutor(
                        [server.address for server in servers]
                    ),
                )
        assert excinfo.value.task_indices == [1]
        # The two healthy chunks were written back despite the failure.
        assert cache.stats.stores == 2

    def test_worker_side_cache_serves_hits_without_compute(
        self, planetlab_small, monkeypatch, tmp_path
    ):
        """A populated worker cache answers even when compute would fail."""
        store = tmp_path / "shared-store"
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=26
        )
        serial = run_scenario_tasks(
            planetlab_small,
            tasks,
            config=FAST,
            workers=1,
            cache=TrialCache(store),
        )
        entries = len(list(store.rglob("*.npz")))
        assert entries == 2
        # Break the factory: only cache hits can answer now.
        monkeypatch.setitem(
            SCENARIO_FACTORIES, "clustered", _boom_factory
        )
        with worker_fleet(2, cache_dir=store) as servers:
            remote = run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor(
                    [server.address for server in servers]
                ),
            )
        assert_identical(serial, remote)
        assert len(list(store.rglob("*.npz"))) == entries

    def test_worker_writes_cache_as_chunks_complete(
        self, planetlab_small, tmp_path
    ):
        """A worker killed after one chunk has persisted that chunk."""
        store = tmp_path / "store"
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=3, seed=27
        )
        with worker_fleet(
            1, cache_dir=store, fail_after_chunks=1
        ) as servers:
            with pytest.raises(ScenarioTaskError):
                run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor([servers[0].address]),
                )
        # The chunk served before the crash reached the shared store.
        assert len(list(store.rglob("*.npz"))) >= 1

    def test_straggler_duplication_keeps_results_identical(
        self, planetlab_small
    ):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=3, seed=28
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(2) as servers:
            remote = run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor(
                    [server.address for server in servers],
                    # Aggressive timeout: every chunk is eligible for
                    # speculative duplication almost immediately.
                    straggler_timeout=0.01,
                ),
            )
        assert_identical(serial, remote)

    def test_concurrent_sessions_on_one_worker(self, planetlab_small):
        """A worker mid-sweep still serves a second coordinator."""
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=29
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1, max_sessions=2) as servers:
            executor = RemoteExecutor([servers[0].address])
            outcomes = {}

            def sweep(label):
                outcomes[label] = run_scenario_tasks(
                    planetlab_small, tasks, config=FAST, executor=executor
                )

            first = threading.Thread(target=sweep, args=("first",))
            second = threading.Thread(target=sweep, args=("second",))
            first.start()
            second.start()
            first.join(timeout=60)
            second.join(timeout=60)
        assert_identical(serial, outcomes["first"])
        assert_identical(serial, outcomes["second"])

    def test_broken_pool_drops_session_instead_of_task_error(self):
        """A pool child dying (OOM, segfault) is infrastructure death:
        the worker must hang up — so the coordinator requeues the
        chunk on survivors — not report a never-retried task error."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        from repro.eval.dist.worker import _Transport

        server = WorkerServer(capacity=2)
        try:
            left, right = socket.socketpair()
            try:
                future: Future = Future()
                future.set_exception(
                    BrokenProcessPool("child was OOM-killed")
                )
                server._send_chunk_result(_Transport(left), 7, future)
                # No error frame was sent; the peer sees a clean close
                # (the worker-down signal that triggers a requeue).
                with pytest.raises(ConnectionClosed):
                    recv_json_message(right)
            finally:
                left.close()
                right.close()
        finally:
            server.close()

    def test_protocol_version_mismatch_reported(self):
        """An init naming another version gets one refusal, then EOF."""
        with worker_fleet(1) as servers:
            sock = socket.create_connection(
                (servers[0].host, servers[0].port), timeout=5
            )
            try:
                send_json_message(
                    sock, {"type": "init", "protocol": PROTOCOL_VERSION + 1}
                )
                header, _ = recv_json_message(sock)
                with pytest.raises(ConnectionClosed):
                    recv_json_message(sock)
            finally:
                sock.close()
        assert header["type"] == "error"
        assert header["error"] == "protocol-mismatch"
        assert header["protocol"] == PROTOCOL_VERSION
        assert f"v{PROTOCOL_VERSION}" in header["message"]

    def test_end_frame_survives_sweep_teardown(
        self, planetlab_small, monkeypatch, tmp_path
    ):
        """The sweep's teardown never tears a session's ``end`` frame.

        The session thread is slowed down right before it sends
        ``end``, so the main thread reaches its teardown first; the
        worker must still receive the complete frame (it logs "session
        done" only for a real ``end``), because only the session thread
        closes its own socket.
        """
        from repro.eval.dist import coordinator as coordinator_module

        real_send = coordinator_module.send_json_message

        def slow_end(sock, header, payload=b""):
            if header.get("type") == "end":
                time.sleep(0.3)
            return real_send(sock, header, payload)

        monkeypatch.setattr(coordinator_module, "send_json_message", slow_end)
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=24
        )
        logs: list[str] = []
        with worker_fleet(1, cache_dir=tmp_path, log=logs.append) as servers:
            run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor([servers[0].address]),
            )
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not any(
                line.startswith(("session done", "session aborted"))
                for line in logs
            ):
                time.sleep(0.05)
        assert any(line.startswith("session done") for line in logs), logs


# ----------------------------------------------------------------------
# The one wire version and the capacity advertisement
# ----------------------------------------------------------------------
class TestNegotiation:
    @pytest.mark.parametrize(
        "header",
        [
            {"protocol": PROTOCOL_VERSION + 1},  # a newer build
            {"protocol": None},
            {"protocol": str(PROTOCOL_VERSION)},
            {},
            # An older build's opening: baseline plus a version range.
            {"protocol": 1, "protocol_max": PROTOCOL_VERSION},
            {"protocol": PROTOCOL_VERSION - 1},
        ],
    )
    def test_negotiate_version_rejects(self, header):
        """There is nothing to negotiate: an ``init`` that does not name
        the one version gets a single refusal naming it, then EOF."""
        with worker_fleet(1) as servers:
            sock = socket.create_connection(
                (servers[0].host, servers[0].port), timeout=5
            )
            try:
                send_json_message(sock, {"type": "init", **header})
                reply, _ = recv_json_message(sock)
                with pytest.raises(ConnectionClosed):
                    recv_json_message(sock)
            finally:
                sock.close()
        assert reply["type"] == "error"
        assert reply["protocol"] == PROTOCOL_VERSION
        assert f"v{PROTOCOL_VERSION}" in reply["message"]

    @pytest.mark.parametrize(
        "opening",
        [
            b"GARBAGE!" + bytes(16),
            # A frame of this wire whose JSON header is malformed.
            MAGIC + (5).to_bytes(8, "big") + bytes(8) + b"{not}",
        ],
    )
    def test_garbage_opening_refused(self, opening):
        with worker_fleet(1) as servers:
            sock = socket.create_connection(
                (servers[0].host, servers[0].port), timeout=5
            )
            try:
                sock.sendall(opening)
                reply, _ = recv_json_message(sock)
                with pytest.raises(ConnectionClosed):
                    recv_json_message(sock)
            finally:
                sock.close()
        assert reply["error"] == "protocol-mismatch"
        assert reply["protocol"] == PROTOCOL_VERSION

    def test_current_coordinator_negotiates_latest_version(self):
        with worker_fleet(1, capacity=4) as servers:
            sock = socket.create_connection(
                (servers[0].host, servers[0].port), timeout=5
            )
            try:
                send_json_message(
                    sock, {"type": "init", "protocol": PROTOCOL_VERSION}
                )
                header, _ = recv_json_message(sock)
            finally:
                sock.close()
        assert header["type"] == "ready"
        assert header["protocol"] == PROTOCOL_VERSION
        assert header["capacity"] == 4

    def test_capacity_worker_matches_serial_bit_identical(
        self, planetlab_small
    ):
        """Concurrent (process-pool) chunk execution changes nothing."""
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=4, seed=32
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1, capacity=2) as servers:
            remote = run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor([servers[0].address]),
            )
        assert_identical(serial, remote)

    def test_capacity_blind_executor_stays_sequential(
        self, planetlab_small
    ):
        """capacity_aware=False is the uniform (PR-3) schedule."""
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=3, seed=33
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1, capacity=2) as servers:
            remote = run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor(
                    [servers[0].address], capacity_aware=False
                ),
            )
        assert_identical(serial, remote)


# ----------------------------------------------------------------------
# The wire: codec'd payloads, no deserialization of executable bytes
# ----------------------------------------------------------------------
class TestV4Wire:
    def test_v4_session_deserializes_zero_pickles(
        self, planetlab_small, monkeypatch
    ):
        """The one-wire guarantee, counter-asserted on live sweeps.

        The stdlib ``pickle.loads`` and ``pickle.Unpickler`` are
        replaced by counting wrappers; an unsecured capacity-1 sweep
        and an authenticated one then run with **zero**
        deserializations anywhere in the process.  A probe call first
        proves the counters are live.
        """
        secret = b"zero-pickle-proof"
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=3, seed=45
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        calls: list[str] = []
        real_loads = pickle.loads

        def counting_loads(*args, **kwargs):
            calls.append("loads")
            return real_loads(*args, **kwargs)

        class CountingUnpickler(pickle.Unpickler):
            def __init__(self, *args, **kwargs):
                calls.append("Unpickler")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pickle, "loads", counting_loads)
        monkeypatch.setattr(pickle, "Unpickler", CountingUnpickler)
        import io

        pickle.loads(pickle.dumps(1))
        pickle.Unpickler(io.BytesIO(pickle.dumps(1))).load()
        assert calls == ["loads", "Unpickler"]
        calls.clear()

        for fleet_kwargs, executor_kwargs in (
            ({}, {}),
            ({"secret": secret}, {"secret": secret}),
        ):
            with worker_fleet(2, **fleet_kwargs) as servers:
                remote = run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor(
                        [server.address for server in servers],
                        **executor_kwargs,
                    ),
                )
            assert_identical(serial, remote)
        assert calls == []

    def test_unencodable_sweep_fails_before_connecting(
        self, planetlab_small
    ):
        """A sweep the codec cannot carry fails up front, naming the
        field — never by silently switching to another encoding, and
        before any worker sees a connection."""
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.5)
        try:
            tasks = scenario_tasks(
                "clustered",
                {"congested_fraction": 0.1, "bad": {1, 2}},
                n_trials=2,
                seed=44,
            )
            address = "127.0.0.1:%d" % listener.getsockname()[1]
            with pytest.raises(CodecError, match="bad"):
                run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor([address]),
                )
            with pytest.raises(socket.timeout):
                listener.accept()
        finally:
            listener.close()


# ----------------------------------------------------------------------
# Shared-memory transport
# ----------------------------------------------------------------------
def _shm_segments():
    return sorted(pathlib.Path("/dev/shm").glob(f"{SHM_PREFIX}*"))


@pytest.fixture
def ring_spy(monkeypatch):
    """Record every ring the coordinator creates (and its name)."""
    from repro.eval.dist import coordinator as coordinator_module

    created = []
    real_create = coordinator_module.create_ring

    def spy(n_slots, slot_size, **kwargs):
        ring = real_create(n_slots, slot_size, **kwargs)
        created.append(ring.name)
        return ring

    monkeypatch.setattr(coordinator_module, "create_ring", spy)
    return created


@pytest.mark.skipif(
    not pathlib.Path("/dev/shm").is_dir(),
    reason="POSIX shared memory not mounted",
)
class TestShmTransport:
    def _sweep(self, instance, tasks, servers, **executor_kwargs):
        return run_scenario_tasks(
            instance,
            tasks,
            config=FAST,
            executor=RemoteExecutor(
                [server.address for server in servers],
                **executor_kwargs,
            ),
        )

    def test_shm_sweep_bit_identical_and_rings_unlinked(
        self, planetlab_small, ring_spy
    ):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=4, seed=46
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(2, capacity=2) as servers:
            remote = self._sweep(
                planetlab_small, tasks, servers, transport="shm"
            )
        assert_identical(serial, remote)
        # Two rings per session actually moved the payloads...
        assert len(ring_spy) == 4
        # ...and every segment was unlinked at teardown.
        assert not _shm_segments()

    def test_auto_transport_detects_loopback(
        self, planetlab_small, ring_spy
    ):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=47
        )
        with worker_fleet(1) as servers:
            self._sweep(planetlab_small, tasks, servers)  # transport="auto"
        assert len(ring_spy) == 2
        assert not _shm_segments()

    def test_socket_transport_never_creates_rings(
        self, planetlab_small, ring_spy
    ):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=48
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1) as servers:
            remote = self._sweep(
                planetlab_small, tasks, servers, transport="socket"
            )
        assert_identical(serial, remote)
        assert ring_spy == []

    def test_attach_failure_nacks_and_falls_back_inline(
        self, planetlab_small, ring_spy, monkeypatch
    ):
        """A worker that cannot map the rings keeps the sweep alive.

        The worker nacks the shm offer (e.g. a loopback-looking address
        that is really a tunnel to another host); the coordinator
        unlinks its rings and the session completes on inline socket
        payloads — shm is an optimisation, never a correctness
        dependency.
        """
        from repro.eval.dist import worker as worker_module

        def refuse(name, n_slots, slot_size):
            raise ShmError(f"injected attach failure for {name}")

        monkeypatch.setattr(worker_module, "attach_ring", refuse)
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=3, seed=49
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(2) as servers:
            remote = self._sweep(
                planetlab_small, tasks, servers, transport="shm"
            )
        assert_identical(serial, remote)
        assert len(ring_spy) == 4  # offered, nacked...
        assert not _shm_segments()  # ...and unlinked on the nack

    def test_tiny_result_slots_fall_back_inline(self, planetlab_small):
        """Results that outgrow their ring slot ship inline instead."""
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=3, seed=50
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1, capacity=2) as servers:
            remote = self._sweep(
                planetlab_small,
                tasks,
                servers,
                transport="shm",
                shm_slot_bytes=8,
            )
        assert_identical(serial, remote)
        assert not _shm_segments()

    def test_worker_death_with_shm_requeues(self, planetlab_small):
        """The SIGKILL-requeue guarantee holds on the shm data plane."""
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=4, seed=51
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1) as good:
            with worker_fleet(1, fail_after_chunks=1) as flaky:
                remote = run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor(
                        [good[0].address, flaky[0].address],
                        transport="shm",
                    ),
                )
        assert_identical(serial, remote)
        assert not _shm_segments()


# ----------------------------------------------------------------------
# ChunkBoard scheduling
# ----------------------------------------------------------------------
class TestChunkBoard:
    def test_claims_drain_pending_in_order(self):
        board = ChunkBoard(3, max_attempts=3)
        assert [board.claim() for _ in range(3)] == [0, 1, 2]

    def test_nonblocking_claim_returns_none_when_queue_empty(self):
        board = ChunkBoard(1, max_attempts=3)
        assert board.claim() == 0
        # Chunk 0 is outstanding, not settled: a pipelining worker must
        # not stall here waiting for the straggler clock.
        assert board.claim(10.0, block=False) is None

    def test_speculation_wait_tracks_oldest_inflight_chunk(self):
        """The idle wait is computed, not a fixed timeout/2 poll."""
        board = ChunkBoard(2, max_attempts=3)
        assert board.claim() == 0
        import time as time_module

        now = time_module.monotonic()
        started = board.outstanding[0]
        wait = board._speculation_wait(now, 10.0)
        # Chunk 0 just started: the wait runs to its eligibility, not
        # to a generic poll interval.
        assert wait == pytest.approx(started + 10.0 - now, abs=0.05)
        # No eligible in-flight chunk → sleep until notified.
        board.claim()  # chunk 1 outstanding too
        board.attempts[0] = board.max_attempts
        board.attempts[1] = board.max_attempts
        assert board._speculation_wait(now, 10.0) is None

    def test_settle_wakes_blocked_claimers(self):
        board = ChunkBoard(1, max_attempts=3)
        assert board.claim() == 0
        results = []

        def idle_claim():
            results.append(board.claim(straggler_timeout=30.0))

        thread = threading.Thread(target=idle_claim)
        thread.start()
        time.sleep(0.1)
        board.settle(0)  # wakes the claimer immediately: all settled
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert results == [None]

    @staticmethod
    def _await_idle(board, count, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with board.condition:
                if len(board._idle) >= count:
                    return
            time.sleep(0.005)
        raise AssertionError(f"{count} idle claimer(s) never parked")

    def test_straggler_duplicate_steers_to_fastest_idle_worker(self):
        # max_attempts=2: after the duplicate is granted the chunk can
        # never ripen again, so the slow claimer provably stays idle
        # because of *steering*, not because it ran out of attempts.
        board = ChunkBoard(1, max_attempts=2)
        assert board.claim(capacity=1) == 0  # now outstanding
        claims = {}

        def claimer(name, capacity):
            claims[name] = board.claim(
                straggler_timeout=0.3, capacity=capacity
            )

        # Park the fast claimer first and *wait until it is registered
        # idle* before starting the slow one, so the slow claimer can
        # never observe an empty idle set and grab the duplicate
        # itself — the ripeness race would otherwise flake on a loaded
        # machine.
        fast = threading.Thread(target=claimer, args=("fast", 4))
        fast.start()
        self._await_idle(board, 1)
        slow = threading.Thread(target=claimer, args=("slow", 1))
        slow.start()
        self._await_idle(board, 2)
        deadline = time.monotonic() + 10.0
        while "fast" not in claims and time.monotonic() < deadline:
            time.sleep(0.01)  # chunk ripens ~0.3 s after its claim
        assert claims.get("fast") == 0
        assert "slow" not in claims  # still deferring
        board.settle(0)
        slow.join(timeout=5)
        fast.join(timeout=5)
        assert claims["slow"] is None

    def test_duplicates_bounded_by_max_attempts(self):
        board = ChunkBoard(1, max_attempts=2)
        assert board.claim(0.01, capacity=1) == 0
        with board.condition:
            board.outstanding[0] -= 1.0
        # Second (and last allowed) attempt is granted...
        assert board.claim(0.01, capacity=1, block=True) == 0
        # ...after which the chunk is never duplicated again: the next
        # idle claim waits for a settle instead of a third grant.
        settled = threading.Timer(0.3, board.settle, args=(0,))
        settled.start()
        assert board.claim(0.01, capacity=1) is None
        settled.join()

    def test_holding_skips_own_inflight_chunk_without_charging(self):
        board = ChunkBoard(2, max_attempts=3)
        assert board.claim() == 0
        board.requeue(0)  # a dead duplicate holder put it back
        # The holder's own top-up must not get chunk 0 again — and the
        # skipped token must stay queued (uncharged) for other workers.
        assert board.claim(block=False, holding={0}) == 1
        assert board.claim(block=False, holding={0, 1}) is None
        assert board.attempts[0] == 1  # no phantom attempt
        assert board.claim(block=False) == 0  # another worker takes it
        assert board.attempts[0] == 2

    def test_requeue_puts_chunk_at_front(self):
        board = ChunkBoard(3, max_attempts=3)
        assert board.claim() == 0
        assert board.claim() == 1
        board.requeue(1)
        assert board.claim() == 1  # ahead of chunk 2
        assert board.claim() == 2


# ----------------------------------------------------------------------
# Robustness surfaces: heartbeat gating, degradation stats (S2), ENOSPC
# fallback (S3)
# ----------------------------------------------------------------------
class TestRobustnessSurfaces:
    @pytest.mark.skipif(
        not pathlib.Path("/dev/shm").is_dir(),
        reason="POSIX shared memory not mounted",
    )
    def test_inline_fallbacks_surface_in_sweep_stats(self, planetlab_small):
        """S2: shm→inline degradation is counted, not silent.

        Result slots far too small for any payload force every result
        onto the inline socket path; the sweep stats must say so.
        """
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=3, seed=62
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1, capacity=2) as servers:
            executor = RemoteExecutor(
                [server.address for server in servers],
                transport="shm",
                shm_slot_bytes=8,
            )
            remote = run_scenario_tasks(
                planetlab_small, tasks, config=FAST, executor=executor
            )
        assert_identical(serial, remote)
        stats = executor.last_sweep_stats
        assert stats.shm_sessions == 1
        assert stats.shm_inline_results > 0
        assert sum(stats.inline_by_session.values()) > 0
        assert "inline" in stats.render()

    @pytest.mark.skipif(
        not pathlib.Path("/dev/shm").is_dir(),
        reason="POSIX shared memory not mounted",
    )
    def test_shm_enospc_falls_back_to_socket_bit_identical(
        self, planetlab_small, ring_spy
    ):
        """S3: an exhausted /dev/shm degrades to sockets, not failure.

        The ``shm-enospc`` chaos fault makes every ring creation fail
        exactly as a full tmpfs would (``ENOSPC`` inside
        ``create_ring``); the session must proceed on inline socket
        payloads with no segments left behind.
        """
        from repro.eval.dist import faults

        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=3, seed=63
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1) as servers:
            executor = RemoteExecutor(
                [server.address for server in servers], transport="shm"
            )
            with faults.installed(FaultPlan.parse("shm-enospc")):
                remote = run_scenario_tasks(
                    planetlab_small, tasks, config=FAST, executor=executor
                )
        assert_identical(serial, remote)
        assert executor.last_sweep_stats.shm_sessions == 0
        assert not _shm_segments()
