"""Worker side of the distributed sweep backend.

A :class:`WorkerServer` listens on one TCP port and serves coordinator
sessions: each accepted connection is one sweep session.  The session
opens with the shared-secret handshake (:mod:`repro.eval.dist.auth`)
when the worker has a secret, or with one JSON ``init`` frame naming
:data:`repro.eval.dist.protocol.PROTOCOL_VERSION` when it has none; the
worker answers ``ready`` (advertising its capacity), and the
coordinator ships the (instance, config, options) context exactly once
as a canonical-JSON ``context`` frame (:mod:`repro.eval.dist.codec`).
Every subsequent ``chunk`` frame carries codec'd
:class:`repro.eval.parallel.ScenarioTask` records, and the worker
answers with the chunk's error vectors as one packed float64 payload
(the same transport the in-host pool uses).  Any other opening — a
frame of another wire generation, another version, garbage — gets one
JSON ``error`` refusal naming the version, and nothing the peer sent
is parsed.

Every payload rides the session's own socket, right behind the frame
header that describes it; a frame of any other type in the chunk loop
(``ping`` and ``end`` aside) is a protocol error that drops the
session, and the worker goes on serving the next one.

Capacity: the ``ready`` frame advertises the worker's *capacity* — how
many chunks it can compute at once (``repro-tomography worker``
defaults to the CPU count; ``--capacity`` overrides).  Every session
runs one chunk loop: the session thread receives frames and submits
each chunk, and one completion callback ships its result.  A
capacity-``C`` session submits to a process pool of ``C`` (results may
return out of order; the coordinator keys them by chunk index); at
capacity 1 the chunk computes inline, in the session thread, through
the same submit/callback path — no pool process is spawned.

Cache semantics: when the worker is given a cache directory (its own
``--cache-dir`` flag or ``REPRO_CACHE_DIR``; typically a store shared
across workers via a network filesystem), each task is looked up before
executing — hits are served without compute — and each miss is written
back *as the task completes*, not after the sweep.  A worker killed
mid-chunk therefore still leaves every finished trial in the store, and
the retry only pays for what was genuinely lost.

Fault injection: ``fail_after_chunks=N`` makes the worker accept ``N``
chunks and then drop the connection without replying to the next one,
which is exactly what a worker killed mid-chunk looks like to the
coordinator.  The deterministic requeue tests and the distributed
benchmark's kill leg are built on it.  ``throttle=S`` sleeps ``S``
seconds before each task — latency injection that simulates a slower
or I/O-bound host without burning CPU, so the benchmark's
heterogeneous-capacity scenario reproduces on any machine; results are
delayed, never changed.

Run a worker from the CLI::

    repro-tomography worker --port 7100 --cache-dir /shared/store

or over SSH (the coordinator connects to ``host:7100``)::

    ssh host repro-tomography worker --bind 0.0.0.0 --port 7100
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import ssl
import threading
import time
import traceback
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.eval.dist.auth import (
    AUTH_MAGIC,
    AuthError,
    normalize_secret,
    server_handshake,
)
from repro.eval.dist.codec import decode_context, decode_tasks
from repro.eval.dist.faults import active_plan
from repro.eval.dist.protocol import (
    MAGIC,
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    buffer_payload,
    disable_nagle,
    read_magic,
    recv_json_message,
    send_json_message,
)
from repro.eval.parallel import _execute_task, _pack_error_dicts

__all__ = ["WorkerServer"]


# Pool-process state installed once by the initializer: each process
# opens its own cache handle so write-back happens task-by-task inside
# the process that computed the task, exactly like the inline path.
_POOL_STATE: tuple | None = None


#: How long a refusal keeps reading (and discarding) what the refused
#: peer sends before hanging up.  Closing a socket with unread inbound
#: data sends RST, which can destroy the refusal frame mid-flight — so
#: the worker drains the peer's bytes until it hangs up, never parsing
#: them.  A peer that keeps talking past the budget still fails closed;
#: it just gets a reset instead of the message.
_REFUSAL_DRAIN_SECONDS = 2.0


def _drain_refused_peer(connection) -> None:
    """Read and discard — never parse — what a refused peer sends."""
    deadline = time.monotonic() + _REFUSAL_DRAIN_SECONDS
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            connection.settimeout(remaining)
            if not connection.recv(1 << 16):
                return
    except (OSError, ValueError):
        pass


def _chunk_state(instance, config, options, cache_dir, throttle,
                 fingerprint):
    """Everything a chunk computation needs besides its tasks."""
    cache = None
    if cache_dir is not None:
        from repro.eval.cache import TrialCache

        cache = TrialCache(cache_dir)
    return (instance, config, options, cache, fingerprint, throttle)


def _pool_initializer(*args) -> None:
    global _POOL_STATE
    _POOL_STATE = _chunk_state(*args)


def _run_chunk(state, payload: bytes):
    """Decode and execute one chunk (cache-aware, throttle-aware), packed.

    The single definition of per-chunk semantics, whether it runs in
    the session thread or in a pool child.  The codec'd task records
    are decoded here, where they compute, so the session thread stays
    a pure frame pump.
    """
    instance, config, options, cache, fingerprint, throttle = state
    results = []
    for task in decode_tasks(payload):
        if throttle:
            time.sleep(throttle)
        results.append(
            WorkerServer._run_task(
                instance, config, options, task, cache, fingerprint
            )
        )
    return _pack_error_dicts(results)


def _pool_run_chunk(payload: bytes):
    return _run_chunk(_POOL_STATE, payload)


class _InlineExecutor(Executor):
    """Capacity 1: run each chunk in the submitting (session) thread.

    The returned future is already done, so the completion callback
    fires inside ``add_done_callback`` — the same result path the pool
    uses, without spawning a child that would pay the full package
    import per session.
    """

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


class _HeartbeatSender:
    """Unsolicited liveness pongs, one per half heartbeat interval.

    Armed when the coordinator's context frame carries a ``heartbeat``
    key: a daemon thread sends ``{"type": "pong"}`` frames every
    ``interval / 2`` through the session's transport, so the coordinator
    observes traffic at least twice per interval from a healthy worker
    no matter how long a chunk computes.  A worker that is stopped
    (SIGSTOP), swapped to death, or wedged in a non-Python stall stops
    beating — which is the whole point: silence, not a closed socket,
    is what the coordinator's liveness monitor detects.

    ``freeze`` suppresses the beats for a bounded window (the chaos
    plane's in-process SIGSTOP lookalike).  Send failures end the
    thread quietly; the serve loop notices the dead session on its own.
    """

    def __init__(self, transport, interval, log) -> None:
        self._transport = transport
        self._interval = float(interval)
        self._log = log
        self._stop = threading.Event()
        self._frozen = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="worker-heartbeat", daemon=True
        )

    def start(self) -> None:
        self._log(
            f"heartbeat armed: pong every {self._interval / 2.0:g}s"
        )
        self._thread.start()

    def _run(self) -> None:
        beat = 0
        while not self._stop.wait(self._interval / 2.0):
            if self._frozen.is_set():
                continue
            beat += 1
            try:
                self._transport.send({"type": "pong", "beat": beat})
            except (OSError, ProtocolError):
                return  # session is gone; the serve loop handles it

    def freeze(self, seconds: float) -> None:
        """Suppress beats for ``seconds`` (caller's thread sleeps too)."""
        self._frozen.set()
        try:
            time.sleep(seconds)
        finally:
            self._frozen.clear()

    def stop(self) -> None:
        self._stop.set()


class _Transport:
    """One session's socket, shared by every sender in the session.

    Results, errors, control replies and the heartbeat sender's pongs
    all go through :meth:`send`, which serializes on one lock so frames
    from pool callbacks and the beat thread never interleave.
    """

    def __init__(self, connection) -> None:
        self.connection = connection
        self._send_lock = threading.Lock()

    def send(self, header: dict, payload=b"") -> None:
        """Send one frame under the session's send lock."""
        with self._send_lock:
            send_json_message(self.connection, header, payload)


class WorkerServer:
    """Serve sweep sessions on ``host:port`` (``port=0`` → ephemeral).

    Parameters:
        capacity: Parallel chunk slots advertised to coordinators;
            sessions with ``capacity > 1`` execute their in-flight
            chunks on a process pool of that size, capacity 1 computes
            them inline in the session thread.  Defaults to 1; the CLI
            worker defaults to the CPU count instead.  The pool (and
            the advertisement) is per *session*: a worker shared by two
            overlapping sweeps runs up to ``2 × capacity`` compute
            processes, so size ``--capacity`` for the share of the
            host each concurrent sweep should get on shared-fleet
            deployments.
        cache_dir: Optional :class:`repro.eval.cache.TrialCache` root;
            tasks are looked up before executing and written back as
            they complete.
        max_sessions: Stop accepting after this many sessions (``None``
            = serve forever).  CI and tests use it to bound lifetime.
        fail_after_chunks: Fault-injection hook — accept this many
            chunks per session, then drop the connection without
            replying.
        throttle: Latency-injection hook — sleep this many seconds
            before each task (a simulated slower host; results are
            delayed, never changed).
        secret: Shared secret (str or bytes).  When set, every session
            must complete the HMAC handshake
            (:func:`repro.eval.dist.auth.server_handshake`) before the
            worker reads any session frame; unauthenticated peers are
            refused at the magic bytes.  ``None`` keeps the
            trust-the-network behaviour.
        ssl_context: Optional server-side :class:`ssl.SSLContext`
            (see :func:`repro.eval.dist.certs.server_context`); every
            accepted connection is TLS-wrapped before any frame is
            read, and a plaintext peer is refused with one error frame.
        handshake_timeout: Seconds a new connection gets to finish
            TLS + auth + ``init``; a half-open or stalling peer is
            dropped instead of pinning a session thread forever.
        log: Callable for one-line status messages (``None`` = silent).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        capacity: int = 1,
        cache_dir=None,
        max_sessions: int | None = None,
        fail_after_chunks: int | None = None,
        throttle: float = 0.0,
        secret=None,
        ssl_context: ssl.SSLContext | None = None,
        handshake_timeout: float = 30.0,
        log=None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if throttle < 0:
            raise ValueError(f"throttle must be >= 0, got {throttle}")
        if handshake_timeout <= 0:
            raise ValueError(
                f"handshake_timeout must be positive, got "
                f"{handshake_timeout}"
            )
        self._server = socket.create_server((host, port))
        self.host, self.port = self._server.getsockname()[:2]
        self.capacity = capacity
        self._cache_dir = cache_dir
        self._max_sessions = max_sessions
        self._fail_after_chunks = fail_after_chunks
        self._throttle = throttle
        self._secret = normalize_secret(secret)
        self._ssl_context = ssl_context
        self._handshake_timeout = handshake_timeout
        self._log = log or (lambda message: None)
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def close(self) -> None:
        """Stop accepting; wakes a :meth:`serve_forever` parked in
        ``accept`` (closing the descriptor alone does not on Linux)."""
        self._closed = True
        try:
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # not listening any more, or already closed
        try:
            self._server.close()
        except OSError:
            pass

    def serve_forever(self) -> int:
        """Accept sessions until ``max_sessions`` or :meth:`close`.

        Sessions run concurrently, one thread each, so a worker busy
        with a long sweep still handshakes a second coordinator
        immediately (two overlapping sweeps sharing a worker fleet is
        the documented shared-cache deployment).  Active sessions are
        joined before returning, so ``max_sessions=N`` never cuts a
        running sweep short.
        """
        sessions = 0
        threads: list[threading.Thread] = []
        self._log(f"worker listening on {self.address}")
        if self._secret is not None or self._ssl_context is not None:
            tls = "on" if self._ssl_context is not None else "off"
            secret = "configured" if self._secret is not None else "off"
            self._log(f"worker security: tls={tls} secret={secret}")
        try:
            while (
                self._max_sessions is None
                or sessions < self._max_sessions
            ):
                try:
                    connection, peer = self._server.accept()
                except OSError:
                    break  # closed from another thread
                plan = active_plan()
                if plan is not None and plan.refuse_connect():
                    # Chaos: look exactly like a crashed listener —
                    # accept then reset, no frame ever sent.  Does not
                    # count against max_sessions, so the retried
                    # connect still finds a session slot.
                    self._log(
                        f"chaos: refusing connection from "
                        f"{peer[0]}:{peer[1]}"
                    )
                    try:
                        connection.close()
                    except OSError:
                        pass
                    continue
                sessions += 1
                self._log(f"session {sessions} from {peer[0]}:{peer[1]}")
                thread = threading.Thread(
                    target=self._session_thread,
                    args=(connection,),
                    name=f"worker-session-{sessions}",
                )
                thread.start()
                threads.append(thread)
        finally:
            for thread in threads:
                thread.join()
            self.close()
        return sessions

    def _refuse(self, connection, error: str, message: str) -> None:
        """Send the one refusal frame, then hang up.

        The refusal names the wire version and is followed by end of
        stream, so the peer reads exactly one frame.  Nothing the peer
        sent is parsed — its bytes are drained only so the hang-up does
        not reset the refusal in flight.  The session thread closes the
        socket when this returns.
        """
        try:
            send_json_message(
                connection,
                {
                    "type": "error",
                    "error": error,
                    "protocol": PROTOCOL_VERSION,
                    "chunk": None,
                    "message": message,
                    "traceback": "",
                },
            )
            # The base-class call keeps a TLS session's state intact
            # for the drain below (``SSLSocket.shutdown`` drops it).
            socket.socket.shutdown(connection, socket.SHUT_WR)
        except OSError:
            pass
        _drain_refused_peer(connection)
        self._log(f"refused session ({error}); no payload was read")

    def _session_thread(self, raw: socket.socket) -> None:
        disable_nagle(raw)
        wrapped = None
        live = [raw]
        handshake_done = threading.Event()

        def _reap_stalled_handshake() -> None:
            # The per-recv socket timeout alone is not a deadline: a
            # peer dripping one byte per interval restarts it forever.
            # This timer enforces the absolute window — close the
            # socket(s), and whatever recv the session thread is
            # parked in raises.
            if not handshake_done.is_set():
                for sock in list(live):
                    try:
                        sock.close()
                    except OSError:
                        pass

        reaper = threading.Timer(
            self._handshake_timeout, _reap_stalled_handshake
        )
        reaper.daemon = True
        reaper.start()
        try:
            try:
                # A bounded handshake window: a half-open peer (or a
                # plaintext client staring at a TLS listener) is
                # dropped instead of pinning this thread forever.  The
                # session switches to blocking mode once it is up.
                raw.settimeout(self._handshake_timeout)
                if self._ssl_context is not None:
                    # Sniff (without consuming) the first byte: a TLS
                    # client always opens with a handshake record
                    # (0x16); anything else is a plaintext peer and
                    # gets a readable refusal.
                    first = raw.recv(1, socket.MSG_PEEK)
                    if first and first != b"\x16":
                        self._refuse(
                            raw,
                            "tls-required",
                            f"this worker serves dist wire protocol "
                            f"v{PROTOCOL_VERSION} over TLS; configure "
                            f"--tls-ca (and --tls-cert/--tls-key for "
                            f"mutual TLS) on the coordinator",
                        )
                        return
                    wrapped = self._ssl_context.wrap_socket(
                        raw, server_side=True
                    )
                    live.append(wrapped)
                self._serve_session(
                    wrapped if wrapped is not None else raw,
                    handshake_done,
                )
            except Exception as exc:
                # A torn session never takes the worker down — not just
                # transport errors but anything a mismatched coordinator
                # can provoke (malformed headers or payloads, failed TLS
                # or auth handshakes): log and keep serving other
                # sessions.
                self._log(f"session aborted: {exc!r}")
        finally:
            reaper.cancel()
            for sock in (wrapped, raw):
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass

    # -- one session ---------------------------------------------------
    def _open(self, connection) -> bool:
        """Run the session's opening sequence; ``False`` = refused.

        The auth handshake binds the one wire version; without a secret
        the opening is one JSON ``init`` frame naming it.  Every other
        opening gets :meth:`_refuse` — decided from the magic bytes, so
        a refused frame is never parsed.
        """
        magic = read_magic(connection)
        if magic == AUTH_MAGIC:
            try:
                server_handshake(
                    connection, self._secret, preread_magic=magic
                )
            except AuthError as exc:
                # The rejection frame is already on the wire; log and
                # drop without ever touching a session frame.
                self._log(f"auth refused: {exc}")
                return False
            return True
        if self._secret is not None:
            self._refuse(
                connection,
                "auth-required",
                f"this worker requires the shared-secret handshake of "
                f"dist wire protocol v{PROTOCOL_VERSION}; configure the "
                f"same secret on the coordinator (REPRO_DIST_SECRET or "
                f"--secret-file)",
            )
            return False
        mismatch = (
            f"this worker speaks dist wire protocol v{PROTOCOL_VERSION} "
            f"only: open the session with the auth handshake or one "
            f"JSON init frame naming protocol {PROTOCOL_VERSION}"
        )
        if magic == MAGIC:
            try:
                header, _ = recv_json_message(
                    connection, preread_magic=magic
                )
            except ProtocolError:
                header = {}  # a malformed frame is refused like the rest
            if (
                header.get("type") == "init"
                and header.get("protocol") == PROTOCOL_VERSION
            ):
                return True
        self._refuse(connection, "protocol-mismatch", mismatch)
        return False

    def _serve_session(
        self, connection: socket.socket, handshake_done=None
    ) -> None:
        """Opening, ``ready``, the context frame, then the chunk loop."""
        if not self._open(connection):
            return
        send_json_message(
            connection,
            {
                "type": "ready",
                "protocol": PROTOCOL_VERSION,
                "host": socket.gethostname(),
                "capacity": self.capacity,
            },
        )
        header, payload = recv_json_message(connection)
        if header["type"] != "context":
            raise ProtocolError(
                f"expected a context frame, got {header['type']!r}"
            )
        context, fingerprint = decode_context(payload)
        if handshake_done is not None:
            handshake_done.set()  # disarm the stalled-handshake reaper
        connection.settimeout(None)  # handshake done: blocking session
        transport = _Transport(connection)
        heartbeat = None
        interval = header.get("heartbeat")
        if isinstance(interval, (int, float)) and interval > 0:
            # The coordinator armed liveness for this session: beat
            # unsolicited pongs so long chunks never read as silence.
            heartbeat = _HeartbeatSender(transport, interval, self._log)
            heartbeat.start()
        try:
            self._serve_chunks(transport, context, fingerprint, heartbeat)
        finally:
            if heartbeat is not None:
                heartbeat.stop()

    def _serve_chunks(self, transport, context, fingerprint, heartbeat):
        """The chunk loop: receive frames, submit chunks, until ``end``.

        Each chunk is submitted to the session's executor and answered
        by :meth:`_send_chunk_result` when it completes — a process
        pool of ``capacity`` children, or inline in this thread at
        capacity 1.  The cache handle and throttle travel with the
        chunk state either way.
        """
        state_args = (
            *context,
            self._cache_dir,
            self._throttle,
            fingerprint,
        )
        if self.capacity > 1:
            # ``spawn`` keeps the pool fork-free even though the server
            # is multi-threaded.
            executor = ProcessPoolExecutor(
                max_workers=self.capacity,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_pool_initializer,
                initargs=state_args,
            )
            run, args = _pool_run_chunk, ()
        else:
            executor = _InlineExecutor()
            run, args = _run_chunk, (_chunk_state(*state_args),)
        chunks_accepted = 0
        try:
            while True:
                try:
                    header, payload = recv_json_message(transport.connection)
                except ConnectionClosed:
                    return
                kind = header["type"]
                if kind == "ping":
                    # Coordinator liveness probe: answer immediately,
                    # even between heartbeat beats.
                    transport.send({"type": "pong"})
                    continue
                if kind == "end":
                    # The coordinator only sends "end" after it has
                    # received every in-flight result, so nothing is
                    # computing for this session any more.
                    self._log("session done")
                    return
                if kind != "chunk":
                    raise ProtocolError(
                        f"expected a chunk frame, got {kind!r}"
                    )
                if (
                    self._fail_after_chunks is not None
                    and chunks_accepted >= self._fail_after_chunks
                ):
                    # Fault injection: vanish mid-chunk, exactly like a
                    # worker killed while computing.
                    self._log(
                        f"fault injection: dropping connection before "
                        f"chunk {header['chunk']}"
                    )
                    return
                if self._apply_chunk_fault(chunks_accepted + 1, heartbeat):
                    return
                chunk_id = header["chunk"]
                future = executor.submit(run, *args, payload)
                future.add_done_callback(
                    lambda done, chunk=chunk_id: self._send_chunk_result(
                        transport, chunk, done
                    )
                )
                chunks_accepted += 1
        finally:
            # Abandon rather than join: on a fault-injected (or torn)
            # session the in-flight chunks are already requeued on the
            # coordinator; their pool processes finish their current
            # task, write it back to the cache, and exit.
            executor.shutdown(wait=False, cancel_futures=True)

    def _send_chunk_result(self, transport, chunk_id, future) -> None:
        """Completion callback: ship one chunk's result or error.

        Task exceptions become ``error`` frames (they would fail
        identically anywhere, so the coordinator must not retry them).
        A *broken pool* — a child OOM-killed or segfaulted — is
        infrastructure death, not a task error: shut the connection
        down without replying, so the coordinator sees this worker as
        down and requeues the chunk on survivors, exactly like a worker
        process dying.  The session thread, woken by the shutdown,
        closes the socket.
        """
        try:
            try:
                descriptor, buffer = future.result()
            except BrokenProcessPool as exc:
                self._log(
                    f"process pool broke on chunk {chunk_id}: {exc!r}"
                )
                try:
                    transport.connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                return
            except Exception as exc:
                transport.send(
                    {
                        "type": "error",
                        "chunk": chunk_id,
                        "message": repr(exc),
                        "traceback": "".join(
                            traceback.format_exception(exc)
                        ),
                    },
                )
            else:
                transport.send(
                    {
                        "type": "result",
                        "chunk": chunk_id,
                        "descriptor": descriptor,
                    },
                    buffer_payload(buffer),
                )
        except Exception as exc:
            # The session is gone (connection closed mid-send) or the
            # future was cancelled by a tearing-down pool; either way
            # the coordinator requeues the chunk elsewhere.
            self._log(f"result send failed for chunk {chunk_id}: {exc!r}")

    def _apply_chunk_fault(self, ordinal: int, heartbeat) -> bool:
        """Chaos hook at chunk arrival; ``True`` = drop the session.

        ``worker-kill`` and ``worker-sigstop`` act on the whole process
        only when the installed plan has ``allow_process_faults`` (the
        worker CLI grants it); an in-process plan — a coordinator-side
        test that also reaches this code — degrades them to a dropped
        session, which exercises the same requeue path without killing
        the test runner.
        """
        plan = active_plan()
        if plan is None:
            return False
        fault = plan.chunk_fault(ordinal)
        if fault is None:
            return False
        kind = fault[0]
        if kind == "kill":
            if plan.allow_process_faults:
                self._log(f"chaos: killing process at chunk {ordinal}")
                os._exit(23)
            self._log(f"chaos: dropping session at chunk {ordinal}")
            return True
        if kind == "sigstop":
            if plan.allow_process_faults:
                self._log(f"chaos: SIGSTOP at chunk {ordinal}")
                os.kill(os.getpid(), signal.SIGSTOP)
                # Resumes here on SIGCONT; the session continues if the
                # coordinator has not already torn it down.
                return False
            self._log(f"chaos: dropping session at chunk {ordinal}")
            return True
        if kind == "freeze":
            # SIGSTOP lookalike scoped to this session: heartbeats are
            # suppressed and the serve loop sleeps, so the coordinator
            # sees total silence for the window.
            self._log(
                f"chaos: freezing for {fault[1]:g}s at chunk {ordinal}"
            )
            if heartbeat is not None:
                heartbeat.freeze(fault[1])
            else:
                time.sleep(fault[1])
            return False
        # "stall": compute takes forever but the worker stays live —
        # heartbeats keep flowing; only a chunk deadline catches this.
        self._log(
            f"chaos: stalling {fault[1]:g}s at chunk {ordinal}"
        )
        time.sleep(fault[1])
        return False

    @staticmethod
    def _run_task(instance, config, options, task, cache, fingerprint):
        key = None
        if (
            cache is not None
            and task.scenario_seed is not None
            and task.run_seed is not None
        ):
            key = cache.task_key(
                fingerprint, task, config=config, options=options
            )
            hit = cache.get(key)
            if hit is not None:
                return hit
        errors = _execute_task(instance, config, options, task)
        if key is not None:
            cache.put(key, errors)
        return errors
