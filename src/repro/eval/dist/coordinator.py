"""Coordinator side of the distributed sweep backend.

:class:`RemoteExecutor` implements the engine's
:class:`repro.eval.parallel.TaskExecutor` interface over a set of
workers — either already-listening ``host:port`` endpoints (started by
hand, by CI, or via ``ssh host repro-tomography worker``) or a fleet it
launches itself through a :mod:`repro.eval.dist.launch` launcher and
tears down when the sweep ends.  One thread per worker drives a
request/response session:

* the sweep is encoded once, before any connection
  (:mod:`repro.eval.dist.codec`): a sweep the codec cannot carry fails
  up front with the :class:`~repro.eval.dist.codec.CodecError` that
  names the field;
* the (instance, config, options) triple is shipped **once** per worker
  session, never per chunk, as a canonical-JSON ``context`` frame;
* every chunk and result payload rides its session's socket, right
  behind the frame header that describes it — local, remote, SSH and
  TLS sessions all share this one data plane;
* workers advertise a *capacity* (parallel chunk slots, CPU count by
  default) in their ``ready`` frame and the session thread keeps up to
  that many chunks in flight, so a capacity-2 host computes two chunks
  while a capacity-1 host computes one — claims are sized
  proportionally to capacity;
* each thread claims chunks from the shared :class:`ChunkBoard`, sends
  them, and settles results as they come back — chunk results are one
  packed float64 payload (the in-host pool's transport) and are yielded
  to the engine as they complete, in whatever order they finish;
* when a worker dies (connection reset, torn frame, handshake failure),
  its outstanding chunks are requeued at the *front* of the pending
  queue and the surviving workers absorb them — a death costs at most
  the chunks that were in flight;
* with ``straggler_timeout`` set, an idle worker speculatively re-runs a
  chunk that has been outstanding longer than the timeout (up to
  ``max_attempts`` total executions); the board steers the duplicate
  toward the fastest idle worker, the first result wins, and duplicates
  are discarded, which is safe because chunks are pure functions of
  their tasks.

Determinism: the schedule never touches the tasks — every task carries
its own pre-spawned generators and results are keyed by chunk index —
so remote execution is bit-identical to serial execution no matter how
chunks land on workers, how many die, or how many duplicates race.

Wire security: ``secret=`` arms the mutual HMAC handshake of
:mod:`repro.eval.dist.auth` — run before the sweep context is sent and
before any session frame from the worker is read — and
``ssl_context=`` TLS-wraps every worker socket
(:func:`repro.eval.dist.certs.client_context`).  A sweep whose *every*
worker is refused on security grounds raises
:class:`~repro.exceptions.DistSecurityError` with the refusal reason
instead of the generic lost-chunks error: a misconfigured secret
refuses identically on every retry, so it must fail closed and
loudly.

Failure contract (shared with the serial and local executors): every
chunk settles before :meth:`RemoteExecutor.map_chunks` raises, so the
engine writes completed chunks back to the cache even when the sweep
ultimately fails.  Application errors reported by a worker surface as
:class:`RemoteTaskError` entries in the
:class:`repro.eval.parallel.ChunkExecutionError`; losing *all* workers
surfaces the last transport error.
"""

from __future__ import annotations

import dataclasses
import queue
import random
import select
import socket
import ssl
import threading
import time
from collections import deque
from typing import NamedTuple

from repro.eval.dist.auth import (
    AuthError,
    client_handshake,
    normalize_secret,
)
from repro.eval.dist.codec import encode_context, encode_tasks
from repro.eval.dist.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    TlsMismatchError,
    disable_nagle,
    payload_to_buffer,
    recv_json_message,
    send_json_message,
)
from repro.eval.parallel import (
    ChunkExecutionError,
    TaskExecutor,
    _chunk_tasks,
    _execute_task,
    _unpack_error_dicts,
)
from repro.exceptions import DistSecurityError

__all__ = [
    "ChunkBoard",
    "ChunkDeadlineExceeded",
    "HostSpec",
    "RemoteExecutor",
    "RemoteTaskError",
    "SweepStats",
    "WorkerUnresponsiveError",
    "parse_hosts",
]


def _is_security_failure(exc: BaseException) -> bool:
    """Does this worker-down error mean a security misconfiguration?

    Auth refusals and TLS failures are configuration problems that will
    refuse identically on every retry, so a sweep that loses *all* its
    workers to them fails closed with operator guidance instead of the
    generic lost-chunks report.
    """
    return isinstance(exc, (DistSecurityError, ssl.SSLError))


class RemoteTaskError(RuntimeError):
    """A worker reported an application error while executing a chunk.

    ``remote_traceback`` carries the worker-side traceback text.
    """

    def __init__(self, message: str, remote_traceback: str = "") -> None:
        super().__init__(message)
        self.remote_traceback = remote_traceback


class WorkerUnresponsiveError(RuntimeError):
    """A heartbeat-armed worker went silent past the liveness budget.

    The socket is still connected — a SIGSTOP'd process or a hung VM
    keeps its TCP session alive — but no frame (result, pong, anything)
    has arrived within the silence threshold.  The session is torn down and its
    chunks requeued exactly like a socket death.
    """


class ChunkDeadlineExceeded(RuntimeError):
    """An in-flight chunk outlived the per-chunk deadline budget.

    Distinct from heartbeat silence: the worker may be demonstrably
    alive (pongs flowing) yet never able to finish — e.g. its compute
    is stalled while its heartbeat thread beats.  The deadline is
    the per-session hard bound; cross-worker speculation
    (``straggler_timeout``) stays the soft one.
    """


@dataclasses.dataclass
class SweepStats:
    """Fault-tolerance counters for one sweep.

    Collected by :meth:`RemoteExecutor.map_chunks` (one fresh object
    per sweep, exposed as ``executor.last_sweep_stats``) so silent
    degradation — retried connects, lost workers, requeued chunks — is
    visible instead of being inferred from wall-clock anomalies.
    Increments take the stats lock: session threads report
    concurrently.
    """

    workers: int = 0
    sessions: int = 0
    connect_retries: int = 0
    worker_losses: int = 0
    heartbeat_timeouts: int = 0
    deadline_timeouts: int = 0
    requeued_chunks: int = 0
    serial_fallback_chunks: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def count(self, field: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)

    def render(self) -> str:
        lines = [
            f"{self.workers} workers, {self.sessions} sessions, "
            f"{self.connect_retries} connect retries, "
            f"{self.worker_losses} worker losses",
            f"{self.heartbeat_timeouts} heartbeat timeouts, "
            f"{self.deadline_timeouts} deadline timeouts, "
            f"{self.requeued_chunks} chunks requeued, "
            f"{self.serial_fallback_chunks} chunks finished in-process",
        ]
        return "\n".join(lines)


def _backoff_delays(
    attempts: int,
    *,
    base: float = 0.5,
    cap: float = 8.0,
    jitter: float = 0.5,
    rng: random.Random | None = None,
):
    """Exponential backoff delays with jitter for ``attempts`` tries.

    Yields ``attempts - 1`` sleep durations (there is no sleep after
    the final failure): ``base * 2^i`` capped at ``cap``, scaled by a
    uniform ±``jitter`` factor so a fleet of session threads retrying a
    rebooting worker doesn't reconnect in lockstep.  Jitter affects
    timing only — never results — so it needs no seeding for
    determinism.
    """
    rng = rng if rng is not None else random
    for attempt in range(max(0, attempts - 1)):
        delay = min(cap, base * (2.0 ** attempt))
        yield delay * (1.0 + jitter * (2.0 * rng.random() - 1.0))


def _wait_readable(sock, timeout: float) -> bool:
    """Bounded wait for the next frame byte, TLS-buffer aware.

    An ``SSLSocket`` may hold already-decrypted frames in its internal
    buffer while the underlying fd shows nothing readable — a plain
    ``select`` there would idle until the *next* TLS record and
    misdiagnose a healthy session as silent — so buffered TLS data
    short-circuits the poll.  Errors report "readable" so the actual
    ``recv`` raises the real, classified exception.
    """
    pending = getattr(sock, "pending", None)
    if pending is not None:
        try:
            if pending():
                return True
        except (OSError, ValueError):
            return True
    try:
        readable, _, _ = select.select([sock], [], [], timeout)
    except (OSError, ValueError):
        return True
    return bool(readable)


class HostSpec(NamedTuple):
    """One worker host: connect endpoint plus an optional SSH login."""

    host: str
    port: int
    user: str | None = None

    @property
    def endpoint(self) -> tuple[str, int]:
        """The ``(host, port)`` pair sockets connect to."""
        return (self.host, self.port)

    @property
    def ssh_target(self) -> str:
        """The ``[user@]host`` argument an SSH launcher logs in with."""
        if self.user is None:
            return self.host
        return f"{self.user}@{self.host}"

    @property
    def address(self) -> str:
        host = f"[{self.host}]" if ":" in self.host else self.host
        return f"{host}:{self.port}"


def parse_hosts(hosts) -> list[HostSpec]:
    """Normalise a hosts spec into :class:`HostSpec` entries.

    Accepts a comma-separated string (``"a:7100,b:7100"``), an iterable
    of ``"[user@]host:port"`` strings, or an iterable of ``(host, port)``
    pairs / :class:`HostSpec` records.  IPv6 literals use brackets:
    ``"[::1]:7100"``; the optional ``user@`` prefix is carried for SSH
    launchers and ignored when connecting.  Duplicate ``host:port``
    endpoints and out-of-range ports are rejected up front — a duplicate
    would silently double-assign the same worker, and a bad port would
    only surface later as an opaque socket error.
    """
    if isinstance(hosts, str):
        hosts = [piece for piece in hosts.split(",") if piece.strip()]
    specs: list[HostSpec] = []
    for entry in hosts:
        user = None
        if isinstance(entry, HostSpec):
            host, port, user = entry
        elif isinstance(entry, (tuple, list)):
            host, port = entry
        else:
            text = str(entry).strip()
            if "@" in text:
                user, _, text = text.partition("@")
                user = user.strip() or None
            if text.startswith("["):
                bracket = text.find("]")
                if bracket < 0 or not text[bracket + 1 :].startswith(":"):
                    raise ValueError(
                        f"malformed IPv6 endpoint {text!r}; expected "
                        "'[addr]:port'"
                    )
                host, port = text[1:bracket], text[bracket + 2 :]
            else:
                host, _, port = text.rpartition(":")
                if not host:
                    raise ValueError(
                        f"malformed endpoint {text!r}; expected 'host:port'"
                    )
        try:
            port = int(port)
        except (TypeError, ValueError):
            raise ValueError(
                f"malformed endpoint port in {entry!r}"
            ) from None
        if not 0 < port < 65536:
            raise ValueError(
                f"endpoint port out of range in {entry!r}: port must be "
                f"in [1, 65535], got {port}"
            )
        spec = HostSpec(str(host), port, user)
        if any(other.endpoint == spec.endpoint for other in specs):
            raise ValueError(
                f"duplicate worker endpoint {spec.address} in hosts "
                "spec; every worker must be listed exactly once"
            )
        specs.append(spec)
    if not specs:
        raise ValueError("at least one worker endpoint is required")
    return specs


def _enable_keepalive(sock: socket.socket) -> None:
    """Arm TCP keepalive so a host that vanishes without a FIN/RST
    (power loss, network partition) surfaces as a socket error in
    minutes rather than blocking ``recv`` forever.

    The aggressive probe schedule (idle 60 s, 10 s interval, 3 probes
    → dead-host detection in ~90 s) uses Linux/BSD option names and is
    skipped wholesale where unavailable; plain ``SO_KEEPALIVE`` with
    kernel defaults still bounds the hang.
    """
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    for name, value in (
        ("TCP_KEEPIDLE", 60),
        ("TCP_KEEPINTVL", 10),
        ("TCP_KEEPCNT", 3),
    ):
        option = getattr(socket, name, None)
        if option is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, option, value)
            except OSError:
                pass




#: How long a claimer that is deferring a ripe straggler duplicate to a
#: faster idle peer sleeps between checks.  The faster peer normally
#: takes the chunk (or stops being idle) within one notify, so this
#: only bounds the rare window where its wakeup is delayed.
_DEFER_GRACE = 0.05


class ChunkBoard:
    """Thread-shared chunk scheduler (claim/settle/requeue).

    The board hands pending chunks to claiming worker threads, sizes a
    worker's pipeline by its advertised capacity (the session thread
    calls :meth:`claim` until it holds ``capacity`` chunks), and — once
    the pending queue drains — speculatively duplicates the
    longest-outstanding chunk onto *idle* workers, steering the
    duplicate toward the fastest idle claimer.
    """

    def __init__(self, n_chunks: int, max_attempts: int) -> None:
        self.condition = threading.Condition()
        self.pending: deque[int] = deque(range(n_chunks))
        self.settled: set[int] = set()
        self.outstanding: dict[int, float] = {}
        self.attempts: dict[int, int] = {}
        self.n_chunks = n_chunks
        self.max_attempts = max_attempts
        self.live_workers = 0
        self.aborted = False
        # Capacities of claimers currently blocked in claim(), keyed by
        # a per-wait token: straggler duplicates are granted only to the
        # fastest idle claimer.
        self._idle: dict[object, int] = {}

    def all_settled(self) -> bool:
        return len(self.settled) == self.n_chunks

    # -- internals (callers hold self.condition) ------------------------
    def _fastest_idle_capacity(self) -> int:
        return max(self._idle.values(), default=0)

    def _speculation_eligible(self, holding=()) -> list[tuple[float, int]]:
        """(started, chunk) pairs this caller could ever duplicate.

        The single definition of speculation eligibility — not
        settled, under the attempts budget, and not already held by
        the caller — shared by the ripeness check and the wait
        computation so "when do we duplicate" and "when do we wake"
        can never drift apart.
        """
        return [
            (started, chunk)
            for chunk, started in self.outstanding.items()
            if chunk not in self.settled
            and chunk not in holding
            and self.attempts.get(chunk, 0) < self.max_attempts
        ]

    def _speculation_candidates(
        self, now: float, straggler_timeout: float, holding=()
    ) -> list[tuple[float, int]]:
        """(started, chunk) pairs ripe for a speculative duplicate."""
        return [
            (started, chunk)
            for started, chunk in self._speculation_eligible(holding)
            if now - started >= straggler_timeout
        ]

    def _speculation_wait(
        self, now: float, straggler_timeout: float, holding=()
    ) -> float | None:
        """Seconds until the oldest in-flight chunk becomes ripe.

        ``None`` when no running chunk can ever become a speculation
        candidate *for this caller* (nothing outstanding, every
        outstanding chunk has exhausted its attempts, or the caller
        itself holds them) — the claimer then sleeps until a
        settle/requeue/claim notification instead of polling.  Without
        the ``holding`` filter, a blocking claimer holding the only
        ripe chunk would be handed a zero wait and spin.
        """
        starts = [
            started
            for started, _ in self._speculation_eligible(holding)
        ]
        if not starts:
            return None
        return max(min(starts) + straggler_timeout - now, 0.0)

    # -- worker-thread API ----------------------------------------------
    def claim(
        self,
        straggler_timeout: float | None = None,
        *,
        capacity: int = 1,
        block: bool = True,
        holding=(),
    ) -> int | None:
        """Claim the next chunk; ``None`` means nothing (more) to do.

        Pending chunks are handed out first.  ``holding`` is the set of
        chunks the caller already has in flight: those are never handed
        back to it — a requeued duplicate of a chunk the caller is
        still computing stays on the queue (uncharged) for *another*
        worker to pick up, instead of being double-sent or burning a
        phantom attempt.  With ``block=False`` the call returns
        ``None`` as soon as nothing claimable is immediately pending —
        worker threads with chunks already in flight use this to top up
        their pipeline without stalling on the straggler clock.  A
        blocking claimer that finds the queue empty waits for work;
        with ``straggler_timeout`` set it wakes exactly when the oldest
        in-flight chunk crosses the timeout (not on a fixed poll), and
        duplicates it if no faster claimer is idle — bounded by
        ``max_attempts`` total executions per chunk.  A blocking
        ``None`` means the sweep is complete (or aborted).
        """
        with self.condition:
            while True:
                if self.aborted or self.all_settled():
                    return None
                granted = None
                skipped: list[int] = []
                while self.pending:
                    chunk = self.pending.popleft()
                    if chunk in self.settled:
                        continue
                    if chunk in holding:
                        skipped.append(chunk)
                        continue
                    granted = chunk
                    break
                for chunk in reversed(skipped):
                    self.pending.appendleft(chunk)
                if granted is not None:
                    self.outstanding[granted] = time.monotonic()
                    self.attempts[granted] = (
                        self.attempts.get(granted, 0) + 1
                    )
                    # A new in-flight chunk moves the straggler clock:
                    # wake waiters so they recompute their deadline.
                    self.condition.notify_all()
                    return granted
                if not block:
                    return None
                wait = None
                if straggler_timeout is not None:
                    now = time.monotonic()
                    ripe = self._speculation_candidates(
                        now, straggler_timeout, holding
                    )
                    if ripe:
                        if capacity >= self._fastest_idle_capacity():
                            _, chunk = min(ripe)
                            self.outstanding[chunk] = now
                            self.attempts[chunk] += 1
                            self.condition.notify_all()
                            return chunk
                        # A faster worker is idle right now; give it a
                        # moment to take the duplicate instead.
                        wait = _DEFER_GRACE
                    else:
                        wait = self._speculation_wait(
                            now, straggler_timeout, holding
                        )
                token = object()
                self._idle[token] = capacity
                try:
                    self.condition.wait(timeout=wait)
                finally:
                    del self._idle[token]

    def settle(self, chunk: int) -> bool:
        """Mark a chunk done; ``False`` if it already was (duplicate)."""
        with self.condition:
            if chunk in self.settled:
                return False
            self.settled.add(chunk)
            self.outstanding.pop(chunk, None)
            self.condition.notify_all()
            return True

    def requeue(self, chunk: int) -> None:
        with self.condition:
            if chunk in self.settled:
                return
            self.outstanding.pop(chunk, None)
            if chunk not in self.pending:
                self.pending.appendleft(chunk)
            self.condition.notify_all()

    def worker_started(self) -> None:
        with self.condition:
            self.live_workers += 1

    def worker_stopped(self) -> None:
        with self.condition:
            self.live_workers -= 1
            self.condition.notify_all()

    def abort(self) -> None:
        with self.condition:
            self.aborted = True
            self.condition.notify_all()


class _SweepWire(NamedTuple):
    """The sweep's codec'd payloads, encoded once before any session."""

    context: bytes
    chunks: list[bytes]


class _Session(NamedTuple):
    """A connected, handshaken worker session (no chunks sent yet).

    Splitting the connect/handshake prologue from the chunk pipeline is
    what makes connect retry safe: everything up to here is
    side-effect-free with respect to the sweep (no chunk has been
    claimed or sent), so a failed attempt can be thrown away and redone
    on a fresh socket.
    """

    sock: socket.socket
    capacity: int


def _wake_reader(sock) -> None:
    """Make a recv parked on ``sock`` return, leaving the socket open.

    Only the session thread that owns a socket closes it: closing one
    from another thread can tear a frame that thread is still sending.
    The base-class ``shutdown`` is called even on TLS sockets, because
    ``SSLSocket.shutdown`` would also drop the TLS state that a
    concurrent send still needs.
    """
    try:
        socket.socket.shutdown(sock, socket.SHUT_RD)
    except OSError:
        pass


class RemoteExecutor(TaskExecutor):
    """Fan chunks out to socket-connected workers on other hosts.

    Parameters:
        hosts: Worker endpoints (see :func:`parse_hosts`).  Mutually
            exclusive with ``launcher``.
        launcher: A :class:`repro.eval.dist.launch.WorkerLauncher` that
            starts the worker fleet when the sweep begins and tears it
            down (even on failure) when it ends.
        connect_timeout: Seconds allowed for connect + handshake I/O.
        io_timeout: Per-frame socket timeout while a chunk is in flight
            (``None`` = wait forever; rely on ``straggler_timeout`` for
            hung-but-alive workers).
        straggler_timeout: Seconds before an idle worker speculatively
            re-runs an outstanding chunk (``None`` disables).
        max_attempts: Total executions allowed per chunk across
            speculative duplicates.
        chunks_per_worker: Planning granularity — chunks per worker
            *slot* in :meth:`plan`; more chunks mean finer
            requeue/load-balance units at slightly more framing
            overhead.
        capacity_aware: When ``False``, ignore worker capacity
            advertisements and keep one chunk in flight per worker (the
            uniform schedule); the benchmark uses this as its
            baseline.
        secret: Shared secret (str or bytes) for the HMAC handshake
            (:mod:`repro.eval.dist.auth`).  When set, every worker must
            prove knowledge of the same secret before the coordinator
            ships it the sweep context; a sweep whose every worker
            fails the handshake raises
            :class:`~repro.exceptions.DistSecurityError` instead of the
            generic lost-chunks error.
        ssl_context: Optional client-side :class:`ssl.SSLContext`
            (see :func:`repro.eval.dist.certs.client_context`); worker
            sockets are TLS-wrapped right after connecting, before any
            frame is exchanged.
        heartbeat_interval: Liveness budget (seconds): every worker
            emits unsolicited pong frames twice per interval, the
            coordinator pings once a silence exceeds one interval, and
            a session silent past 1.5× the interval is torn down
            (:class:`WorkerUnresponsiveError`) with its chunks
            requeued — so a hung-but-connected worker (SIGSTOP, wedged
            VM) is detected within 2× the interval instead of hanging
            the sweep.  ``None`` disables liveness and restores the
            pure blocking-recv behaviour.
        chunk_deadline: Hard per-chunk wall-clock budget (seconds) on a
            session.  A chunk still unanswered past the deadline fails
            the session (:class:`ChunkDeadlineExceeded`) and requeues
            its chunks — catching workers that are demonstrably alive
            (heartbeats flowing) yet never able to finish, e.g. a
            stalled computation.  ``None`` (default) disables; set it
            comfortably above the slowest expected chunk.
        connect_attempts: Total connect/handshake attempts per worker
            session (default 3) with exponential backoff + jitter
            between them.  Only transient transport errors are
            retried; security refusals (bad secret, TLS mismatch) and
            deterministic protocol errors still fail closed on the
            first attempt.
        on_fleet_loss: What to do with chunks no worker completed
            because the entire fleet was lost.  ``"fail"`` (default)
            raises the usual lost-chunks error; ``"serial"`` finishes
            the remaining chunks in-process — the sweep degrades to
            serial speed instead of discarding its settled work, and
            stays bit-identical.
    """

    def __init__(
        self,
        hosts=None,
        *,
        launcher=None,
        connect_timeout: float = 10.0,
        io_timeout: float | None = None,
        straggler_timeout: float | None = None,
        max_attempts: int = 3,
        chunks_per_worker: int = 4,
        capacity_aware: bool = True,
        secret=None,
        ssl_context: ssl.SSLContext | None = None,
        heartbeat_interval: float | None = 15.0,
        chunk_deadline: float | None = None,
        connect_attempts: int = 3,
        on_fleet_loss: str = "fail",
    ) -> None:
        if (hosts is None) == (launcher is None):
            raise ValueError(
                "exactly one of hosts= and launcher= is required"
            )
        self.endpoints = parse_hosts(hosts) if hosts is not None else None
        self.launcher = launcher
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        if straggler_timeout is not None and straggler_timeout <= 0:
            raise ValueError(
                f"straggler_timeout must be positive or None, got "
                f"{straggler_timeout}"
            )
        self.straggler_timeout = straggler_timeout
        self.max_attempts = max(1, max_attempts)
        self.chunks_per_worker = max(1, chunks_per_worker)
        self.capacity_aware = capacity_aware
        self.secret = normalize_secret(secret)
        self.ssl_context = ssl_context
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive or None, got "
                f"{heartbeat_interval}"
            )
        if chunk_deadline is not None and chunk_deadline <= 0:
            raise ValueError(
                f"chunk_deadline must be positive or None, got "
                f"{chunk_deadline}"
            )
        if on_fleet_loss not in ("fail", "serial"):
            raise ValueError(
                f"on_fleet_loss must be 'fail' or 'serial', got "
                f"{on_fleet_loss!r}"
            )
        self.heartbeat_interval = heartbeat_interval
        self.chunk_deadline = chunk_deadline
        self.connect_attempts = max(1, int(connect_attempts))
        self.on_fleet_loss = on_fleet_loss
        #: :class:`SweepStats` of the most recent sweep (one fresh
        #: object per :meth:`map_chunks` call).
        self.last_sweep_stats: SweepStats | None = None

    # -- TaskExecutor --------------------------------------------------
    def _worker_slots(self) -> int:
        """Parallel chunk slots the fleet is expected to offer.

        Static endpoints count one slot per worker (capacities are only
        learned at handshake); a launcher knows the capacities it will
        ask for, so planning granularity scales with the fleet's total
        capacity and a capacity-2 worker has enough chunks to fill its
        pipeline.
        """
        if self.endpoints is not None:
            return len(self.endpoints)
        return max(1, self.launcher.worker_slots)

    def plan(self, tasks):
        return _chunk_tasks(
            tasks,
            self._worker_slots(),
            chunks_per_worker=self.chunks_per_worker,
        )

    def map_chunks(self, context, chunks):
        if not chunks:
            return
        # Encode before launching or connecting anything: a sweep the
        # codec cannot carry fails here with the field-naming error.
        wire = _SweepWire(
            encode_context(context),
            [encode_tasks(chunk) for chunk in chunks],
        )
        if self.launcher is None:
            yield from self._run_sweep(self.endpoints, wire, context, chunks)
            return
        specs = self.launcher.launch()
        try:
            yield from self._run_sweep(specs, wire, context, chunks)
        finally:
            self.launcher.shutdown()

    def _run_sweep(self, specs, wire, context, chunks):
        board = ChunkBoard(len(chunks), self.max_attempts)
        stats = SweepStats(workers=len(specs))
        self.last_sweep_stats = stats
        events: queue.Queue = queue.Queue()
        sockets: dict[int, socket.socket] = {}
        socket_lock = threading.Lock()
        threads = []
        for worker_id, spec in enumerate(specs):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(
                    worker_id,
                    spec,
                    wire,
                    board,
                    events,
                    sockets,
                    socket_lock,
                    stats,
                ),
                name=f"remote-sweep-{spec.address}",
                daemon=True,
            )
            board.worker_started()
            threads.append(thread)
        for thread in threads:
            thread.start()

        yielded: set[int] = set()
        task_errors: dict[int, RemoteTaskError] = {}
        last_transport_error: BaseException | None = None
        down_events = 0
        security_failures: list[tuple[HostSpec, BaseException]] = []
        try:
            while len(yielded) + len(task_errors) < len(chunks):
                with board.condition:
                    no_workers = board.live_workers == 0
                if no_workers and events.empty():
                    break
                try:
                    event = events.get(timeout=1.0)
                except queue.Empty:
                    continue
                kind = event[0]
                if kind == "result":
                    _, chunk_index, results = event
                    if chunk_index not in yielded:
                        yielded.add(chunk_index)
                        yield chunk_index, results
                elif kind == "task_error":
                    _, chunk_index, error = event
                    task_errors.setdefault(chunk_index, error)
                elif kind == "down":
                    _, spec, exc = event
                    last_transport_error = exc
                    down_events += 1
                    stats.count("worker_losses")
                    if _is_security_failure(exc):
                        security_failures.append((spec, exc))
        finally:
            board.abort()
            with socket_lock:
                # Unblock any thread still parked in recv (e.g. the
                # original owner of a chunk a speculative duplicate
                # already settled).  Each session thread closes its own
                # socket, after its ``end`` frame is fully sent.
                for sock in sockets.values():
                    _wake_reader(sock)
            for thread in threads:
                thread.join(timeout=5.0)

        failures: list[tuple[int, BaseException]] = sorted(
            task_errors.items()
        )
        lost = [
            index
            for index in range(len(chunks))
            if index not in yielded and index not in task_errors
        ]
        if (
            lost
            and not yielded
            and not task_errors
            and security_failures
            and len(security_failures) == down_events
        ):
            # Nothing executed and every worker was refused on security
            # grounds: this is a configuration problem, not a flaky
            # fleet.  Fail closed with the refusal reason — retrying
            # would refuse identically, and nothing was deserialized.
            spec, exc = security_failures[0]
            raise DistSecurityError(
                f"sweep aborted: no worker passed the security "
                f"handshake ({len(security_failures)} of {len(specs)} "
                f"refused; first: {spec.address}: {exc})"
            ) from exc
        if lost and self.on_fleet_loss == "serial":
            # Graceful degradation: the whole fleet is gone, but the
            # context and the chunks are right here.  Finish the
            # remaining chunks in-process — serial speed, identical
            # results — instead of throwing away the settled work.
            # (The security fail-closed path above still wins: a
            # misconfigured secret should be fixed, not absorbed.)
            instance, config, options = context
            for index in lost:
                try:
                    computed = [
                        _execute_task(instance, config, options, task)
                        for task in chunks[index]
                    ]
                except Exception as exc:
                    task_errors.setdefault(
                        index,
                        RemoteTaskError(
                            f"chunk {index} failed during in-process "
                            f"fleet-loss fallback: {exc}"
                        ),
                    )
                    continue
                stats.count("serial_fallback_chunks")
                yielded.add(index)
                yield index, computed
            failures = sorted(task_errors.items())
            lost = []
        for index in lost:
            failures.append(
                (
                    index,
                    RemoteTaskError(
                        "chunk never completed: every worker was lost "
                        f"(last transport error: {last_transport_error!r})"
                    ),
                )
            )
        if failures:
            failures.sort(key=lambda entry: entry[0])
            raise ChunkExecutionError(
                f"{len(failures)} of {len(chunks)} remote chunks failed",
                failures,
            ) from failures[0][1]

    # -- per-worker session thread -------------------------------------
    def _open_session(self, spec: HostSpec) -> _Session:
        """Connect and handshake one worker session (no chunks yet).

        Raises with the socket closed on any failure; the caller
        classifies the exception and decides whether another attempt
        (fresh socket, backoff) is worthwhile.  (A TLS wrap detaches
        the plain socket, so ``sock`` is always the one to close.)
        """
        sock = socket.create_connection(
            spec.endpoint, timeout=self.connect_timeout
        )
        try:
            _enable_keepalive(sock)
            disable_nagle(sock)
            if self.ssl_context is not None:
                # Wrap before any frame: the TLS handshake runs under
                # the connect timeout still armed on the socket, so a
                # plaintext worker surfaces as a bounded error, not a
                # hang.  ``server_hostname`` feeds SNI (and matching,
                # for contexts that enable hostname checks).  Both an
                # SSL-layer failure and a reset mid-handshake mean the
                # endpoint is not the TLS worker we were configured
                # for — classify as a security misconfiguration so the
                # sweep fails closed with guidance.
                try:
                    sock = self.ssl_context.wrap_socket(
                        sock, server_hostname=spec.host
                    )
                except (ssl.SSLError, ConnectionError) as exc:
                    raise TlsMismatchError(
                        f"TLS handshake with worker {spec.address} "
                        f"failed ({exc}); is the worker serving TLS "
                        f"with a certificate the configured CA signs?"
                    ) from exc
            if self.secret is not None:
                # Prove the secret both ways before any sweep payload
                # leaves this process; the handshake binds the wire
                # version, so no init frame follows it.
                client_handshake(sock, self.secret)
            else:
                send_json_message(
                    sock, {"type": "init", "protocol": PROTOCOL_VERSION}
                )
            header, _ = recv_json_message(sock)
            if header["type"] == "error":
                # The worker refused the session: a secured worker
                # refusing our plain one (no secret, or no TLS) is a
                # security misconfiguration and fails closed; anything
                # else is a wire mismatch.
                refusal = header.get("error")
                exc_type = {
                    "auth-required": AuthError,
                    "tls-required": TlsMismatchError,
                }.get(refusal, ProtocolError)
                raise exc_type(
                    f"worker {spec.address} refused the session: "
                    f"{header.get('message', refusal)}"
                )
            if (
                header["type"] != "ready"
                or header.get("protocol") != PROTOCOL_VERSION
            ):
                raise ProtocolError(
                    f"bad handshake from {spec.address}: {header}"
                )
            capacity = 1
            if self.capacity_aware:
                try:
                    capacity = max(1, int(header.get("capacity", 1)))
                except (TypeError, ValueError):
                    raise ProtocolError(
                        f"bad capacity in ready frame from "
                        f"{spec.address}: {header.get('capacity')!r}"
                    ) from None
            sock.settimeout(self.io_timeout)
            return _Session(sock, capacity)
        except BaseException:
            try:
                sock.close()
            except OSError:
                pass
            raise

    def _worker_loop(
        self,
        worker_id: int,
        spec: HostSpec,
        wire: _SweepWire,
        board: ChunkBoard,
        events: queue.Queue,
        sockets: dict,
        socket_lock: threading.Lock,
        stats: SweepStats,
    ) -> None:
        # -- connect + handshake, with bounded jittered retry ----------
        delays = _backoff_delays(self.connect_attempts)
        attempt = 0
        session = None
        while session is None:
            attempt += 1
            try:
                session = self._open_session(spec)
            except Exception as exc:
                # Security refusals (wrong secret, TLS mismatch) and
                # deterministic protocol errors refuse identically on
                # every retry — those fail closed immediately.
                # Transient transport failures (refused or reset
                # connects, timeouts, a listener that closed us
                # mid-handshake) get another attempt on a fresh socket
                # after a jittered exponential backoff.
                retriable = isinstance(
                    exc, (OSError, ConnectionClosed)
                ) and not _is_security_failure(exc)
                with board.condition:
                    halted = board.aborted or board.all_settled()
                if (
                    retriable
                    and not halted
                    and attempt < self.connect_attempts
                ):
                    stats.count("connect_retries")
                    time.sleep(next(delays, 0.0))
                    continue
                # Event first, then the live-count decrement: the main
                # loop treats "no live workers + empty queue" as
                # terminal, so the reverse order could drop this error
                # from the report.
                events.put(("down", spec, exc))
                board.worker_stopped()
                return
        stats.count("sessions")
        sock = session.sock
        capacity = session.capacity
        heartbeat = (
            None
            if self.heartbeat_interval is None
            else float(self.heartbeat_interval)
        )
        inflight: set[int] = set()
        sent_at: dict[int, float] = {}
        try:
            # Worker ready (just parsed) → coordinator context → chunks.
            context_frame = {"type": "context"}
            if heartbeat is not None:
                # Arms the worker's unsolicited heartbeat sender; a
                # worker that never sees this key never beats.
                context_frame["heartbeat"] = heartbeat
            send_json_message(sock, context_frame, wire.context)
            with socket_lock:
                sockets[worker_id] = sock

            # Liveness bookkeeping.  ``last_rx`` is any frame from the
            # worker (results, pongs); ``last_ping`` rate-limits our
            # explicit pings to one per silent interval.  The tick is
            # the poll granularity of the bounded-recv loop below —
            # fine enough that a silent worker is detected within 2×
            # the heartbeat interval (threshold 1.5×, tick ≤ 0.25×).
            last_rx = [time.monotonic()]
            last_ping = [0.0]
            tick_candidates = [
                interval / 4.0
                for interval in (heartbeat, self.chunk_deadline)
                if interval is not None
            ]
            tick = max(0.02, min(tick_candidates, default=1.0))

            def _recv_frame():
                if heartbeat is None and self.chunk_deadline is None:
                    return recv_json_message(sock)
                while True:
                    if _wait_readable(sock, tick):
                        header, payload = recv_json_message(sock)
                        last_rx[0] = time.monotonic()
                        if header.get("type") == "pong":
                            continue  # liveness only; not a result
                        return header, payload
                    now = time.monotonic()
                    if heartbeat is not None:
                        silence = now - last_rx[0]
                        if silence >= 1.5 * heartbeat:
                            stats.count("heartbeat_timeouts")
                            raise WorkerUnresponsiveError(
                                f"worker {spec.address} has been "
                                f"silent for {silence:.1f}s (heartbeat "
                                f"interval {heartbeat:g}s); presumed "
                                f"hung — requeueing its chunks"
                            )
                        if (
                            silence >= heartbeat
                            and now - last_ping[0] >= heartbeat
                        ):
                            # One explicit ping per silent window: a
                            # live-but-quiet worker answers from its
                            # recv loop even when its own beat thread
                            # is wedged.
                            send_json_message(sock, {"type": "ping"})
                            last_ping[0] = now
                    if self.chunk_deadline is not None:
                        overdue = [
                            chunk
                            for chunk, started in sent_at.items()
                            if now - started >= self.chunk_deadline
                            and chunk not in board.settled
                        ]
                        if overdue:
                            stats.count("deadline_timeouts")
                            raise ChunkDeadlineExceeded(
                                f"worker {spec.address} exceeded the "
                                f"{self.chunk_deadline:g}s chunk "
                                f"deadline on chunk(s) "
                                f"{sorted(overdue)}; requeueing"
                            )

            while True:
                # Top up the pipeline: claims are sized by the worker's
                # advertised capacity.  Only a fully-idle worker blocks
                # (and is then eligible for straggler duplicates).
                while len(inflight) < capacity:
                    # holding=inflight: a requeued duplicate of a chunk
                    # this worker is still computing must not be handed
                    # back to it (double-send → ProtocolError); the
                    # token stays queued for another worker.
                    chunk = board.claim(
                        self.straggler_timeout,
                        capacity=capacity,
                        block=not inflight,
                        holding=inflight,
                    )
                    if chunk is None:
                        break
                    # Register the claim *before* sending: a dead peer
                    # (RST) makes the send raise, and a chunk that was
                    # claimed but not yet tracked would never be
                    # requeued — permanently hanging the sweep.
                    inflight.add(chunk)
                    sent_at[chunk] = time.monotonic()
                    send_json_message(
                        sock,
                        {"type": "chunk", "chunk": chunk},
                        wire.chunks[chunk],
                    )
                if not inflight:
                    try:
                        send_json_message(sock, {"type": "end"})
                    except (OSError, ProtocolError):
                        pass
                    return
                header, payload = _recv_frame()
                if header["type"] == "result":
                    chunk_id = header["chunk"]
                    if chunk_id not in inflight:
                        raise ProtocolError(
                            f"worker answered chunk {chunk_id} which "
                            f"was not in flight ({sorted(inflight)})"
                        )
                    inflight.discard(chunk_id)
                    sent_at.pop(chunk_id, None)
                    results = _unpack_error_dicts(
                        header["descriptor"], payload_to_buffer(payload)
                    )
                    if board.settle(chunk_id):
                        events.put(("result", chunk_id, results))
                elif header["type"] == "error":
                    chunk_id = header.get("chunk")
                    if chunk_id not in inflight:
                        raise ProtocolError(
                            f"worker reported an error for chunk "
                            f"{chunk_id} which was not in flight"
                        )
                    inflight.discard(chunk_id)
                    sent_at.pop(chunk_id, None)
                    error = RemoteTaskError(
                        f"worker {spec.address} failed chunk "
                        f"{chunk_id}: {header.get('message', '')}",
                        header.get("traceback", ""),
                    )
                    if board.settle(chunk_id):
                        events.put(("task_error", chunk_id, error))
                else:
                    raise ProtocolError(
                        f"unexpected frame type {header['type']!r}"
                    )
        except Exception as exc:
            # Any escape — transport errors, torn frames, but also
            # malformed headers from a misbehaving worker — must
            # requeue the in-flight chunks and report the worker down;
            # a silently dead thread would leave claimers blocked and
            # hang the sweep.
            requeued = sorted(inflight, reverse=True)
            for chunk in requeued:
                board.requeue(chunk)
            if requeued:
                stats.count("requeued_chunks", len(requeued))
            events.put(("down", spec, exc))
        finally:
            board.worker_stopped()
            with socket_lock:
                sockets.pop(worker_id, None)
            try:
                sock.close()
            except OSError:
                pass
