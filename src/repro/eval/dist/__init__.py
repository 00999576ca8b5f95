"""Distributed sweep backend: coordinator, workers, wire protocol.

The eval engine's task lists are explicit and encodable, so scaling a
sweep beyond one host is a scheduling problem, not an algorithmic one:
:class:`RemoteExecutor` (the coordinator) plugs into
:func:`repro.eval.parallel.run_scenario_tasks` exactly like the serial
and process-pool executors, and :class:`WorkerServer` turns any
reachable Python process into a worker.  See
:mod:`repro.eval.dist.protocol` for the framing,
:mod:`repro.eval.dist.coordinator` for the fault-tolerant scheduler, and
``docs/ARCHITECTURE.md`` for the full design.
"""

from repro.eval.dist.auth import (
    AUTH_MAGIC,
    AuthError,
    DistSecurityError,
    client_handshake,
    normalize_secret,
    resolve_secret,
    server_handshake,
)
from repro.eval.dist.certs import (
    CertPaths,
    client_context,
    generate_self_signed,
    server_context,
)
from repro.eval.dist.codec import (
    CodecError,
    decode_context,
    decode_tasks,
    encode_context,
    encode_tasks,
)
from repro.eval.dist import faults
from repro.eval.dist.coordinator import (
    ChunkBoard,
    ChunkDeadlineExceeded,
    HostSpec,
    RemoteExecutor,
    RemoteTaskError,
    SweepStats,
    WorkerUnresponsiveError,
    parse_hosts,
)
from repro.eval.dist.faults import (
    FaultPlan,
    FaultSpecError,
    active_plan,
    plan_from_env,
)
from repro.eval.dist.journal import (
    JournalError,
    JournalMismatchError,
    SweepJournal,
    sweep_fingerprint,
)
from repro.eval.dist.launch import (
    LaunchedWorker,
    LaunchError,
    LocalLauncher,
    SshLauncher,
    WorkerLauncher,
)
from repro.eval.dist.protocol import (
    MAGIC,
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    TlsMismatchError,
    buffer_payload,
    payload_to_buffer,
    read_magic,
    recv_json_message,
    send_json_message,
)
from repro.eval.dist.shm import (
    CRC_LAYOUT,
    SHM_PREFIX,
    ShmError,
    ShmRing,
    attach_ring,
    create_ring,
    host_is_loopback,
)
from repro.eval.dist.worker import WorkerServer

__all__ = [
    "RemoteExecutor",
    "RemoteTaskError",
    "WorkerServer",
    "ChunkBoard",
    "HostSpec",
    "parse_hosts",
    "SweepStats",
    "WorkerUnresponsiveError",
    "ChunkDeadlineExceeded",
    "SweepJournal",
    "JournalError",
    "JournalMismatchError",
    "sweep_fingerprint",
    "faults",
    "FaultPlan",
    "FaultSpecError",
    "active_plan",
    "plan_from_env",
    "WorkerLauncher",
    "LocalLauncher",
    "SshLauncher",
    "LaunchedWorker",
    "LaunchError",
    "PROTOCOL_VERSION",
    "MAGIC",
    "AUTH_MAGIC",
    "ProtocolError",
    "ConnectionClosed",
    "TlsMismatchError",
    "DistSecurityError",
    "AuthError",
    "CodecError",
    "read_magic",
    "send_json_message",
    "recv_json_message",
    "buffer_payload",
    "payload_to_buffer",
    "encode_context",
    "decode_context",
    "encode_tasks",
    "decode_tasks",
    "ShmRing",
    "ShmError",
    "SHM_PREFIX",
    "CRC_LAYOUT",
    "create_ring",
    "attach_ring",
    "host_is_loopback",
    "client_handshake",
    "server_handshake",
    "resolve_secret",
    "normalize_secret",
    "CertPaths",
    "generate_self_signed",
    "server_context",
    "client_context",
]
