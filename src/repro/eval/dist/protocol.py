"""Length-prefixed socket framing for the distributed sweep backend.

Every message is one frame::

    MAGIC (4 bytes, ``RTD4``) | header length (u64 BE)
    | payload length (u64 BE) | UTF-8 JSON header | raw payload bytes

The header is a JSON object with at least a ``"type"`` key; the payload
is an opaque byte string whose meaning the header declares — a
schema'd codec document (:mod:`repro.eval.dist.codec`) for the sweep
context and task chunks, and the engine's packed float64 transport
(:func:`repro.eval.parallel._pack_error_dicts`) for chunk results: the
descriptor rides in the header and the concatenated error vectors ride
as the raw payload, which :func:`payload_to_buffer` rewraps on the
other side without an extra copy.  No frame carries executable
serialization: headers are JSON, payloads are fixed schemas.

Sanity limits (:data:`MAX_HEADER_BYTES`, :data:`MAX_PAYLOAD_BYTES`) make
a corrupt or foreign stream fail fast with :class:`ProtocolError`
instead of attempting a multi-terabyte allocation.  A connection that
closes *between* frames raises :class:`ConnectionClosed` (a clean
end-of-session); one that closes *inside* a frame raises the plain
:class:`ProtocolError` (a torn transfer).

There is one wire, :data:`PROTOCOL_VERSION`, and no negotiation.  A
session opens either with the shared-secret handshake of
:mod:`repro.eval.dist.auth`, whose MACs bind that version, or with one
JSON ``init`` frame naming it; the worker answers ``ready``.  Anything
else — a frame from a build with another wire, a mismatched version,
garbage bytes — gets exactly one JSON ``error`` refusal that names the
version, and the worker hangs up without parsing what the peer sent.
TLS (:mod:`repro.eval.dist.certs`) is optional and wraps the socket
before the first frame.
"""

from __future__ import annotations

import json
import socket
import struct

import numpy as np

from repro.eval.dist.faults import active_plan
from repro.exceptions import DistSecurityError

__all__ = [
    "PROTOCOL_VERSION",
    "MAGIC",
    "MAX_HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
    "ProtocolError",
    "ConnectionClosed",
    "TlsMismatchError",
    "bad_magic_error",
    "disable_nagle",
    "read_magic",
    "send_json_message",
    "recv_json_message",
    "buffer_payload",
    "payload_to_buffer",
]

#: The one wire protocol version this build speaks.
PROTOCOL_VERSION = 4

#: Frame magic of every session frame.
MAGIC = b"RTD4"
_FRAME = struct.Struct("!4sQQ")
_FRAME_REST = struct.Struct("!QQ")  # the two lengths after the magic

#: Headers are small control documents; 64 MiB is generous.
MAX_HEADER_BYTES = 64 * 1024 * 1024
#: Result buffers scale with chunk size; 4 GiB is far beyond any sweep.
MAX_PAYLOAD_BYTES = 4 * 1024 * 1024 * 1024


class ProtocolError(RuntimeError):
    """The byte stream is not a well-formed frame sequence."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection cleanly at a frame boundary."""


def disable_nagle(sock) -> None:
    """Turn off Nagle batching on a session socket.

    Session frames are latency-sensitive and written as single
    ``sendall`` calls, and under the shared-memory data plane the
    socket carries *only* small control frames (chunk announcements,
    slot acks) — exactly the traffic Nagle's delayed coalescing
    penalises, stacking up to a delayed-ACK round trip (~40ms) per
    exchange.  Tolerates non-TCP peers (tests and the in-host pool
    drive sessions over ``socketpair``), where the option is absent
    or meaningless.
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass


def _recv_exact(sock: socket.socket, n: int, *, at_boundary: bool) -> bytes:
    """Read exactly ``n`` bytes or raise.

    ``at_boundary`` marks the read that starts a frame: a clean close
    there is :class:`ConnectionClosed`, anywhere else it is a torn frame.
    """
    if n == 0:
        return b""
    pieces = bytearray()
    while len(pieces) < n:
        piece = sock.recv(min(n - len(pieces), 1 << 20))
        if not piece:
            if at_boundary and not pieces:
                raise ConnectionClosed("peer closed the connection")
            raise ProtocolError(
                f"connection closed mid-frame ({len(pieces)}/{n} bytes)"
            )
        pieces += piece
    return bytes(pieces)


def _looks_like_tls(magic: bytes) -> bool:
    """True when 4 magic bytes look like a TLS record header.

    A TLS record starts ``content-type (0x14..0x17) | 0x03 | minor``;
    a peer answering our plaintext frame with one of these is a TLS
    endpoint we are talking past, which deserves a pointed message (and
    a fail-closed :class:`~repro.exceptions.DistSecurityError`) instead
    of a generic bad-magic complaint.
    """
    return len(magic) >= 2 and 0x14 <= magic[0] <= 0x17 and magic[1] == 0x03


def bad_magic_error(magic: bytes, expected: str) -> ProtocolError:
    """Build the error for an unexpected leading 4 bytes.

    TLS-looking bytes get a :class:`TlsMismatchError` so the security
    misconfiguration fails closed with operator guidance rather than a
    framing complaint.
    """
    if _looks_like_tls(magic):
        return TlsMismatchError(
            "peer answered with what looks like a TLS record "
            f"({magic!r}): this side is speaking plaintext to a TLS "
            "endpoint — configure TLS (--tls-ca / --tls-cert / "
            "--tls-key) on both sides or neither"
        )
    return ProtocolError(
        f"bad frame magic {magic!r} (expected {expected})"
    )


class TlsMismatchError(DistSecurityError, ProtocolError):
    """A plaintext endpoint received TLS record bytes (or vice versa)."""


def read_magic(sock: socket.socket) -> bytes:
    """Read the 4 magic bytes that start the connection's next frame.

    Lets a server dispatch between the session framing (:data:`MAGIC`)
    and the pre-auth binary framing
    (:data:`repro.eval.dist.auth.AUTH_MAGIC`) — or refuse anything
    else — before a header byte is consumed; pass the result to
    :func:`recv_json_message` (or the ``auth`` receive helpers) as
    ``preread_magic``.  A clean close here raises
    :class:`ConnectionClosed`.
    """
    return _recv_exact(sock, 4, at_boundary=True)


def _send_frame(sock, magic: bytes, header: dict, header_bytes: bytes,
                payload_view) -> None:
    """Write one frame, consulting the chaos plan (when one is armed).

    The chaos actions model distinct failure shapes: **drop** sends
    nothing (a hung-but-connected peer — only heartbeats or deadlines
    notice), **corrupt** scrambles the magic so the receiver fails fast
    at the framing layer (a detected, retriable fault), **truncate**
    tears the frame mid-body and aborts the sender's session.  Payload
    bytes are never altered: frames either arrive intact or detectably
    broken, which is what keeps chaos runs bit-identical.
    """
    plan = active_plan()
    action = plan.frame_send_action(header) if plan is not None else None
    if action == "drop":
        return
    if action == "corrupt":
        magic = b"RTDX"
    sock.sendall(_FRAME.pack(magic, len(header_bytes), len(payload_view)))
    if action == "truncate":
        sock.sendall(header_bytes[: max(1, len(header_bytes) // 2)])
        raise ProtocolError(
            f"chaos: truncated outbound {header.get('type')!r} frame"
        )
    sock.sendall(header_bytes)
    if len(payload_view):
        sock.sendall(payload_view)


def send_json_message(sock: socket.socket, header: dict, payload=b"") -> None:
    """Send one frame: JSON header, opaque binary payload.

    Headers must be JSON-native dicts (type tags, chunk indices,
    descriptors, shm slot references); a non-encodable header is a
    programming error and raises :class:`TypeError` before any byte is
    sent.  ``payload`` is any bytes-like object.
    """
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    payload_view = memoryview(payload).cast("B")
    _send_frame(sock, MAGIC, header, header_bytes, payload_view)


def recv_json_message(
    sock: socket.socket, *, preread_magic: bytes | None = None
) -> tuple[dict, bytes]:
    """Receive one frame; returns ``(header, payload)``.

    The header is JSON and must decode to a dict with a ``"type"`` key;
    the payload is returned as raw bytes for the caller's codec.
    ``preread_magic`` hands over 4 magic bytes already consumed by
    :func:`read_magic`.
    """
    if preread_magic is None:
        magic = _recv_exact(sock, 4, at_boundary=True)
    else:
        magic = preread_magic
    if magic != MAGIC:
        raise bad_magic_error(magic, repr(MAGIC))
    header_len, payload_len = _FRAME_REST.unpack(
        _recv_exact(sock, _FRAME_REST.size, at_boundary=False)
    )
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"header length {header_len} exceeds {MAX_HEADER_BYTES}"
        )
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"payload length {payload_len} exceeds {MAX_PAYLOAD_BYTES}"
        )
    header_bytes = _recv_exact(sock, header_len, at_boundary=False)
    try:
        header = json.loads(header_bytes)
    except ValueError as exc:
        raise ProtocolError(f"malformed frame header: {exc}") from exc
    if not isinstance(header, dict) or "type" not in header:
        raise ProtocolError(
            f"frame header must be a JSON object with a 'type' key, "
            f"got {type(header).__name__}"
        )
    payload = _recv_exact(sock, payload_len, at_boundary=False)
    return header, payload


def buffer_payload(buffer: np.ndarray):
    """Wrap a packed float64 buffer as a frame payload (zero-copy).

    Canonicalises to little-endian so heterogeneous hosts interoperate;
    on the (little-endian) common case this is a no-copy view.
    """
    return memoryview(np.ascontiguousarray(buffer, dtype="<f8")).cast("B")


def payload_to_buffer(payload: bytes) -> np.ndarray:
    """Rewrap a received result payload as the packed float64 buffer."""
    if len(payload) % 8:
        raise ProtocolError(
            f"result payload of {len(payload)} bytes is not a whole "
            "number of float64 values"
        )
    return np.frombuffer(payload, dtype="<f8")
