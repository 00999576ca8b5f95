"""Shared-secret authentication for the distributed sweep wire.

A worker runs sweep code on behalf of whoever connects, so any socket
that completes a session can spend the worker's CPU and read its trial
cache.  This module closes that hole for fleets that cannot live on a
loopback/private interface: when a shared secret is configured, every
connection must complete an HMAC-SHA256 challenge/response **before a
single session frame is read** on either side.

Auth frames use their own fixed binary framing::

    AUTH_MAGIC (4 bytes) | kind (u8) | body length (u32 BE) | body

and the handshake is four frames::

    coordinator                         worker
    ----------------------------------- ----------------------------
    HELLO  nonce_c, version       ---->
                                  <---- CHALLENGE  nonce_w, version
    PROVE  HMAC(secret, "C"|nonce_c|nonce_w|version)  ---->
                                  <---- OK  HMAC(secret, "W"|nonce_c|nonce_w|version)

``version`` is the one wire version,
:data:`repro.eval.dist.protocol.PROTOCOL_VERSION`: a HELLO naming any
other version is rejected with a reason, and the version is bound into
both MACs, so the authenticated session needs no ``init`` frame.  Both
nonces are fresh 16-byte values per connection, so a recorded
handshake replays against a *new* challenge and its MAC no longer
verifies: replay is rejected without any state.  The MACs are mutual —
the worker refuses to compute before the coordinator proves knowledge,
and the coordinator refuses to ship the sweep context before the
worker proves it back.

Failure behaviour is fail-closed and symmetric:

* secret on the worker only → the worker refuses any session frame at
  the magic bytes (nothing parsed) and answers with one error frame
  naming the requirement;
* secret on the coordinator only → the secretless worker rejects the
  HELLO with a reason, and the coordinator raises
  :class:`~repro.exceptions.DistSecurityError` instead of proceeding;
* wrong secret → ``REJECT`` after the PROVE frame; the reason string
  never says *which* side of the MAC mismatched.

Scope: the handshake authenticates *session establishment*.  Frames
after it carry no per-frame MAC, so the secret alone defeats
unsolicited connections (scanners, misconfigured peers) but not an
attacker who can inject into an established TCP stream — pair it with
TLS (:mod:`repro.eval.dist.certs`), whose record layer provides the
in-stream integrity, whenever the network itself is untrusted.

Secrets are provisioned out-of-band: the ``REPRO_DIST_SECRET``
environment variable or a ``--secret-file`` — never argv, which any
local user can read from the process table.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import pathlib
import struct

from repro.eval.dist.protocol import (
    MAGIC,
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    _recv_exact,
    bad_magic_error,
)
from repro.exceptions import DistSecurityError

__all__ = [
    "AUTH_MAGIC",
    "AuthError",
    "DistSecurityError",
    "client_handshake",
    "server_handshake",
    "compute_mac",
    "resolve_secret",
    "normalize_secret",
]

#: Distinct magic so a server can dispatch auth vs. session frames
#: from the first 4 bytes of a connection.
AUTH_MAGIC = b"RTA3"

_AUTH_PREFIX = struct.Struct("!4sBI")  # magic | kind | body length
_HELLO_BODY = struct.Struct("!16sI")  # nonce | protocol version

_HELLO = 1
_CHALLENGE = 2
_PROVE = 3
_OK = 4
_REJECT = 5

_KIND_NAMES = {
    _HELLO: "hello",
    _CHALLENGE: "challenge",
    _PROVE: "prove",
    _OK: "ok",
    _REJECT: "reject",
}

NONCE_BYTES = 16
MAC_BYTES = hashlib.sha256().digest_size

#: Auth bodies are a nonce+version or one MAC; reject reasons are short.
MAX_AUTH_BODY = 1024

#: Domain separation for the handshake MACs — never reuse the secret
#: for anything keyed differently.
_MAC_CONTEXT = b"repro-dist-auth-v3\x00"


class AuthError(DistSecurityError):
    """The shared-secret handshake failed (or was refused)."""


def compute_mac(
    secret: bytes, role: bytes, nonce_c: bytes, nonce_w: bytes, version: int
) -> bytes:
    """The handshake proof for one role (``b"C"`` / ``b"W"``).

    Binds both per-connection nonces and the protocol version, so a
    transcript neither replays on a fresh connection nor authenticates
    a session on another wire.
    """
    message = (
        _MAC_CONTEXT
        + role
        + nonce_c
        + nonce_w
        + struct.pack("!I", version)
    )
    return hmac.new(secret, message, hashlib.sha256).digest()


def _send_auth(sock, kind: int, body: bytes) -> None:
    sock.sendall(_AUTH_PREFIX.pack(AUTH_MAGIC, kind, len(body)) + body)


def _recv_auth(sock, *, preread_magic: bytes | None = None):
    """Receive one auth frame; returns ``(kind, body)``.

    Only fixed-layout binary is parsed — this is the receive path both
    sides use while the peer is still untrusted.
    """
    if preread_magic is None:
        magic = _recv_exact(sock, 4, at_boundary=True)
    else:
        magic = preread_magic
    if magic == MAGIC:
        # The peer answered the auth exchange with a session frame — a
        # worker's refusal.  Refusing to parse it (this path runs
        # pre-trust) costs the detail, but the situation is unambiguous
        # enough to guide: a TLS worker refusing a plaintext socket, or
        # a peer that does not take the auth handshake at all.
        raise AuthError(
            "peer answered the authenticated handshake with a plaintext "
            "session frame — it refuses auth or requires TLS; align "
            "the secret and TLS configuration on both sides"
        )
    if magic != AUTH_MAGIC:
        raise bad_magic_error(magic, f"auth magic {AUTH_MAGIC!r}")
    rest = _recv_exact(
        sock, _AUTH_PREFIX.size - 4, at_boundary=False
    )
    kind, body_len = struct.unpack("!BI", rest)
    if body_len > MAX_AUTH_BODY:
        raise ProtocolError(
            f"auth frame body of {body_len} bytes exceeds {MAX_AUTH_BODY}"
        )
    body = _recv_exact(sock, body_len, at_boundary=False)
    return kind, body


def _reject_reason(body: bytes) -> str:
    return body.decode("utf-8", errors="replace") or "no reason given"


def _unpack_hello_body(kind: int, body: bytes) -> bytes:
    """The nonce of a HELLO/CHALLENGE body naming :data:`PROTOCOL_VERSION`.

    A body naming any other version raises :class:`AuthError` whose
    message names both versions.
    """
    if len(body) != _HELLO_BODY.size:
        raise ProtocolError(
            f"auth {_KIND_NAMES.get(kind, kind)} body must be "
            f"{_HELLO_BODY.size} bytes, got {len(body)}"
        )
    nonce, version = _HELLO_BODY.unpack(body)
    if version != PROTOCOL_VERSION:
        raise AuthError(
            f"protocol version mismatch: this side speaks dist wire "
            f"protocol v{PROTOCOL_VERSION}, the peer's "
            f"{_KIND_NAMES.get(kind, kind)} names v{version}; run the "
            "same build on both sides"
        )
    return nonce


def client_handshake(sock, secret: bytes) -> int:
    """Run the coordinator side of the handshake; returns the version.

    Raises :class:`AuthError` on refusal/mismatch and
    :class:`ProtocolError` on a malformed exchange.  The caller only
    sends the sweep context after this returns (i.e. after the worker
    proved secret knowledge).
    """
    try:
        return _client_handshake(sock, secret)
    except (ConnectionResetError, BrokenPipeError) as exc:
        # A worker that chokes on the auth magic closes with our hello
        # bytes unread, which surfaces here as a reset rather than a
        # clean EOF.
        raise AuthError(
            "worker reset the connection during the shared-secret "
            "handshake — it runs another wire, or refused the auth "
            "hello"
        ) from exc


def _client_handshake(sock, secret: bytes) -> int:
    nonce_c = os.urandom(NONCE_BYTES)
    _send_auth(sock, _HELLO, _HELLO_BODY.pack(nonce_c, PROTOCOL_VERSION))
    try:
        kind, body = _recv_auth(sock)
    except ConnectionClosed:
        raise AuthError(
            "worker closed the connection during the shared-secret "
            "handshake — it runs another wire, or refused the auth "
            "hello"
        ) from None
    if kind == _REJECT:
        raise AuthError(
            f"worker rejected authentication: {_reject_reason(body)}"
        )
    if kind != _CHALLENGE:
        raise ProtocolError(
            f"expected an auth challenge, got "
            f"{_KIND_NAMES.get(kind, kind)!r}"
        )
    nonce_w = _unpack_hello_body(kind, body)
    _send_auth(
        sock,
        _PROVE,
        compute_mac(secret, b"C", nonce_c, nonce_w, PROTOCOL_VERSION),
    )
    try:
        kind, body = _recv_auth(sock)
    except ConnectionClosed:
        raise AuthError(
            "worker closed the connection after the auth proof "
            "(secret mismatch?)"
        ) from None
    if kind == _REJECT:
        raise AuthError(
            f"worker rejected the authentication proof "
            f"({_reject_reason(body)}) — do both sides hold the same "
            f"secret?"
        )
    if kind != _OK:
        raise ProtocolError(
            f"expected auth ok, got {_KIND_NAMES.get(kind, kind)!r}"
        )
    expected = compute_mac(secret, b"W", nonce_c, nonce_w, PROTOCOL_VERSION)
    if len(body) != MAC_BYTES or not hmac.compare_digest(body, expected):
        raise AuthError(
            "worker failed to prove knowledge of the shared secret; "
            "refusing to ship the sweep payload"
        )
    return PROTOCOL_VERSION


def server_handshake(
    sock, secret: bytes | None, *, preread_magic: bytes | None = None
) -> int:
    """Run the worker side of the handshake; returns the version.

    ``secret=None`` (a coordinator demanding auth from a secretless
    worker) and a HELLO naming another protocol version are rejected
    with a reason instead of hanging the peer.  A wrong proof is
    rejected with a deliberately symmetric message, before any session
    frame is read.
    """
    kind, body = _recv_auth(sock, preread_magic=preread_magic)
    if kind != _HELLO:
        raise ProtocolError(
            f"expected an auth hello, got {_KIND_NAMES.get(kind, kind)!r}"
        )
    if secret is None:
        _send_auth(
            sock,
            _REJECT,
            b"no shared secret configured on this worker "
            b"(set REPRO_DIST_SECRET or --secret-file)",
        )
        raise AuthError(
            "coordinator requested authentication but this worker has "
            "no shared secret configured"
        )
    try:
        nonce_c = _unpack_hello_body(kind, body)
    except AuthError as exc:
        _send_auth(sock, _REJECT, str(exc).encode("utf-8"))
        raise
    nonce_w = os.urandom(NONCE_BYTES)
    _send_auth(
        sock, _CHALLENGE, _HELLO_BODY.pack(nonce_w, PROTOCOL_VERSION)
    )
    kind, body = _recv_auth(sock)
    if kind != _PROVE:
        raise ProtocolError(
            f"expected an auth proof, got {_KIND_NAMES.get(kind, kind)!r}"
        )
    expected = compute_mac(secret, b"C", nonce_c, nonce_w, PROTOCOL_VERSION)
    if len(body) != MAC_BYTES or not hmac.compare_digest(body, expected):
        _send_auth(sock, _REJECT, b"shared-secret authentication failed")
        raise AuthError(
            "peer failed shared-secret authentication; session "
            "rejected before any payload was read"
        )
    _send_auth(
        sock,
        _OK,
        compute_mac(secret, b"W", nonce_c, nonce_w, PROTOCOL_VERSION),
    )
    return PROTOCOL_VERSION


def normalize_secret(secret) -> bytes | None:
    """Coerce a configured secret to non-empty bytes (or ``None``)."""
    if secret is None:
        return None
    if isinstance(secret, str):
        secret = secret.encode("utf-8")
    elif not isinstance(secret, (bytes, bytearray)):
        raise TypeError(
            f"secret must be str or bytes, got {type(secret).__name__}"
        )
    secret = bytes(secret).strip()
    if not secret:
        raise ValueError("shared secret must not be empty")
    return secret


def resolve_secret(
    secret_file=None, *, env: dict | None = None
) -> bytes | None:
    """Pick the shared secret for a CLI/launcher invocation.

    Precedence: an explicit ``--secret-file`` (first line, stripped),
    then the ``REPRO_DIST_SECRET`` environment variable; otherwise no
    secret (``None`` — authentication off).  Files keep the token out
    of argv and shell history; the env var is how launchers hand the
    token to autolaunched workers.
    """
    if env is None:
        env = os.environ
    if secret_file is not None:
        text = pathlib.Path(secret_file).read_text(encoding="utf-8")
        secret = text.splitlines()[0].strip() if text.strip() else ""
        if not secret:
            raise ValueError(f"secret file {secret_file!r} is empty")
        return normalize_secret(secret)
    from_env = env.get("REPRO_DIST_SECRET", "").strip()
    if from_env:
        return normalize_secret(from_env)
    return None
