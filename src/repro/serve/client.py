"""Blocking HTTP client for the tomography service.

Stdlib :mod:`http.client` with a persistent keep-alive connection —
the shape SNIPPETS' long-lived predictor clients use: connect once,
load the topology once, then issue many cheap queries.  Used by the
integration tests, the service benchmark, and the examples.
"""

from __future__ import annotations

import http.client
import json

import numpy as np

from repro.serve.queries import decode_vectors

__all__ = ["ServiceError", "ServiceClient"]


class ServiceError(RuntimeError):
    """A non-2xx service response or a transport-level failure.

    Attributes:
        status: HTTP status code (e.g. 429 when shed by backpressure);
            0 when no response arrived at all (socket timeout).
        payload: Decoded JSON error body (``{"error": ...}``).
    """

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(
            f"service returned {status}: "
            f"{payload.get('error', payload) if isinstance(payload, dict) else payload}"
        )
        self.status = status
        self.payload = payload


class ServiceClient:
    """Talk to a :class:`repro.serve.server.TomographyService`.

    Every socket read is bounded by ``timeout`` (seconds): a stalled or
    wedged server surfaces as a clean :class:`ServiceError` (status 0)
    after at most that long, never an unbounded blocking read.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8077, *, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connection: http.client.HTTPConnection | None = None

    def _timeout_error(self) -> "ServiceError":
        self.close()
        return ServiceError(
            0,
            {
                "error": (
                    f"no response from {self.host}:{self.port} within "
                    f"{self.timeout}s"
                )
            },
        )

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, method: str, path: str, payload: dict | None = None):
        """One JSON round trip; raises :class:`ServiceError` on non-2xx.

        The keep-alive connection is re-established once if the server
        closed it between requests (idle timeout, restart).
        """
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            connection = self._connect()
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
                break
            except TimeoutError:
                # socket.timeout: the server accepted but never answered
                # within self.timeout — fail cleanly, not hang forever.
                raise self._timeout_error() from None
            except (
                http.client.RemoteDisconnected,
                BrokenPipeError,
                ConnectionResetError,
            ):
                self.close()
                if attempt:
                    raise
        try:
            decoded = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            decoded = {"error": raw.decode("utf-8", "replace")}
        if response.status >= 300:
            raise ServiceError(response.status, decoded)
        return decoded

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self.request("GET", "/health")

    def stats(self) -> dict:
        return self.request("GET", "/stats")

    def topologies(self) -> list[dict]:
        return self.request("GET", "/topologies")["topologies"]

    def load_topology(
        self,
        *,
        generator: dict | None = None,
        instance: dict | None = None,
        name: str | None = None,
    ) -> str:
        """Load a topology; returns its fingerprint (idempotent)."""
        payload: dict = {}
        if generator is not None:
            payload["generator"] = generator
        if instance is not None:
            payload["instance"] = instance
        if name is not None:
            payload["name"] = name
        return self.request("POST", "/topologies", payload)["fingerprint"]

    def evict(self, fingerprint: str) -> None:
        self.request("DELETE", f"/topologies/{fingerprint}")

    def query(self, fingerprint: str, query: dict) -> dict:
        """Run one query; returns decoded float64 result vectors."""
        response = self.request(
            "POST", f"/topologies/{fingerprint}/query", query
        )
        return decode_vectors(response["result"])

    def localize(self, fingerprint: str, **params) -> dict:
        return self.query(fingerprint, dict(params, kind="localization"))

    def identifiability(self, fingerprint: str, **params) -> dict:
        return self.query(fingerprint, dict(params, kind="identifiability"))

    def whatif(self, fingerprint: str, demand: dict, **params) -> dict:
        """Run a what-if forecast; returns decoded float64 vectors.

        ``demand`` is a demand-matrix payload (flows, capacities,
        optional shifts); ``params`` take the same knobs as the
        ``predict`` CLI command (``shifts``, ``utilization_threshold``,
        ``exact_max_flows``, ``mc_samples``, simulation window, seed).
        """
        return self.query(
            fingerprint, dict(params, kind="whatif", demand=demand)
        )

    def stream(
        self,
        fingerprint: str,
        windows,
        *,
        threshold: float = 0.5,
        max_window: int | None = None,
        localize_last: bool = False,
    ):
        """Upload windows; iterate per-window verdict deltas as they land.

        A generator over the service's chunked ``/stream`` response: one
        dict per window (``window``, ``timestamp``, ``onsets``,
        ``clears``, ``changed``, ...), then a terminal
        ``{"final": ...}`` dict with the full-history estimates.  A
        mid-stream server error arrives as ``{"error": ...}`` and is
        raised as :class:`ServiceError`.  The generator must be
        exhausted (or closed) before the client issues other requests
        on this connection.
        """
        # Verdicts go out as given: the server refuses anything but
        # 0/1 and true/false, so a float window must not be truncated.
        payload = {
            "windows": [np.asarray(window).tolist() for window in windows],
            "threshold": threshold,
            "max_window": max_window,
            "localize_last": localize_last,
        }
        body = json.dumps(payload).encode()
        connection = self._connect()
        try:
            connection.request(
                "POST",
                f"/topologies/{fingerprint}/stream",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
        except TimeoutError:
            raise self._timeout_error() from None
        if response.status >= 300:
            raw = response.read()
            try:
                decoded = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                decoded = {"error": raw.decode("utf-8", "replace")}
            raise ServiceError(response.status, decoded)

        def deltas():
            try:
                while True:
                    try:
                        line = response.readline()
                    except TimeoutError:
                        raise self._timeout_error() from None
                    if not line:
                        break
                    delta = json.loads(line)
                    if "error" in delta:
                        raise ServiceError(500, delta)
                    yield delta
            finally:
                # Drain any unread tail so the keep-alive connection
                # stays usable after an abandoned iteration.
                try:
                    response.read()
                except (OSError, http.client.HTTPException):
                    self.close()

        return deltas()
