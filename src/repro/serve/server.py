"""The asyncio HTTP/1.1 front end of the tomography service.

Hand-built on :func:`asyncio.start_server` — stdlib only, like the dist
wire.  Request bodies and responses are JSON.  Endpoints:

=========  =================================  ===================================
Method     Path                               Purpose
=========  =================================  ===================================
GET        ``/health``                        Liveness + topology count
GET        ``/stats``                         Prep-registry / batcher statistics
GET        ``/topologies``                    List loaded topologies
POST       ``/topologies``                    Load (generator spec or instance)
DELETE     ``/topologies/<fp>``               Evict one topology
POST       ``/topologies/<fp>/query``         Run a query (``kind`` in body)
POST       ``/topologies/<fp>/localize``      Sugar: ``kind=localization``
POST       ``/topologies/<fp>/identifiability``  Sugar: ``kind=identifiability``
POST       ``/topologies/<fp>/stream``        Window uploads → chunked deltas
=========  =================================  ===================================

Status mapping: bad payloads (including ``NaN``/``Infinity`` literals,
JSON nested too deeply to parse, and query parameters outside
:func:`repro.serve.queries.validate_query`'s bounds) → 400, unknown
topology/path → 404, store
at capacity → 409, a request line or header line longer than
:data:`MAX_LINE_BYTES` → 414 or 431, more than :data:`MAX_HEADERS`
header lines → 431, header lines still incomplete
:data:`HEAD_READ_SECONDS` after the request line → 408, a body still
short of its Content-Length after :data:`BODY_READ_SECONDS` → 408, a
Content-Length that is not plain ASCII digits → 400, a request body
sent with ``Transfer-Encoding`` → 501, a connection beyond
:data:`MAX_CONNECTIONS` open ones → 503 (each of these eight then
closes the connection), batcher queue full (backpressure) → 429,
shutting down → 503.  Query execution itself
happens on a worker thread through
:func:`repro.eval.parallel.run_scenario_tasks`, so answers are
bit-identical to the batch CLI's for the same seeds.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import signal
import time

from repro.eval.parallel import run_scenario_tasks
from repro.io import parse_json
from repro.serve.batching import BatcherClosed, BatcherFull, QueryBatcher
from repro.serve.queries import (
    _check_integer,
    _check_number,
    encode_vectors,
    validate_query,
)
from repro.serve.registry import StoreFull, TopologyStore, instance_from_payload
from repro.serve.stream import StepFailure

__all__ = ["TomographyService", "serve_forever"]

#: Upper bound on request bodies (full instance documents are the
#: largest legitimate payload; anything bigger is a client bug).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Upper bound on the request line and on each header line (asyncio's
#: default stream limit, named here so the refusals can state it).
MAX_LINE_BYTES = 64 * 1024

#: Upper bound on the number of header lines in one request.
MAX_HEADERS = 100

#: How long the header lines may take to arrive once the request line
#: is read; a client that stalls mid-head would otherwise hold the
#: connection forever.  An idle keep-alive connection waiting for its
#: next request line is not timed.
HEAD_READ_SECONDS = 10.0

#: How long a request body may take to arrive once its head is read; a
#: body shorter than its Content-Length would otherwise hold the
#: connection forever.
BODY_READ_SECONDS = 10.0

#: Upper bound on open connections.  One more is answered with a 503
#: and closed; the connections already open are served as before.
MAX_CONNECTIONS = 256

#: How long a refused connection keeps reading (and discarding) what the
#: peer is still sending before it closes.
_LINGER_SECONDS = 1.0


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_line(reader, status: int, what: str) -> bytes:
    """One line of the request head; an over-long one is refused."""
    try:
        return await reader.readline()
    except ValueError:  # asyncio's LimitOverrunError, re-raised
        raise _HttpError(
            status, f"{what} exceeds {MAX_LINE_BYTES} bytes"
        ) from None


async def _read_headers(reader) -> dict:
    """The header lines up to the blank line, names lower-cased; a head
    with too many lines or still incomplete after the deadline is
    refused."""
    headers = {}
    try:
        async with asyncio.timeout(HEAD_READ_SECONDS):
            for count in range(MAX_HEADERS + 1):
                line = await _read_line(reader, 431, "header line")
                if line in (b"\r\n", b"\n", b""):
                    return headers
                if count == MAX_HEADERS:
                    raise _HttpError(
                        431, f"more than {MAX_HEADERS} header lines"
                    )
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
    except TimeoutError:
        raise _HttpError(
            408, f"request head incomplete after {HEAD_READ_SECONDS} s"
        ) from None


async def _read_body(reader, length: int) -> bytes:
    """The request body; one still short after the deadline is refused."""
    try:
        return await asyncio.wait_for(
            reader.readexactly(length), BODY_READ_SECONDS
        )
    except asyncio.TimeoutError:
        raise _HttpError(
            408,
            f"body shorter than Content-Length {length} "
            f"after {BODY_READ_SECONDS} s",
        ) from None


async def _discard(reader) -> None:
    while await reader.read(MAX_LINE_BYTES):
        pass


_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    414: "URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class TomographyService:
    """A resident tomography query engine behind an HTTP/1.1 socket.

    Args:
        host / port: Bind address; port 0 picks an ephemeral port
            (read it back from :attr:`port` after :meth:`start`).
        max_topologies: Topology-store capacity.
        workers: Engine worker knob per batch (1 = in-process serial;
            larger values use a local process pool per batch).
        batch_max / max_pending: Batcher knobs (see
            :class:`repro.serve.batching.QueryBatcher`; batches are
            dispatched on arrival, with no flush timer).
        options: :class:`repro.core.correlation_algorithm.AlgorithmOptions`
            shared by every query (must match the batch CLI's for
            bit-identical answers).
        cache: Optional :class:`repro.eval.cache.TrialCache`; repeated
            identical queries then load from disk.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_topologies: int = 4,
        workers: int | None = 1,
        batch_max: int = 8,
        max_pending: int = 64,
        options=None,
        cache=None,
    ) -> None:
        self.host = host
        self.port = port
        self.workers = workers
        self.options = options
        self.cache = cache
        self._batcher_knobs = dict(
            batch_max=batch_max, max_pending=max_pending
        )
        self.store = TopologyStore(max_topologies=max_topologies)
        self._server: asyncio.AbstractServer | None = None
        # Live connection handlers and their writers, so shutdown can
        # end idle keep-alive connections instead of leaving their tasks
        # to be cancelled (which logs a traceback).
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._closing = False
        self._started_at = time.time()

    # ------------------------------------------------------------------
    # Query execution (worker thread)
    # ------------------------------------------------------------------
    def _make_batcher(self, instance) -> QueryBatcher:
        return QueryBatcher(
            functools.partial(self._run_batch, instance),
            **self._batcher_knobs,
        )

    def _run_batch(self, instance, queries: list) -> list[dict]:
        """Execute one coalesced batch through the scenario engine.

        Tasks keep per-query pre-spawned seeds, so coalescing changes
        throughput only — each query's answer is the one it would get
        alone (and identical to the batch CLI's).

        A query arrives as the task list :func:`validate_query` made
        from it on the event loop, so it is not parsed again here.
        Callable payloads are streaming window-update jobs
        (:meth:`repro.serve.stream.StreamSession.step` closures); they
        run directly on this worker thread, in batch order, sharing the
        per-topology single-flight pipeline with ordinary queries.
        """
        results: list = [None] * len(queries)
        positions, tasks = [], []
        for position, query in enumerate(queries):
            if callable(query):
                # Isolate stream-job failures: an exception from
                # run_batch would fail every co-batched query, so a bad
                # window must settle only its own submission.
                try:
                    results[position] = query()
                except Exception as exc:
                    results[position] = StepFailure(exc)
            else:
                positions.append(position)
                tasks.extend(query)
        if tasks:
            task_results = run_scenario_tasks(
                instance,
                tasks,
                config=None,
                options=self.options,
                workers=self.workers,
                cache=self.cache,
                registry=self.store.prep_registry,
            )
            for position, result in zip(positions, task_results):
                results[position] = result
        return results

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def shutdown(self) -> None:
        """Stop accepting, drain batchers (pending queries fail 503),
        then close every live connection and let its handler finish."""
        self._closing = True
        if self._server is not None:
            self._server.close()
        for entry in self.store.entries():
            await entry.batcher.close()
        # One loop turn lets handlers woken by the failed queries write
        # their 503s before the connections close under them.
        await asyncio.sleep(0)
        for writer in self._connections.values():
            writer.close()
        await asyncio.gather(*self._connections, return_exceptions=True)
        # Connections first: from Python 3.12.1 ``wait_closed`` also
        # waits for them.
        if self._server is not None:
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        at_capacity = len(self._connections) >= MAX_CONNECTIONS
        self._connections[task] = writer
        try:
            if at_capacity:
                raise _HttpError(
                    503,
                    f"the service already holds {MAX_CONNECTIONS} "
                    "connections; retry later",
                )
            while True:
                request_line = await _read_line(reader, 414, "request line")
                if not request_line:
                    break
                try:
                    method, raw_path, _version = (
                        request_line.decode("latin-1").split(None, 2)
                    )
                except ValueError:
                    await self._respond(
                        writer, 400, {"error": "malformed request line"}
                    )
                    break
                headers = await _read_headers(reader)
                if "transfer-encoding" in headers:
                    raise _HttpError(
                        501,
                        "Transfer-Encoding is not supported; "
                        "send the body with a Content-Length",
                    )
                # HTTP allows digits only; int() would also take "+10"
                # and "1_0".
                length = headers.get("content-length", "0")
                if not (length.isascii() and length.isdigit()):
                    raise _HttpError(400, "bad Content-Length")
                length = int(length)
                if length > MAX_BODY_BYTES:
                    await self._respond(
                        writer,
                        413,
                        {"error": f"body exceeds {MAX_BODY_BYTES} bytes"},
                    )
                    break
                body = await _read_body(reader, length) if length else b""
                path = raw_path.split("?", 1)[0]
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                try:
                    routed = await self._route(
                        method, path, body, writer=writer,
                        keep_alive=keep_alive,
                    )
                except _HttpError as exc:
                    routed = exc.status, {"error": str(exc)}
                except Exception as exc:  # engine/runner failure
                    routed = 500, {
                        "error": f"{type(exc).__name__}: {exc}"
                    }
                if routed is None:
                    # Streaming route: the response (chunked) was already
                    # written by the handler.
                    if not keep_alive:
                        break
                    continue
                status, payload = routed
                await self._respond(
                    writer, status, payload, keep_alive=keep_alive
                )
                if not keep_alive:
                    break
        except _HttpError as exc:
            # One connection too many, a request head too long to read
            # or that never completes, a body whose length cannot be
            # known, or a body that never arrives: answer once, then
            # close.
            # Closing with the rest of the request unread would reset
            # the connection, which can destroy the answer before the
            # peer reads it; so half-close and drain for a bounded time.
            try:
                await self._respond(writer, exc.status, {"error": str(exc)})
                writer.write_eof()
                await asyncio.wait_for(_discard(reader), _LINGER_SECONDS)
            except (
                asyncio.TimeoutError,
                ConnectionResetError,
                BrokenPipeError,
            ):
                pass
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            del self._connections[task]

    async def _respond(
        self, writer, status: int, payload: dict, *, keep_alive: bool = False
    ) -> None:
        data = json.dumps(payload).encode("utf-8")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            payload = parse_json(body)
        except ValueError as exc:  # JSONDecodeError is one
            raise _HttpError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "JSON body must be an object")
        return payload

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        *,
        writer=None,
        keep_alive: bool = False,
    ) -> tuple[int, dict] | None:
        if self._closing:
            raise _HttpError(503, "service is shutting down")
        parts = [part for part in path.split("/") if part]
        if path == "/health" and method == "GET":
            return 200, {
                "status": "ok",
                "topologies": len(self.store),
                "uptime_s": time.time() - self._started_at,
            }
        if path == "/stats" and method == "GET":
            return 200, self._stats()
        if path == "/topologies":
            if method == "GET":
                return 200, {
                    "topologies": [
                        entry.describe() for entry in self.store.entries()
                    ]
                }
            if method == "POST":
                return await self._load_topology(self._json_body(body))
            raise _HttpError(405, f"{method} not allowed on {path}")
        if len(parts) >= 2 and parts[0] == "topologies":
            fingerprint = parts[1]
            if len(parts) == 2 and method == "DELETE":
                entry = self.store.evict(fingerprint)
                if entry is None:
                    raise _HttpError(
                        404, f"no topology {fingerprint!r} loaded"
                    )
                await entry.batcher.close()
                return 200, {"evicted": fingerprint}
            if len(parts) == 3 and method == "POST":
                action = parts[2]
                kinds = {
                    "query": None,
                    "localize": "localization",
                    "identifiability": "identifiability",
                    "whatif": "whatif",
                }
                if action in kinds:
                    return await self._query(
                        fingerprint, self._json_body(body), kinds[action]
                    )
                if action == "stream":
                    return await self._stream(
                        fingerprint,
                        self._json_body(body),
                        writer,
                        keep_alive=keep_alive,
                    )
        raise _HttpError(404, f"no route for {method} {path}")

    def _stats(self) -> dict:
        return {
            "uptime_s": time.time() - self._started_at,
            "topologies": len(self.store),
            "max_topologies": self.store.max_topologies,
            "prep_registry": self.store.prep_registry.stats(),
            "batchers": {
                entry.fingerprint: dict(
                    entry.batcher.stats, pending=entry.batcher.pending
                )
                for entry in self.store.entries()
            },
        }

    async def _load_topology(self, payload: dict) -> tuple[int, dict]:
        loop = asyncio.get_running_loop()
        # Generation + prep warm-up can take seconds on big instances;
        # both run off the event loop so other connections stay served.
        entry, created = await loop.run_in_executor(
            None, self._generate_and_load, payload
        )
        return (201 if created else 200), entry.describe()

    def _generate_and_load(self, payload: dict):
        """Build the payload's instance and load it (executor thread)."""
        try:
            instance = instance_from_payload(payload)
        except (ValueError, KeyError, TypeError) as exc:
            raise _HttpError(400, f"bad topology payload: {exc}") from None
        try:
            return self.store.load(
                instance,
                name=payload.get("name"),
                make_batcher=self._make_batcher,
            )
        except StoreFull as exc:
            raise _HttpError(409, str(exc)) from None

    async def _query(
        self, fingerprint: str, query: dict, kind: str | None
    ) -> tuple[int, dict]:
        entry = self.store.get(fingerprint)
        if entry is None:
            raise _HttpError(404, f"no topology {fingerprint!r} loaded")
        if kind is not None:
            query = dict(query, kind=kind)
        try:
            # Reject bad queries before queueing — including what-if
            # demands that do not bind to this topology, which would
            # otherwise fail mid-batch and take co-batched queries down.
            tasks = validate_query(entry.instance, query)
        except ValueError as exc:
            raise _HttpError(400, str(exc)) from None
        try:
            result = await entry.batcher.submit(tasks)
        except BatcherFull as exc:
            raise _HttpError(429, str(exc)) from None
        except BatcherClosed as exc:
            raise _HttpError(503, str(exc)) from None
        entry.queries += 1
        return 200, {
            "fingerprint": fingerprint,
            "result": encode_vectors(result),
        }

    # ------------------------------------------------------------------
    # Streaming (/topologies/<fp>/stream)
    # ------------------------------------------------------------------
    async def _stream(
        self, fingerprint: str, payload: dict, writer, *, keep_alive: bool
    ) -> None:
        """Per-window verdict deltas over a chunked HTTP/1.1 response.

        The request body carries the whole window sequence; each window
        is submitted through the topology's batcher (keeping the
        single-flight ordering and 429 backpressure of ordinary
        queries), and its delta is written as one chunk as soon as the
        update completes.  The final chunk carries the full-history
        estimates, bit-identical to a batch inference over the
        concatenated windows.  Validation errors before the first
        window fail with ordinary status responses; failures mid-stream
        are reported as a terminal ``{"error": ...}`` line (the status
        line is already on the wire).
        """
        from repro.serve.stream import StreamSession

        entry = self.store.get(fingerprint)
        if entry is None:
            raise _HttpError(404, f"no topology {fingerprint!r} loaded")
        windows = payload.get("windows")
        if not isinstance(windows, list) or not windows:
            raise _HttpError(
                400, "'windows' must be a non-empty list of windows"
            )
        params = {
            "threshold": payload.get("threshold", 0.5),
            "max_window": payload.get("max_window"),
            "localize_last": payload.get("localize_last", False),
        }
        try:
            # Refused, never coerced: bool("no") is true, int(2.7) is 2.
            _check_number(params, "threshold", 0.0, 1.0)
            if params["max_window"] is not None:
                _check_integer(params, "max_window", 1, math.inf)
            if not isinstance(params["localize_last"], bool):
                raise ValueError(
                    "localize_last must be true or false, "
                    f"got {params['localize_last']!r}"
                )
            session = StreamSession(
                entry.instance,
                options=self.options,
                registry=self.store.prep_registry,
                **params,
            )
        except (TypeError, ValueError) as exc:
            raise _HttpError(400, f"bad stream parameters: {exc}") from None

        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        try:
            for rows in windows:
                delta = await entry.batcher.submit(
                    functools.partial(session.step, rows)
                )
                if isinstance(delta, StepFailure):
                    raise delta.error
                entry.queries += 1
                await self._write_chunk(writer, delta)
            await self._write_chunk(writer, {"final": session.final()})
        except (BatcherFull, BatcherClosed, ValueError) as exc:
            await self._write_chunk(writer, {"error": str(exc)})
        except Exception as exc:  # engine failure mid-stream
            await self._write_chunk(
                writer, {"error": f"{type(exc).__name__}: {exc}"}
            )
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return None

    @staticmethod
    async def _write_chunk(writer, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8") + b"\n"
        writer.write(f"{len(data):X}\r\n".encode("latin-1") + data + b"\r\n")
        await writer.drain()


async def _serve_until_signalled(service: TomographyService, banner) -> None:
    await service.start()
    if banner is not None:
        banner(service)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass
    try:
        await stop.wait()
    finally:
        await service.shutdown()


def serve_forever(service: TomographyService, *, banner=None) -> None:
    """Run *service* until SIGINT/SIGTERM, then shut down cleanly.

    ``banner(service)`` is invoked once the socket is bound — the CLI
    prints its machine-parseable "serving on host:port" line there.
    """
    asyncio.run(_serve_until_signalled(service, banner))
