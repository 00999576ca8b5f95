"""Workload ``serve_mixed``: mixed queries against the resident service.

A ``repro.cli serve --workers 1 --no-cache`` child with the default
batcher, loaded with the ``brite`` generator (40 ASes x 5 routers, 120
paths, seed 7).  Load comes from this process: a closed loop of
``N_CLIENTS`` keep-alive ``ServiceClient`` threads, each sending its
next query only when the previous answer is decoded.  Localization
queries (60 snapshots, 400 packets per path, 4 localized snapshots) and
16-flow exact what-if queries mix 3:1 in a seeded order; every query has
a fresh seed, and the demand payload is generated from the run's seed.

Correctness: every response must be byte-equal to in-process
``run_query`` for the same query, and the prep registry must report no
miss while under load.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
import threading
import time

from common import (
    CHILDREN,
    ROOT,
    Outcome,
    digest,
    median,
    program_env,
    run_program,
    work_dir,
)

GENERATOR = {
    "kind": "brite",
    "n_ases": 40,
    "routers_per_as": 5,
    "n_paths": 120,
    "seed": 7,
}
LOCALIZE = {
    "kind": "localization",
    "n_snapshots": 60,
    "packets_per_path": 400,
    "loc_snapshots": 4,
}
WHATIF = {"kind": "whatif", "n_snapshots": 60, "packets_per_path": 400}
N_CLIENTS = 2
#: Query list length; each of the run's servers takes its own fifth,
#: far more than it answers.
N_QUERIES = 12_000
#: Traced leg: queries replayed one at a time for the service overhead.
SINGLE_PASS = 40
BANNER_TIMEOUT_S = 60.0
CLIENT_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def make_demand(rng) -> dict:
    """The what-if benchmark's full demand shape: 16 flows with two-path
    ECMP splits over a 6-path pool, capacity 4.5 everywhere."""
    flows = []
    for index in range(16):
        split = sorted(int(p) for p in rng.choice(6, size=2, replace=False))
        rate = float(rng.choice([0.6, 1.0, 1.4]))
        flows.append({"name": f"f{index}", "rate": rate, "paths": split})
    return {"flows": flows, "capacities": {"default": 4.5}}


def make_queries(seed: int, n: int = N_QUERIES) -> tuple[list, list]:
    """``(queries, warmup)``: 3 localizations + 1 what-if per block of
    four, shuffled; query seeds are all distinct."""
    import numpy as np

    rng = np.random.default_rng(seed)
    demand = make_demand(rng)
    base = int(rng.integers(2, 2**30))

    def query(kind: str, query_seed: int) -> dict:
        if kind == "localization":
            return dict(LOCALIZE, seed=query_seed)
        return dict(WHATIF, demand=demand, seed=query_seed)

    queries = []
    for _ in range(n // 4):
        kinds = ["localization"] * 3 + ["whatif"]
        rng.shuffle(kinds)
        queries.extend(query(kind, base + len(queries)) for kind in kinds)
    warmup = [query("localization", base - 1), query("whatif", base - 2)]
    return queries, warmup


# ----------------------------------------------------------------------
# The service child
# ----------------------------------------------------------------------
class Server:
    """One ``serve`` child: started, loaded and warmed by :meth:`start`."""

    def __init__(self) -> None:
        self.process = None
        self.port = 0
        self.fingerprint = ""
        self._drain = None

    def start(self, warmup: list) -> float:
        """Spawn, load, warm up; returns set-up seconds."""
        from repro.serve.client import ServiceClient

        launched = time.monotonic()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--workers", "1", "--no-cache",
            ],
            cwd=ROOT,
            env=program_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], BANNER_TIMEOUT_S)
        banner = self.process.stdout.readline().strip() if ready else ""
        if not banner.startswith("serving on "):
            raise RuntimeError(f"service did not start (banner {banner!r})")
        self.port = int(banner.rsplit(":", 1)[1])
        # Keep the pipe drained so the child can never block on stdout.
        self._drain = threading.Thread(
            target=self.process.stdout.read, daemon=True
        )
        self._drain.start()
        with ServiceClient(port=self.port, timeout=CLIENT_TIMEOUT_S) as client:
            self.fingerprint = client.load_topology(generator=GENERATOR)
            for query in warmup:
                client.query(self.fingerprint, query)
        return time.monotonic() - launched

    def stats(self) -> dict:
        from repro.serve.client import ServiceClient

        with ServiceClient(port=self.port, timeout=CLIENT_TIMEOUT_S) as client:
            stats = client.stats()
        batcher = stats["batchers"][self.fingerprint]
        return {
            "batches": batcher["batches"],
            "queries": batcher["queries"],
            "shed": batcher["shed"],
            "prep_hits": stats["prep_registry"]["hits"],
            "prep_misses": stats["prep_registry"]["misses"],
        }

    def peak_rss_kb(self) -> int:
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("no VmHWM in the service's /proc status")

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self._drain is not None:
            self._drain.join(timeout=15)
        self.process.stdout.close()
        self.process = None


def closed_loop(server: Server, queries: list, indices, seconds: float, clients: int):
    """Closed-loop load over ``queries[i] for i in indices``; returns
    ``(records, wall_s)``.

    A record is ``(index, latency_s, vectors | None, error | None)``,
    timed from send to decoded response.
    """
    from repro.serve.client import ServiceClient

    lock = threading.Lock()
    cursor = iter(indices)
    records = []
    deadline = time.monotonic() + seconds

    def client_loop():
        with ServiceClient(port=server.port, timeout=CLIENT_TIMEOUT_S) as client:
            while time.monotonic() < deadline:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                start = time.perf_counter()
                try:
                    vectors = client.query(server.fingerprint, queries[index])
                    error = None
                except Exception as exc:  # non-2xx, timeout, transport
                    vectors, error = None, repr(exc)
                elapsed = time.perf_counter() - start
                with lock:
                    records.append((index, elapsed, vectors, error))

    threads = [threading.Thread(target=client_loop) for _ in range(clients)]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 2 * CLIENT_TIMEOUT_S)
    wall = time.perf_counter() - wall_start
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load client did not finish")
    records.sort(key=lambda record: record[0])
    return records, wall


def check_responses(outcome: Outcome, records, queries, warmup, wrong: bool) -> dict:
    """Byte-compare every answer with in-process ``run_query``.

    Returns the in-process time of each checked query, by index.
    """
    from repro.core.prepared import PreparedRegistry
    from repro.serve.queries import run_query
    from repro.serve.registry import instance_from_payload

    instance = instance_from_payload({"generator": GENERATOR})
    registry = PreparedRegistry()
    for query in warmup:
        run_query(instance, query, workers=1, registry=registry)
    inproc = {}
    for position, (index, _, vectors, error) in enumerate(records):
        outcome.attempted += 1
        if error is not None:
            outcome.fail(f"query {index}: {error}")
            continue
        start = time.perf_counter()
        reference = run_query(instance, queries[index], workers=1, registry=registry)
        inproc[index] = time.perf_counter() - start
        answer = digest(vectors)
        if wrong and position == 0:  # self-test: corrupt one answer
            answer = digest({"corrupted": next(iter(vectors.values())) + 1.0})
        if answer != digest(reference):
            outcome.fail(f"query {index}: response differs from in-process run_query")
    return inproc


def _kind_latencies(records, queries) -> dict:
    by_kind = {"localization": [], "whatif": []}
    for index, latency, _, _ in records:
        by_kind[queries[index]["kind"]].append(latency)
    return by_kind


def _stats_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in before}


def _check_stats(outcome: Outcome, delta: dict) -> None:
    if delta["prep_misses"]:
        outcome.fail(f"prep registry missed {delta['prep_misses']} times under load")


def run(args) -> Outcome:
    queries, warmup = make_queries(args.seed)
    outcome = Outcome()
    if args.trace:
        return _run_traced(args, queries, warmup, outcome)
    # One server per child, each measured for its share of the run, as
    # the in-process workloads split theirs (see common.run_children).
    block = len(queries) // CHILDREN
    setup_s, records, wall, rss_kb = [], [], 0.0, 0
    for child in range(CHILDREN):
        server = Server()
        try:
            setup_s.append(server.start(warmup))
            before = server.stats()
            part, part_wall = closed_loop(
                server,
                queries,
                range(child * block, (child + 1) * block),
                args.seconds / CHILDREN,
                N_CLIENTS,
            )
            _check_stats(outcome, _stats_delta(before, server.stats()))
            rss_kb = max(rss_kb, server.peak_rss_kb())
        finally:
            server.stop()
        records += part
        wall += part_wall
    check_responses(outcome, records, queries, warmup, args.inject_wrong_answer)
    outcome.add_end_to_end(setup_s, rss_kb, [r[1] for r in records], wall)
    by_kind = _kind_latencies(records, queries)
    for kind, name in (("localization", "localize_p50_ms"), ("whatif", "whatif_p50_ms")):
        if by_kind[kind]:
            outcome.note(name, median(by_kind[kind]) * 1e3, "ms", len(by_kind[kind]))
    return outcome


# ----------------------------------------------------------------------
# Traced leg
# ----------------------------------------------------------------------
def traced(spec: dict) -> dict:
    """In-process traced replay of the answered queries (program side)."""
    from tracing import Tracer, install

    tracer = Tracer()
    with tracer.span("startup.import"):
        import repro.cli  # noqa: F401
    from common import timed_ops
    from repro.core.prepared import PreparedRegistry
    from repro.serve.queries import run_query
    from repro.serve.registry import instance_from_payload

    install(tracer)
    with tracer.span("topogen.generate"):
        instance = instance_from_payload({"generator": GENERATOR})
    registry = PreparedRegistry()
    registry.get_or_build(instance.topology, instance.correlation)

    def step(index, query):
        tracer.op = index
        with tracer.span("serve.run_query"):
            return run_query(instance, query, workers=1, registry=registry)

    latencies, outputs, failures, _ = timed_ops(spec["queries"], step)
    tracer.write(spec["spans_path"])
    return {
        "latencies": latencies,
        "failures": failures,
        "digests": [digest(vectors) for vectors in outputs],
    }


def _codec_ms(records) -> list:
    """Encode -> JSON -> parse -> decode of real responses, per response."""
    from repro.serve.queries import decode_vectors, encode_vectors

    times = []
    for _, _, vectors, _ in records:
        if vectors is None:
            continue
        start = time.perf_counter()
        wire = json.dumps({"result": encode_vectors(vectors)})
        decode_vectors(json.loads(wire)["result"])
        times.append((time.perf_counter() - start) * 1e3)
    return times


def _run_traced(args, queries, warmup, outcome: Outcome) -> Outcome:
    from tracing import durations, layer_metrics, read_spans

    server = Server()
    try:
        server.start(warmup)
        before = server.stats()
        records, _ = closed_loop(
            server, queries, range(len(queries)), args.seconds / 2.0, N_CLIENTS
        )
        delta = _stats_delta(before, server.stats())
        single, _ = closed_loop(server, queries, range(SINGLE_PASS), 600.0, 1)
    finally:
        server.stop()
    inproc = check_responses(
        outcome, records + single, queries, warmup, args.inject_wrong_answer
    )
    _check_stats(outcome, delta)

    answered = [record for record in records if record[2] is not None]
    directory = work_dir("serve")
    spans_path = directory.parent / f"spans-serve_mixed-seed{args.seed}.jsonl"
    replay, _ = run_program(
        {
            "module": "serve_mixed",
            "entry": "traced",
            "queries": [queries[record[0]] for record in answered],
            "spans_path": str(spans_path),
        },
        directory,
        "traced",
    )
    if replay["digests"] != [digest(record[2]) for record in answered]:
        outcome.fail("traced replay is not byte-identical to the service's answers")

    spans = read_spans(spans_path)
    metrics = layer_metrics(spans)
    traced_ops = list(durations(spans, "serve.run_query").values())
    metrics["trace.overhead_pct"] = (
        (median(traced_ops) / median([inproc[r[0]] for r in answered]) - 1.0) * 100.0,
        len(traced_ops),
    )
    for kind, name in (
        ("localization", "serve.localize_overhead_ms"),
        ("whatif", "serve.whatif_overhead_ms"),
    ):
        gaps = [
            (latency - inproc[index]) * 1e3
            for index, latency, vectors, _ in single
            if vectors is not None and queries[index]["kind"] == kind
        ]
        if gaps:
            metrics[name] = (median(gaps), len(gaps))
    codec = _codec_ms(records)
    metrics["serve.codec_ms"] = (median(codec), len(codec))
    metrics["serve.batches"] = (delta["batches"], 1)
    metrics["serve.batch_size_mean"] = (delta["queries"] / max(delta["batches"], 1), 1)
    metrics["serve.shed"] = (delta["shed"], 1)
    metrics["serve.prep_hits"] = (delta["prep_hits"], 1)
    metrics["serve.prep_misses"] = (delta["prep_misses"], 1)
    outcome.layers = metrics
    outcome.spans_path = spans_path
    return outcome
