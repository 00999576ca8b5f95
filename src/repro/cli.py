"""Command-line interface: regenerate the paper's experiments.

Examples::

    repro-tomography demo
    repro-tomography figure3 --scale small --seed 0
    repro-tomography figure3-cdf --level loose
    repro-tomography figure4 --topology planetlab --fraction 0.5
    repro-tomography figure5 --topology brite --fraction 0.25
    repro-tomography figure3 --cache-dir ~/.repro-cache --cache-stats
    repro-tomography stream --simulate --n-windows 10 --window-size 40
    repro-tomography --version

``stream`` drives the incremental windowed engine
(:mod:`repro.core.streaming`) over probe windows read from a JSONL
file/stdin or generated on the fly (``--simulate``, optionally with a
scripted ``--events`` timeline).  Each window prints one verdict-delta
line (onsets/clears vs the previous window); the last line is the
full-history result, bit-identical to ``--mode batch`` — one cold
inference over the same concatenated snapshots — so

    diff <(repro-tomography stream ... | tail -n 1) \\
         <(repro-tomography stream ... --mode batch)

is the streaming correctness check.

Every figure subcommand prints the same rows/series the paper plots.

Figure commands support the persistent trial-result cache
(:mod:`repro.eval.cache`):

* ``--cache-dir PATH`` — store/load per-trial results under ``PATH``;
  repeated invocations (and overlapping sweeps sharing the store) only
  compute trials they have not seen.  The ``REPRO_CACHE_DIR``
  environment variable supplies a default.
* ``--no-cache`` — disable caching even when ``REPRO_CACHE_DIR`` is set.
* ``--cache-stats`` — print the hit/miss/store line after the run.

Caching never changes figure data: cached and recomputed runs are
bit-identical at a fixed seed.

``--workers`` defaults to the ``REPRO_WORKERS`` environment variable
(``1`` = serial, ``0`` = one worker per CPU core), falling back to
serial when unset.

Figure commands also pick an execution backend
(:mod:`repro.eval.dist`):

* ``--backend {serial,local,remote}`` — serial in-process execution, a
  process pool on this host, or a coordinator fanning chunks out to
  workers on other machines.  Defaults to serial/local based on
  ``--workers``; ``--hosts`` or ``--launch`` alone implies ``remote``.
* ``--hosts [user@]a:7100,b:7100`` — worker endpoints for the remote
  backend (the ``REPRO_HOSTS`` environment variable supplies a
  default).  Workers are started by hand, by CI, over SSH, or — see
  ``--launch`` — by the coordinator itself::

      ssh host repro-tomography worker --bind 0.0.0.0 --port 7100

* ``--launch {local,ssh}`` — the coordinator launches its own workers
  and tears them down when the sweep ends (even on failure; a killed
  coordinator takes its workers with it via a stdin lifeline).
  ``local`` spawns ``--launch-workers`` subprocesses on this host
  (single-host fan-out, no hand-starting); ``ssh`` runs one worker per
  ``--hosts`` entry over SSH.  ``--launch-capacity`` sets the
  capacities the launched workers advertise.

Workers advertise a *capacity* (parallel chunk slots, CPU count by
default for the CLI worker; ``--capacity`` overrides) during the
protocol handshake, and the coordinator sizes each worker's chunk
pipeline proportionally, so a fast 8-core box pulls more of the sweep
than a 2-core one instead of the slowest host gating every figure.

Every backend is bit-identical to the serial run at a fixed seed; a
worker that dies mid-sweep only costs the chunks it was computing (the
coordinator requeues them on the survivors).

The wire: coordinators and workers speak one protocol version (JSON
frame headers and a schema'd binary codec for the payloads) and refuse
peers of any other version with one clean error; every session, local
or remote, carries its payloads on its own socket.

Fault tolerance (remote backend): connects retry with jittered
exponential backoff (``--connect-attempts``); hung-but-connected
workers are detected by heartbeat (``--heartbeat-interval``) or a hard
per-chunk budget (``--chunk-deadline``) and their chunks requeued; and
``--on-fleet-loss serial`` finishes a sweep in-process when every
worker is gone.  ``--journal PATH`` appends each settled chunk to a
crash-safe journal so a coordinator killed mid-sweep completes with
``--resume`` without recomputing settled work; ``--dist-stats`` prints
the sweep's fault counters.  None of this changes figure data — every
recovery path is bit-identical at a fixed seed.

``repro-tomography worker`` runs one worker process: it listens for a
coordinator, receives the instance/config once per sweep, and serves
task chunks.  Give workers a shared ``--cache-dir`` (e.g. on NFS) and
they serve cache hits without compute and persist misses as chunks
complete.

Wire security (both the ``worker`` and the figure commands):

* ``--secret-file PATH`` (or ``REPRO_DIST_SECRET``) arms the
  shared-secret handshake: every connection must prove knowledge of
  the token (HMAC challenge/response, mutual, replay-proof) before any
  payload byte is read, and unauthenticated peers are refused with a
  clean error.  There is deliberately no ``--secret VALUE`` flag —
  argv is world-readable.  Workers launched over SSH read the token
  from stdin (``--secret-stdin``).
* ``--tls-cert/--tls-key/--tls-ca`` (or ``REPRO_DIST_TLS_*``) wrap the
  wire in TLS: workers serve their cert/key (``--tls-ca`` on a worker
  additionally demands client certificates), coordinators verify
  workers against ``--tls-ca``.  ``repro.eval.dist.certs.
  generate_self_signed()`` mints a development/CI cert whose
  ``cert.pem`` doubles as the CA file.

Security never changes figure data: secured sweeps stay bit-identical
to serial runs at a fixed seed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro.eval.dist.journal import JournalError
from repro.exceptions import DistSecurityError

__all__ = ["main", "build_parser"]


def _version_string() -> str:
    """Package, wire-protocol, and journal-format versions in one line.

    Operators match fleets by these: a worker refuses a coordinator
    of another wire protocol version, and ``--resume`` refuses
    journals written by a different journal format.
    """
    from repro import __version__
    from repro.eval.dist.journal import JOURNAL_VERSION, MAGIC
    from repro.eval.dist.protocol import PROTOCOL_VERSION

    return (
        f"repro-tomography {__version__} "
        f"(wire protocol v{PROTOCOL_VERSION}, "
        f"journal format v{JOURNAL_VERSION} [{MAGIC.decode('ascii')}])"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tomography",
        description=(
            "Reproduction of 'Network Tomography on Correlated Links' "
            "(Ghita, Argyraki, Thiran - IMC 2010)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="top-level RNG seed"
    )
    parser.add_argument(
        "--version",
        action="version",
        version=_version_string(),
        help="print package, wire-protocol, and journal-format versions",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser(
        "demo", help="run the Figure-1(a) worked example end to end"
    )
    demo.add_argument(
        "--snapshots", type=int, default=4000, help="simulated rounds"
    )

    fig3 = commands.add_parser(
        "figure3", help="Figures 3(a,b): error vs congested fraction"
    )
    _common_figure_arguments(fig3)
    _workers_argument(fig3)

    fig3cdf = commands.add_parser(
        "figure3-cdf", help="Figures 3(c,d): error CDF at 10%% congestion"
    )
    _common_figure_arguments(fig3cdf)
    _workers_argument(fig3cdf)
    fig3cdf.add_argument(
        "--level",
        choices=("high", "loose"),
        default="high",
        help="correlation level (3(c)=high, 3(d)=loose)",
    )

    fig4 = commands.add_parser(
        "figure4", help="Figure 4: unidentifiable links"
    )
    _common_figure_arguments(fig4)
    _workers_argument(fig4)
    fig4.add_argument(
        "--topology", choices=("brite", "planetlab"), default="brite"
    )
    fig4.add_argument(
        "--fraction",
        type=float,
        default=0.25,
        help="fraction of congested links that are unidentifiable",
    )

    fig5 = commands.add_parser(
        "figure5", help="Figure 5: mislabeled links (unknown patterns)"
    )
    _common_figure_arguments(fig5)
    _workers_argument(fig5)
    fig5.add_argument(
        "--topology", choices=("brite", "planetlab"), default="brite"
    )
    fig5.add_argument(
        "--fraction",
        type=float,
        default=0.25,
        help="fraction of congested links targeted by the hidden flood",
    )

    worker = commands.add_parser(
        "worker",
        help=(
            "run a distributed-sweep worker: listen for a coordinator "
            "(a figure command with --backend remote) and serve task "
            "chunks"
        ),
    )
    worker.add_argument(
        "--bind",
        default="127.0.0.1",
        metavar="HOST",
        help=(
            "interface to listen on (default loopback; use a private "
            "interface on trusted clusters — an unsecured worker runs "
            "sweeps for anyone who connects, so secure the wire with "
            "--secret-file/TLS before it faces untrusted networks)"
        ),
    )
    worker.add_argument(
        "--port",
        type=_port_number,
        default=0,
        help="TCP port (default 0 = ephemeral, printed on startup)",
    )
    worker.add_argument(
        "--capacity",
        type=_worker_capacity,
        default=0,
        metavar="N",
        help=(
            "parallel chunk slots advertised to the coordinator; "
            "chunks execute on a process pool of this size "
            "(default 0 = one slot per CPU core)"
        ),
    )
    worker.add_argument(
        "--exit-on-stdin-close",
        action="store_true",
        help=(
            "exit when stdin reaches EOF — launchers hold a pipe to "
            "the worker as a lifeline, so a dead coordinator (even "
            "SIGKILLed) takes its autolaunched workers with it"
        ),
    )
    worker.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help=(
            "trial cache consulted before executing and written back "
            "as tasks complete (default: REPRO_CACHE_DIR, else off); "
            "point every worker at one shared store to share results"
        ),
    )
    worker.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the trial cache even if REPRO_CACHE_DIR is set",
    )
    worker.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        metavar="N",
        help="exit after serving N coordinator sessions (default: serve "
        "forever)",
    )
    worker.add_argument(
        "--fail-after-chunks",
        type=int,
        default=None,
        metavar="N",
        help=argparse.SUPPRESS,  # fault-injection hook for tests/benchmarks
    )
    worker.add_argument(
        "--throttle",
        type=_throttle_seconds,
        default=0.0,
        metavar="SECONDS",
        help=argparse.SUPPRESS,  # latency-injection hook for benchmarks
    )
    worker.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help=(
            "chaos-injection plan for this worker process, e.g. "
            "'frame-corrupt:type=result:nth=2,worker-kill:chunk=5' "
            "(default: the REPRO_CHAOS env var, else off); see "
            "repro.eval.dist.faults for the fault vocabulary — every "
            "fault is detected or fatal, never silently wrong results"
        ),
    )
    _add_security_arguments(worker, role="worker")
    worker.add_argument(
        "--secret-stdin",
        action="store_true",
        help=(
            "read the shared secret as the first line of stdin — how "
            "SSH launchers deliver the token without exposing it on "
            "any command line"
        ),
    )

    tomographer = commands.add_parser(
        "tomographer",
        help=(
            "the paper's 'Ongoing Work': uncorrelated vs correlated "
            "tomographer variants under indirect validation"
        ),
    )
    _common_figure_arguments(tomographer)
    tomographer.add_argument(
        "--topology", choices=("brite", "planetlab"), default="planetlab"
    )

    serve = commands.add_parser(
        "serve",
        help=(
            "run the resident tomography service: load topologies once, "
            "answer localization/identifiability queries over HTTP with "
            "warm equation prep and per-topology request batching"
        ),
    )
    serve.add_argument(
        "--bind",
        default="127.0.0.1",
        metavar="HOST",
        help="interface to listen on (default loopback)",
    )
    serve.add_argument(
        "--port",
        type=_port_number,
        default=0,
        help="TCP port (default 0 = ephemeral, printed on startup)",
    )
    serve.add_argument(
        "--max-topologies",
        type=_numeric_flag("max-topologies", int, minimum=1, hint=">= 1"),
        default=4,
        metavar="N",
        help="topology-store capacity (loads beyond it return 409)",
    )
    serve.add_argument(
        "--workers",
        type=_worker_count,
        default=1,
        help=(
            "engine workers per query batch (1 = in-process serial, "
            "0 = one per CPU core via a local pool)"
        ),
    )
    serve.add_argument(
        "--batch-max",
        type=_numeric_flag("batch-max", int, minimum=1, hint=">= 1"),
        default=8,
        metavar="N",
        help="largest coalesced query batch per topology",
    )
    serve.add_argument(
        "--max-pending",
        type=_numeric_flag("max-pending", int, minimum=1, hint=">= 1"),
        default=64,
        metavar="N",
        help=(
            "bounded per-topology queue; submissions beyond it are shed "
            "with 429 (backpressure)"
        ),
    )
    serve.add_argument(
        "--preload",
        action="append",
        default=None,
        metavar="JSON",
        help=(
            "generator spec to load before accepting traffic, e.g. "
            "\'{\"kind\": \"brite\", \"n_ases\": 40, \"seed\": 7}\' "
            "(repeatable)"
        ),
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help=(
            "trial cache shared with batch runs (default: REPRO_CACHE_DIR, "
            "else off); repeated identical queries then load from disk"
        ),
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the trial cache even if REPRO_CACHE_DIR is set",
    )

    localize = commands.add_parser(
        "localize",
        help=(
            "run one localization/identifiability query as a cold batch "
            "job and print its canonical JSON result — the reference the "
            "service must match bit for bit"
        ),
    )
    _instance_arguments(localize)
    localize.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="query seed (overrides the top-level --seed)",
    )
    localize.add_argument(
        "--kind",
        choices=("localization", "identifiability"),
        default="localization",
    )
    localize.add_argument(
        "--congested-fraction", type=float, default=0.10
    )
    localize.add_argument(
        "--per-set-range",
        choices=("high", "loose"),
        default="high",
        help="congestion clustering preset (Figure-3 vocabulary)",
    )
    localize.add_argument(
        "--n-snapshots", type=int, default=120, help="simulated rounds"
    )
    localize.add_argument(
        "--packets-per-path",
        type=int,
        default=400,
        help="probe budget per path per round (0 = infinite traffic)",
    )
    localize.add_argument(
        "--loc-snapshots",
        type=int,
        default=8,
        help="snapshots localized and scored",
    )
    localize.add_argument(
        "--max-nodes",
        type=int,
        default=20_000,
        help="branch-and-bound budget per snapshot",
    )
    localize.add_argument(
        "--max-subset-size",
        type=int,
        default=2,
        help="identifiability queries: subset enumeration bound",
    )
    localize.add_argument(
        "--workers",
        type=_worker_count,
        default=None,
        help="engine workers (1 = serial; default REPRO_WORKERS)",
    )
    localize.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="trial cache (default: REPRO_CACHE_DIR, else off)",
    )
    localize.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the trial cache even if REPRO_CACHE_DIR is set",
    )

    stream = commands.add_parser(
        "stream",
        help=(
            "run the incremental windowed estimator over a stream of "
            "probe windows (JSONL file, stdin, or a simulated stream); "
            "prints one verdict-delta line per window, then the "
            "full-history final line — bit-identical to --mode batch "
            "over the same snapshots"
        ),
    )
    _instance_arguments(stream)
    source = stream.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--windows",
        default=None,
        metavar="PATH",
        help=(
            "JSONL window source: one window per line, each a "
            "snapshot × path matrix of 0/1 path verdicts ('-' = stdin)"
        ),
    )
    source.add_argument(
        "--simulate",
        action="store_true",
        help=(
            "generate the window stream instead of reading it: a "
            "clustered congestion scenario driven through "
            "SnapshotStream (see --n-windows/--window-size/--events)"
        ),
    )
    stream.add_argument(
        "--mode",
        choices=("incremental", "batch"),
        default="incremental",
        help=(
            "incremental = per-window updates through the streaming "
            "engine; batch = one cold inference over the concatenated "
            "windows; both print the identical final line"
        ),
    )
    stream.add_argument(
        "--threshold",
        type=_numeric_flag(
            "threshold", float, minimum=0.0, maximum=1.0, hint="in [0, 1]"
        ),
        default=0.5,
        help="congestion-probability verdict threshold",
    )
    stream.add_argument(
        "--max-window",
        type=_numeric_flag("max-window", int, minimum=1, hint=">= 1"),
        default=None,
        metavar="N",
        help=(
            "incremental only: bound the sliding window to the last N "
            "snapshots (older rows are evicted; the final line then "
            "covers the surviving rows, not full history)"
        ),
    )
    stream.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-window delta lines; print only the final line",
    )
    stream.add_argument(
        "--n-windows",
        type=_numeric_flag("n-windows", int, minimum=1, hint=">= 1"),
        default=10,
        metavar="N",
        help="--simulate: windows to generate",
    )
    stream.add_argument(
        "--window-size",
        type=_numeric_flag("window-size", int, minimum=1, hint=">= 1"),
        default=50,
        metavar="N",
        help="--simulate: snapshots per window (the probe rate)",
    )
    stream.add_argument(
        "--packets-per-path",
        type=int,
        default=400,
        help=(
            "--simulate: probe budget per path per snapshot "
            "(0 = infinite traffic)"
        ),
    )
    stream.add_argument(
        "--congested-fraction",
        type=float,
        default=0.10,
        help="--simulate: fraction of links congested in the scenario",
    )
    stream.add_argument(
        "--per-set-range",
        choices=("high", "loose"),
        default="high",
        help="--simulate: congestion clustering preset",
    )
    stream.add_argument(
        "--events",
        default=None,
        metavar="JSON",
        help=(
            "--simulate: scripted link-state timeline, e.g. "
            "'[{\"kind\": \"onset\", \"at\": 100, \"links\": [3]}]' "
            "(kinds: onset, clear, flap)"
        ),
    )
    stream.add_argument(
        "--save-windows",
        default=None,
        metavar="PATH",
        help="also write the consumed windows as JSONL (for replay)",
    )

    predict = commands.add_parser(
        "predict",
        help=(
            "what-if forecast: infer current link state from simulated "
            "probe observations, then rank links by congestion risk "
            "under named demand shifts (JSON demand-matrix file) — the "
            "batch reference the service /whatif endpoint must match "
            "bit for bit"
        ),
    )
    _instance_arguments(predict)
    predict.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="query seed (overrides the top-level --seed)",
    )
    predict.add_argument(
        "--demand",
        required=True,
        metavar="PATH",
        help=(
            "demand-matrix JSON file ('-' = stdin): flows (rate plus "
            "src/dst endpoints or an explicit ECMP 'paths' split set), "
            "link capacities, and optional named shifts"
        ),
    )
    predict.add_argument(
        "--shift",
        action="append",
        default=None,
        metavar="NAME:SCALE",
        help=(
            "override a named shift's global scale, or add a new "
            "uniform shift (repeatable), e.g. --shift surge:1.5"
        ),
    )
    predict.add_argument(
        "--congested-fraction",
        type=float,
        default=0.10,
        help="simulated scenario: fraction of links congested",
    )
    predict.add_argument(
        "--per-set-range",
        choices=("high", "loose"),
        default="high",
        help="congestion clustering preset (Figure-3 vocabulary)",
    )
    predict.add_argument(
        "--n-snapshots",
        type=int,
        default=120,
        help="simulated probe rounds feeding the inference step",
    )
    predict.add_argument(
        "--packets-per-path",
        type=int,
        default=400,
        help="probe budget per path per round (0 = infinite traffic)",
    )
    predict.add_argument(
        "--utilization-threshold",
        type=_numeric_flag(
            "utilization-threshold",
            float,
            minimum=1e-9,
            hint="> 0",
        ),
        default=0.85,
        help="a link congests when load exceeds this fraction of capacity",
    )
    predict.add_argument(
        "--exact-max-flows",
        type=_numeric_flag("exact-max-flows", int, minimum=0, hint=">= 0"),
        default=16,
        help=(
            "largest flow set forecast by exact memoized enumeration; "
            "bigger demands fall back to seeded Monte Carlo"
        ),
    )
    predict.add_argument(
        "--mc-samples",
        type=_numeric_flag("mc-samples", int, minimum=1, hint=">= 1"),
        default=20_000,
        help="Monte Carlo fallback sample count",
    )
    predict.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help=(
            "table = ranked links per shift; json = the canonical "
            "result document (byte-comparable to the service answer)"
        ),
    )
    predict.add_argument(
        "--top",
        type=_numeric_flag("top", int, minimum=1, hint=">= 1"),
        default=10,
        metavar="N",
        help="table rows per shift",
    )
    predict.add_argument(
        "--workers",
        type=_worker_count,
        default=None,
        help="engine workers (1 = serial; default REPRO_WORKERS)",
    )
    predict.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="trial cache (default: REPRO_CACHE_DIR, else off)",
    )
    predict.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the trial cache even if REPRO_CACHE_DIR is set",
    )
    return parser


def _instance_arguments(parser: argparse.ArgumentParser) -> None:
    """Instance-selection flags shared by ``localize`` and ``stream``."""
    parser.add_argument(
        "--topology", choices=("brite", "planetlab"), default="brite"
    )
    parser.add_argument(
        "--scale",
        choices=("small", "medium", "paper"),
        default="small",
        help="instance size preset",
    )
    parser.add_argument(
        "--instance-seed",
        type=int,
        default=0,
        help="seed of the generated instance (not of the query/stream)",
    )
    parser.add_argument(
        "--generator",
        default=None,
        metavar="JSON",
        help=(
            "explicit generator spec overriding --topology/--scale/"
            "--instance-seed; the same JSON a service client posts, so "
            "both sides provably query the identical instance"
        ),
    )


def _numeric_flag(name, parse, *, minimum=None, maximum=None, hint):
    """Build an argparse validator for a bounded numeric flag."""

    def validate(text: str):
        try:
            value = parse(text)
        except ValueError:
            kind = "an integer" if parse is int else "a number"
            raise argparse.ArgumentTypeError(
                f"{name} must be {kind}, got {text!r}"
            ) from None
        if (minimum is not None and value < minimum) or (
            maximum is not None and value > maximum
        ):
            raise argparse.ArgumentTypeError(
                f"{name} must be {hint}, got {value}"
            )
        return value

    return validate


_worker_count = _numeric_flag(
    "workers", int, minimum=0, hint=">= 0 (0 = one per CPU core)"
)
_port_number = _numeric_flag(
    "port",
    int,
    minimum=0,
    maximum=65535,
    hint="in [0, 65535] (0 = ephemeral)",
)
_worker_capacity = _numeric_flag(
    "capacity", int, minimum=0, hint=">= 0 (0 = one slot per CPU core)"
)
_throttle_seconds = _numeric_flag(
    "throttle", float, minimum=0, hint=">= 0 seconds"
)
_heartbeat_seconds = _numeric_flag(
    "heartbeat-interval",
    float,
    minimum=0,
    hint=">= 0 seconds (0 = disabled)",
)
_deadline_seconds = _numeric_flag(
    "chunk-deadline",
    float,
    minimum=0,
    hint=">= 0 seconds (0 = no deadline)",
)
_connect_attempts = _numeric_flag(
    "connect-attempts", int, minimum=1, hint=">= 1"
)


def _common_figure_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=("small", "medium", "paper"),
        default="small",
        help="instance/simulation size preset",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=1,
        help="experiments pooled per data point",
    )


def _workers_argument(parser: argparse.ArgumentParser) -> None:
    """Only figure commands fan out through the scenario engine; the
    tomographer runs one fixed pair of experiments."""
    parser.add_argument(
        "--workers",
        type=_worker_count,
        default=None,
        help=(
            "worker processes for the scenario fan-out "
            "(1 = serial, 0 = one per CPU core; default: the "
            "REPRO_WORKERS env var, else serial); any value reproduces "
            "the serial results exactly for a given seed"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help=(
            "persistent trial-result cache directory (default: the "
            "REPRO_CACHE_DIR env var, else caching off); repeated runs "
            "only compute trials not already stored"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the trial cache even if REPRO_CACHE_DIR is set",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print cache hit/miss/store counts after the run",
    )
    parser.add_argument(
        "--backend",
        choices=("serial", "local", "remote"),
        default=None,
        help=(
            "execution backend (default: serial or local per --workers; "
            "--hosts implies remote); all backends produce bit-identical "
            "figures at a fixed seed"
        ),
    )
    parser.add_argument(
        "--hosts",
        default=None,
        metavar="[USER@]HOST:PORT[,...]",
        help=(
            "worker endpoints for the remote backend, e.g. "
            "'a:7100,b:7100' (default: the REPRO_HOSTS env var); start "
            "workers with the 'worker' subcommand or let the "
            "coordinator start them with --launch ssh"
        ),
    )
    parser.add_argument(
        "--straggler-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "remote backend only: speculatively re-run a chunk "
            "outstanding longer than this on an idle worker (first "
            "result wins; results unchanged)"
        ),
    )
    parser.add_argument(
        "--launch",
        choices=("local", "ssh"),
        default=None,
        help=(
            "remote backend only: autolaunch the workers and tear them "
            "down when the sweep ends — 'local' spawns "
            "--launch-workers subprocesses on this host, 'ssh' runs "
            "one worker per --hosts entry over SSH"
        ),
    )
    parser.add_argument(
        "--launch-workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "number of workers --launch local spawns (default 2; "
            "the --launch ssh fleet comes from --hosts instead)"
        ),
    )
    parser.add_argument(
        "--launch-capacity",
        default=None,
        metavar="C[,C...]",
        help=(
            "capacities for autolaunched workers (one value per "
            "worker, or a single value for all; default: 1 each for "
            "--launch local, the remote CPU count for --launch ssh)"
        ),
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help=(
            "append each settled chunk to a crash-safe sweep journal "
            "at PATH (fsync'd per chunk); a run killed mid-sweep can "
            "be completed with --resume without recomputing settled "
            "work"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "replay settled chunks from --journal before computing "
            "(refused if the journal belongs to a different sweep); "
            "the finished figure is bit-identical to an uninterrupted "
            "run"
        ),
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=_heartbeat_seconds,
        default=None,
        metavar="SECONDS",
        help=(
            "remote backend only: liveness heartbeat interval — a "
            "worker silent for 1.5x this is declared unresponsive and "
            "its chunks requeued (detection within 2x; default 15, "
            "0 disables)"
        ),
    )
    parser.add_argument(
        "--chunk-deadline",
        type=_deadline_seconds,
        default=None,
        metavar="SECONDS",
        help=(
            "remote backend only: hard per-chunk budget — a worker "
            "that keeps heartbeating but never finishes a chunk "
            "within this is dropped and its chunks requeued "
            "(default: no deadline)"
        ),
    )
    parser.add_argument(
        "--connect-attempts",
        type=_connect_attempts,
        default=None,
        metavar="N",
        help=(
            "remote backend only: connect/handshake attempts per "
            "worker with jittered exponential backoff between them "
            "(default 3; security refusals never retry)"
        ),
    )
    parser.add_argument(
        "--on-fleet-loss",
        choices=("fail", "serial"),
        default=None,
        help=(
            "remote backend only: when every worker is lost mid-sweep, "
            "'fail' (default) reports the losses, 'serial' finishes "
            "the remaining chunks in-process (bit-identical, just "
            "slower)"
        ),
    )
    parser.add_argument(
        "--dist-stats",
        action="store_true",
        help=(
            "remote backend only: print the sweep's fault counters "
            "(sessions, retries, losses, heartbeat/deadline timeouts, "
            "requeued chunks, chunks finished in-process) after the run"
        ),
    )
    _add_security_arguments(parser, role="coordinator")


def _add_security_arguments(parser, *, role: str) -> None:
    """Wire-security flags shared by the worker and figure commands.

    The secret is taken from a *file* (or the ``REPRO_DIST_SECRET``
    environment variable) — never a bare ``--secret VALUE`` flag, which
    would put the token in the process table and shell history.
    """
    if role == "worker":
        cert_help = (
            "serve TLS with this certificate (PEM; needs --tls-key); "
            "plaintext coordinators are refused"
        )
        ca_help = (
            "require coordinator client certificates chaining to this "
            "CA (mutual TLS)"
        )
    else:
        cert_help = (
            "client certificate presented to mutual-TLS workers "
            "(PEM; needs --tls-key); with --launch, also the "
            "certificate the autolaunched workers serve"
        )
        ca_help = (
            "CA file the workers' TLS certificates must chain to "
            "(for a self-signed fleet, the cert.pem itself)"
        )
    parser.add_argument(
        "--secret-file",
        default=None,
        metavar="PATH",
        help=(
            "file holding the shared secret (first line) for the "
            "authenticated wire handshake; default: the "
            "REPRO_DIST_SECRET environment variable, else "
            "authentication off"
        ),
    )
    parser.add_argument(
        "--tls-cert",
        default=None,
        metavar="PEM",
        help=cert_help + " (default: REPRO_DIST_TLS_CERT)",
    )
    parser.add_argument(
        "--tls-key",
        default=None,
        metavar="PEM",
        help=(
            "private key for --tls-cert "
            "(default: REPRO_DIST_TLS_KEY)"
        ),
    )
    parser.add_argument(
        "--tls-ca",
        default=None,
        metavar="PEM",
        help=ca_help + " (default: REPRO_DIST_TLS_CA)",
    )


def _parse_launch_capacities(text):
    """Split --launch-capacity into ints; launchers validate the rest.

    The broadcast / one-per-worker / ``>= 1`` rules live in the
    launcher constructors (the single source of those semantics); a
    single value is passed as a scalar so they broadcast it.
    """
    if text is None:
        return None
    try:
        values = [
            int(piece) for piece in str(text).split(",") if piece.strip()
        ]
    except ValueError:
        raise SystemExit(
            f"error: --launch-capacity must be a comma-separated list "
            f"of integers, got {text!r}"
        ) from None
    if not values:
        raise SystemExit(
            f"error: --launch-capacity must name at least one "
            f"capacity, got {text!r}"
        )
    return values[0] if len(values) == 1 else values


def _resolve_tls_paths(args):
    """(cert, key, ca) from flags with REPRO_DIST_TLS_* env fallback."""
    cert = (
        args.tls_cert
        or os.environ.get("REPRO_DIST_TLS_CERT", "").strip()
        or None
    )
    key = (
        args.tls_key
        or os.environ.get("REPRO_DIST_TLS_KEY", "").strip()
        or None
    )
    ca = (
        args.tls_ca
        or os.environ.get("REPRO_DIST_TLS_CA", "").strip()
        or None
    )
    if (cert is None) != (key is None):
        raise SystemExit(
            "error: --tls-cert and --tls-key must be given together"
        )
    return cert, key, ca


def _resolve_secret_or_exit(args, *, stdin_secret=None):
    from repro.eval.dist.auth import resolve_secret

    if stdin_secret is not None:
        return stdin_secret
    try:
        return resolve_secret(args.secret_file)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None


def _security_flags_requested(args) -> bool:
    """Did the user *explicitly* ask for wire security on this run?

    Environment variables are ambient fleet configuration and are
    ignored by non-remote backends; explicit flags on a backend that
    cannot honour them are an error, not a silent no-op.
    """
    return any(
        getattr(args, name, None) is not None
        for name in ("secret_file", "tls_cert", "tls_key", "tls_ca")
    )


def _robustness_flags_requested(args) -> bool:
    """Did the user set any remote-only robustness flag explicitly?"""
    if getattr(args, "dist_stats", False):
        return True
    return any(
        getattr(args, name, None) is not None
        for name in (
            "heartbeat_interval",
            "chunk_deadline",
            "connect_attempts",
            "on_fleet_loss",
        )
    )


def _robustness_kwargs(args) -> dict:
    """RemoteExecutor kwargs from the fault-tolerance flags.

    Unset flags are omitted so the executor's own defaults (15 s
    heartbeat, no deadline, 3 connect attempts, fail on fleet loss)
    stay the single source of truth; explicit zeros disable the
    corresponding timer.
    """
    kwargs: dict = {}
    heartbeat = getattr(args, "heartbeat_interval", None)
    if heartbeat is not None:
        kwargs["heartbeat_interval"] = heartbeat or None
    deadline = getattr(args, "chunk_deadline", None)
    if deadline is not None:
        kwargs["chunk_deadline"] = deadline or None
    attempts = getattr(args, "connect_attempts", None)
    if attempts is not None:
        kwargs["connect_attempts"] = attempts
    on_fleet_loss = getattr(args, "on_fleet_loss", None)
    if on_fleet_loss is not None:
        kwargs["on_fleet_loss"] = on_fleet_loss
    return kwargs


def _make_journal(args):
    """Build the SweepJournal requested by --journal/--resume (or None)."""
    path = getattr(args, "journal", None)
    if path is None:
        if getattr(args, "resume", False):
            raise SystemExit(
                "error: --resume needs --journal PATH (the journal the "
                "interrupted run was writing)"
            )
        return None
    from repro.eval.dist.journal import SweepJournal

    return SweepJournal(path, resume=getattr(args, "resume", False))


def _print_dist_stats(args, executor) -> None:
    if not getattr(args, "dist_stats", False):
        return
    stats = getattr(executor, "last_sweep_stats", None)
    if stats is None:
        print("dist: no remote sweep ran")
    else:
        print(stats.render())


def _make_client_security(args):
    """(secret, cert, key, ca, ssl_context) for a remote coordinator."""
    cert, key, ca = _resolve_tls_paths(args)
    secret = _resolve_secret_or_exit(args)
    ssl_context = None
    if cert is not None or ca is not None:
        from repro.eval.dist.certs import client_context

        try:
            ssl_context = client_context(
                cafile=ca, certfile=cert, keyfile=key
            )
        except (OSError, ValueError) as exc:
            raise SystemExit(
                f"error: cannot load TLS material: {exc}"
            ) from None
    return secret, cert, key, ca, ssl_context


def _make_executor(args):
    """Build the executor requested by --backend/--hosts/--launch.

    ``None`` defers to the engine's legacy ``workers`` resolution
    (serial or a local process pool), keeping the historical flags
    working unchanged.
    """
    backend = args.backend
    hosts = args.hosts or os.environ.get("REPRO_HOSTS", "").strip() or None
    launch = getattr(args, "launch", None)
    if backend is None and (hosts is not None or launch is not None):
        backend = "remote"
    if launch is not None and backend != "remote":
        raise SystemExit(
            f"error: --launch only applies to --backend remote "
            f"(got --backend {backend})"
        )
    if launch is None and (
        getattr(args, "launch_workers", None) is not None
        or getattr(args, "launch_capacity", None) is not None
    ):
        # These flags configure the autolaunched fleet; accepting them
        # without --launch would silently hand the user the workers'
        # own defaults instead.
        raise SystemExit(
            "error: --launch-workers/--launch-capacity require "
            "--launch {local,ssh}"
        )
    if backend != "remote" and _security_flags_requested(args):
        # Serial and pooled execution never cross a network; asking
        # for wire security there is a configuration mistake the user
        # should hear about, not a silent no-op.
        raise SystemExit(
            "error: --secret-file/--tls-cert/--tls-key/--tls-ca only "
            "apply to --backend remote"
        )
    if backend != "remote" and _robustness_flags_requested(args):
        # Same policy: these tune a worker fleet that does not exist
        # on serial/pooled backends.
        raise SystemExit(
            "error: --heartbeat-interval/--chunk-deadline/"
            "--connect-attempts/--on-fleet-loss/--dist-stats only "
            "apply to --backend remote"
        )
    if backend is None:
        return None
    if backend == "serial":
        from repro.eval.parallel import SerialExecutor

        return SerialExecutor()
    if backend == "local":
        from repro.eval.parallel import LocalExecutor, resolve_workers

        workers = args.workers
        if workers is None and not os.environ.get(
            "REPRO_WORKERS", ""
        ).strip():
            # Asking for the pool backend without sizing it means "use
            # the machine": a 1-process pool would be strictly slower
            # than serial.
            workers = 0
        return LocalExecutor(resolve_workers(workers))
    from repro.eval.cache import resolve_cache_dir
    from repro.eval.dist import RemoteExecutor

    secret, tls_cert, tls_key, tls_ca, ssl_context = (
        _make_client_security(args)
    )
    if launch is None:
        if hosts is None:
            raise SystemExit(
                "error: --backend remote needs worker endpoints "
                "(--hosts or REPRO_HOSTS) or --launch"
            )
        return RemoteExecutor(
            _parse_hosts_or_exit(hosts),
            straggler_timeout=args.straggler_timeout,
            secret=secret,
            ssl_context=ssl_context,
            **_robustness_kwargs(args),
        )
    if tls_ca is not None and tls_cert is None:
        # The coordinator would demand TLS from workers launched
        # without any TLS material: guaranteed mutual refusal.
        raise SystemExit(
            "error: --launch with --tls-ca needs --tls-cert/--tls-key "
            "for the launched workers to serve"
        )
    # Launched workers share the figure's trial store (for ssh, a path
    # valid on the remote hosts, e.g. NFS), so a killed sweep keeps
    # every trial any worker finished.
    cache_dir = resolve_cache_dir(args.cache_dir, disabled=args.no_cache)
    if launch == "local":
        from repro.eval.dist import LocalLauncher

        if hosts is not None:
            # Catch the env-supplied form too: REPRO_HOSTS configures a
            # fleet, and silently sweeping on localhost subprocesses
            # instead would be a surprising place to lose it.
            source = (
                "--hosts" if args.hosts is not None else "REPRO_HOSTS"
            )
            raise SystemExit(
                f"error: --launch local spawns its own workers on this "
                f"host; drop {source} (or use --launch ssh to start "
                f"workers on those hosts)"
            )
        n_workers = (
            args.launch_workers if args.launch_workers is not None else 2
        )
        if n_workers < 1:
            raise SystemExit(
                f"error: --launch-workers must be >= 1, got {n_workers}"
            )
        try:
            launcher = LocalLauncher(
                n_workers,
                capacities=_parse_launch_capacities(args.launch_capacity),
                cache_dir=cache_dir,
                secret=secret,
                tls_cert=tls_cert,
                tls_key=tls_key,
            )
        except ValueError as exc:
            raise SystemExit(
                f"error: --launch-capacity/--launch-workers: {exc}"
            ) from None
    else:  # launch == "ssh"
        from repro.eval.dist import SshLauncher

        if hosts is None:
            raise SystemExit(
                "error: --launch ssh needs the hosts to launch on "
                "(--hosts or REPRO_HOSTS)"
            )
        if args.launch_workers is not None:
            # Reject rather than silently launch a different fleet
            # size than the user asked for.
            raise SystemExit(
                "error: --launch-workers only applies to --launch "
                "local; the --launch ssh fleet is one worker per "
                "--hosts entry"
            )
        specs = _parse_hosts_or_exit(hosts)
        try:
            launcher = SshLauncher(
                specs,
                capacities=_parse_launch_capacities(args.launch_capacity),
                cache_dir=cache_dir,
                secret=secret,
                tls_cert=tls_cert,
                tls_key=tls_key,
            )
        except ValueError as exc:
            raise SystemExit(
                f"error: --launch-capacity: {exc}"
            ) from None
    return RemoteExecutor(
        launcher=launcher,
        straggler_timeout=args.straggler_timeout,
        secret=secret,
        ssl_context=ssl_context,
        **_robustness_kwargs(args),
    )


def _parse_hosts_or_exit(hosts):
    """Validate a hosts spec early, as a CLI error rather than a trace."""
    from repro.eval.dist import parse_hosts

    try:
        return parse_hosts(hosts)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def _make_cache(args):
    """Build the TrialCache requested by the cache flags (or None)."""
    from repro.eval.cache import TrialCache, resolve_cache_dir

    directory = resolve_cache_dir(
        args.cache_dir, disabled=args.no_cache
    )
    return TrialCache(directory) if directory is not None else None


def _print_cache_stats(args, cache) -> None:
    if not args.cache_stats:
        return
    if cache is None:
        print("cache: disabled (no --cache-dir and REPRO_CACHE_DIR unset)")
    else:
        print(cache.stats_line())


def _run_demo(args) -> int:
    from repro import (
        ExperimentConfig,
        TheoremAlgorithm,
        infer_congestion,
        infer_congestion_independent,
        run_experiment,
    )
    from repro.model import (
        ExplicitJointModel,
        IndependentModel,
        NetworkCongestionModel,
    )
    from repro.topogen import fig_1a
    from repro.utils.tables import format_table

    instance = fig_1a()
    topology = instance.topology
    e1, e2, e3, e4 = (
        topology.link(n).id for n in ("e1", "e2", "e3", "e4")
    )
    model = NetworkCongestionModel(
        instance.correlation,
        [
            ExplicitJointModel(
                frozenset({e1, e2}),
                {
                    frozenset({e1}): 0.05,
                    frozenset({e2}): 0.05,
                    frozenset({e1, e2}): 0.20,
                },
            ),
            IndependentModel({e3: 0.3}),
            IndependentModel({e4: 0.15}),
        ],
    )
    truth = model.link_marginals()
    run = run_experiment(
        topology,
        model,
        config=ExperimentConfig(n_snapshots=args.snapshots),
        seed=args.seed,
    )
    correlation_result = infer_congestion(
        topology, instance.correlation, run.observations
    )
    independence_result = infer_congestion_independent(
        topology, run.observations
    )
    theorem_result = TheoremAlgorithm(
        topology, instance.correlation
    ).identify(run.observations)
    rows = []
    for link in topology.links:
        rows.append(
            [
                link.name,
                truth[link.id],
                correlation_result.probability(link.id),
                independence_result.probability(link.id),
                theorem_result.link_marginals[link.id],
            ]
        )
    print(
        format_table(
            ["link", "true P", "correlation", "independence", "theorem"],
            rows,
            title=(
                f"Figure 1(a) demo — {args.snapshots} snapshots, "
                f"seed {args.seed}"
            ),
        )
    )
    return 0


def _run_figure3(args) -> int:
    from repro.eval import figure3_sweep, render_sweep

    cache = _make_cache(args)
    executor = _make_executor(args)
    result = figure3_sweep(
        scale=args.scale,
        n_trials=args.trials,
        seed=args.seed,
        workers=args.workers,
        cache=cache,
        executor=executor,
        journal=_make_journal(args),
    )
    print(render_sweep(result))
    _print_cache_stats(args, cache)
    _print_dist_stats(args, executor)
    return 0


def _run_figure3_cdf(args) -> int:
    from repro.eval import figure3_cdf, render_cdf

    cache = _make_cache(args)
    executor = _make_executor(args)
    result = figure3_cdf(
        correlation_level=args.level,
        scale=args.scale,
        n_trials=args.trials,
        seed=args.seed,
        workers=args.workers,
        cache=cache,
        executor=executor,
        journal=_make_journal(args),
    )
    panel = "3(c)" if args.level == "high" else "3(d)"
    print(render_cdf(result, title=f"Figure {panel} — {args.level}"))
    _print_cache_stats(args, cache)
    _print_dist_stats(args, executor)
    return 0


def _run_figure4(args) -> int:
    from repro.eval import figure4_cdf, render_cdf

    cache = _make_cache(args)
    executor = _make_executor(args)
    result = figure4_cdf(
        topology=args.topology,
        unidentifiable_fraction=args.fraction,
        scale=args.scale,
        n_trials=args.trials,
        seed=args.seed,
        workers=args.workers,
        cache=cache,
        executor=executor,
        journal=_make_journal(args),
    )
    print(
        render_cdf(
            result,
            title=(
                f"Figure 4 — {args.topology}, "
                f"{args.fraction:.0%} unidentifiable"
            ),
        )
    )
    _print_cache_stats(args, cache)
    _print_dist_stats(args, executor)
    return 0


def _run_figure5(args) -> int:
    from repro.eval import figure5_cdf, render_cdf

    cache = _make_cache(args)
    executor = _make_executor(args)
    result = figure5_cdf(
        topology=args.topology,
        mislabeled_fraction=args.fraction,
        scale=args.scale,
        n_trials=args.trials,
        seed=args.seed,
        workers=args.workers,
        cache=cache,
        executor=executor,
        journal=_make_journal(args),
    )
    print(
        render_cdf(
            result,
            title=(
                f"Figure 5 — {args.topology}, "
                f"{args.fraction:.0%} mislabeled"
            ),
        )
    )
    _print_cache_stats(args, cache)
    _print_dist_stats(args, executor)
    return 0


def _run_tomographer(args) -> int:
    from repro.eval import (
        default_config,
        default_instance,
        make_clustered_scenario,
        run_tomographer,
    )
    from repro.simulate import run_experiment
    from repro.utils.rng import spawn_children
    from repro.utils.tables import format_table

    instance = default_instance(
        args.topology, scale=args.scale, seed=args.seed
    )
    scenario_rng, train_rng, holdout_rng = spawn_children(args.seed, 3)
    scenario = make_clustered_scenario(
        instance, congested_fraction=0.10, seed=scenario_rng
    )
    config = default_config(args.scale)
    training = run_experiment(
        instance.topology,
        scenario.truth_model,
        config=config,
        seed=train_rng,
    )
    holdout = run_experiment(
        instance.topology,
        scenario.truth_model,
        config=config,
        seed=holdout_rng,
    )
    comparison = run_tomographer(
        instance.topology,
        instance.correlation,
        training.observations,
        holdout.observations,
    )
    print(
        format_table(
            ["variant", "mean path err", "mean err (corr-free paths)"],
            [
                [
                    "(i) all links uncorrelated",
                    comparison.uncorrelated_validation.mean_error,
                    comparison.uncorrelated_validation.mean_error_correlation_free,
                ],
                [
                    "(ii) cluster-correlated",
                    comparison.correlated_validation.mean_error,
                    comparison.correlated_validation.mean_error_correlation_free,
                ],
            ],
            title=(
                f"Tomographer indirect validation — {args.topology}, "
                f"scale={args.scale}"
            ),
        )
    )
    winner = "(ii)" if comparison.correlated_wins else "(i)"
    print(f"indirect validation prefers variant {winner}")
    return 0


def _stdin_lifeline(server) -> None:
    """Block until stdin hits EOF, then shut the worker down.

    The launcher (or `ssh`) holds our stdin pipe open for as long as
    the coordinator lives — including a coordinator that is SIGKILLed
    and never runs its teardown.  EOF therefore means "coordinator
    gone": stop accepting, let active sessions drain to their broken
    sockets, and hard-exit after a grace period so no orphan worker
    (or its process pool) outlives the sweep.
    """
    import time

    try:
        while sys.stdin.buffer.read(4096):
            pass
    except (OSError, ValueError):
        pass
    server.close()
    time.sleep(15.0)
    os._exit(0)


def _read_stdin_secret():
    """Consume the first stdin line as the secret (``--secret-stdin``).

    Must run before the lifeline thread starts draining stdin.  The
    rest of the stream stays open — it *is* the lifeline.
    """
    from repro.eval.dist.auth import normalize_secret

    line = sys.stdin.buffer.readline()
    try:
        return normalize_secret(line)
    except ValueError:
        raise SystemExit(
            "error: --secret-stdin expected the shared secret as the "
            "first line of stdin, got an empty line (or EOF)"
        ) from None


def _run_worker(args) -> int:
    import threading

    from repro.eval.cache import resolve_cache_dir
    from repro.eval.dist import WorkerServer

    stdin_secret = _read_stdin_secret() if args.secret_stdin else None
    secret = _resolve_secret_or_exit(args, stdin_secret=stdin_secret)
    tls_cert, tls_key, tls_ca = _resolve_tls_paths(args)
    ssl_context = None
    if tls_cert is not None:
        from repro.eval.dist.certs import server_context

        try:
            ssl_context = server_context(
                tls_cert, tls_key, cafile=tls_ca
            )
        except (OSError, ValueError) as exc:
            raise SystemExit(
                f"error: cannot load TLS material: {exc}"
            ) from None
    elif tls_ca is not None:
        raise SystemExit(
            "error: --tls-ca on a worker requires --tls-cert/--tls-key "
            "(a worker cannot demand client certificates without "
            "serving TLS itself)"
        )
    # Chaos is installed only here — in the dedicated worker process —
    # with process faults allowed: a worker may kill or SIGSTOP itself.
    # Figure commands never install from the environment, so REPRO_CHAOS
    # set on a coordinator host lands in its autolaunched workers (which
    # inherit the environment), not in the coordinator itself.
    from repro.eval.dist import faults

    try:
        if args.chaos is not None:
            seed_text = os.environ.get(faults.CHAOS_SEED_ENV, "").strip()
            faults.install(
                faults.FaultPlan.parse(
                    args.chaos,
                    seed=int(seed_text) if seed_text else 0,
                    allow_process_faults=True,
                )
            )
        else:
            plan = faults.plan_from_env(allow_process_faults=True)
            if plan is not None:
                faults.install(plan)
    except faults.FaultSpecError as exc:
        raise SystemExit(f"error: --chaos: {exc}") from None
    cache_dir = resolve_cache_dir(args.cache_dir, disabled=args.no_cache)
    capacity = args.capacity or (os.cpu_count() or 1)
    server = WorkerServer(
        args.bind,
        args.port,
        capacity=capacity,
        cache_dir=cache_dir,
        max_sessions=args.max_sessions,
        fail_after_chunks=args.fail_after_chunks,
        throttle=args.throttle,
        secret=secret,
        ssl_context=ssl_context,
        log=lambda message: print(message, flush=True),
    )
    if args.exit_on_stdin_close:
        threading.Thread(
            target=_stdin_lifeline, args=(server,), daemon=True
        ).start()
    # The "listening on host:port" line is printed (flushed) by the
    # server itself; launchers parse it to learn ephemeral ports.
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _run_serve(args) -> int:
    from repro.io import parse_json
    from repro.serve.registry import instance_from_payload
    from repro.serve.server import TomographyService, serve_forever

    preloads = []
    for spec in args.preload or ():
        try:
            payload = parse_json(spec)
        except ValueError as exc:
            raise SystemExit(f"error: --preload: invalid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise SystemExit("error: --preload must be a JSON object")
        try:
            preloads.append(instance_from_payload({"generator": payload}))
        except (ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"error: --preload: {exc}") from None
    service = TomographyService(
        host=args.bind,
        port=args.port,
        max_topologies=args.max_topologies,
        workers=args.workers,
        batch_max=args.batch_max,
        max_pending=args.max_pending,
        cache=_make_cache(args),
    )

    def banner(svc) -> None:
        for instance in preloads:
            entry, _ = svc.store.load(
                instance, name=None, make_batcher=svc._make_batcher
            )
            print(f"preloaded {entry.fingerprint}", flush=True)
        # Machine-parseable, like the dist worker's "listening on" line:
        # launchers read it to learn ephemeral ports.
        print(f"serving on {svc.host}:{svc.port}", flush=True)

    try:
        serve_forever(service, banner=banner)
    except KeyboardInterrupt:
        pass
    return 0


def _instance_from_flags(args):
    """Resolve the instance named by the ``_instance_arguments`` flags."""
    from repro.io import parse_json
    from repro.serve.registry import instance_from_payload

    if args.generator is not None:
        try:
            generator = parse_json(args.generator)
        except ValueError as exc:
            raise SystemExit(
                f"error: --generator: invalid JSON: {exc}"
            ) from None
        try:
            return instance_from_payload({"generator": generator})
        except ValueError as exc:
            raise SystemExit(f"error: --generator: {exc}") from None
    from repro.eval.figures import default_instance

    return default_instance(
        args.topology, scale=args.scale, seed=args.instance_seed
    )


def _validated(instance, query: dict) -> list:
    """``query``'s tasks once :func:`repro.serve.queries.validate_query`
    passes it; the service answers the same refusals with a 400."""
    from repro.serve.queries import validate_query

    try:
        return validate_query(instance, query)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _run_localize(args) -> int:
    from repro.io import canonical_json
    from repro.serve.queries import encode_vectors, run_query_tasks

    instance = _instance_from_flags(args)
    query: dict = {"kind": args.kind, "seed": args.seed}
    if args.kind == "localization":
        query.update(
            congested_fraction=args.congested_fraction,
            per_set_range=args.per_set_range,
            n_snapshots=args.n_snapshots,
            packets_per_path=(
                None if args.packets_per_path == 0 else args.packets_per_path
            ),
            loc_snapshots=args.loc_snapshots,
            max_nodes=args.max_nodes,
        )
    else:
        query["max_subset_size"] = args.max_subset_size
    result = run_query_tasks(
        instance,
        _validated(instance, query),
        workers=args.workers,
        cache=_make_cache(args),
    )
    print(canonical_json({"result": encode_vectors(result)}))
    return 0


def _file_windows(path):
    """Yield raw window payloads from a JSONL file ('-' = stdin)."""
    from repro.io import parse_json

    handle = sys.stdin if path == "-" else open(path, encoding="utf-8")
    try:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                yield parse_json(line)
            except ValueError as exc:
                raise SystemExit(
                    f"error: --windows line {number}: invalid JSON: {exc}"
                ) from None
    finally:
        if handle is not sys.stdin:
            handle.close()


def _simulated_windows(args, instance):
    """Yield path-state matrices from a scripted SnapshotStream."""
    from repro.eval.scenario import (
        make_clustered_scenario,
        resolve_per_set_range,
    )
    from repro.exceptions import SimulationError
    from repro.io import parse_json
    from repro.model.loss import LossModel
    from repro.simulate.probes import PathProber, ProbeConfig
    from repro.simulate.stream import LinkStateTimeline, SnapshotStream
    from repro.utils.rng import spawn_children

    timeline = None
    if args.events is not None:
        try:
            specs = parse_json(args.events)
            if not isinstance(specs, list):
                raise ValueError("expected a JSON list of event objects")
            timeline = LinkStateTimeline.from_specs(specs)
            timeline.check_links(instance.topology.n_links)
        except (ValueError, SimulationError) as exc:
            raise SystemExit(f"error: --events: {exc}") from None
    scenario_seed, stream_seed = spawn_children(args.seed, 2)
    scenario = make_clustered_scenario(
        instance,
        congested_fraction=args.congested_fraction,
        per_set_range=resolve_per_set_range(args.per_set_range),
        seed=scenario_seed,
    )
    packets = (
        None if args.packets_per_path == 0 else args.packets_per_path
    )
    stream = SnapshotStream(
        scenario.truth_model,
        LossModel(),
        PathProber(
            instance.topology, ProbeConfig(packets_per_path=packets)
        ),
        window_size=args.window_size,
        timeline=timeline,
        rng=stream_seed,
    )
    for window in stream.windows(args.n_windows):
        yield window.path_states


def _run_stream(args) -> int:
    import json

    from repro.core.correlation_algorithm import infer_congestion
    from repro.core.streaming import StreamingTomography
    from repro.io import canonical_json
    from repro.serve.queries import encode_vectors
    from repro.serve.stream import decode_window, verdict_delta
    from repro.simulate.observations import PathObservations

    if args.mode == "batch" and args.max_window is not None:
        raise SystemExit(
            "error: --max-window only applies to --mode incremental "
            "(batch inference always covers the full history)"
        )
    instance = _instance_from_flags(args)
    n_paths = instance.topology.n_paths
    if args.simulate:
        source = _simulated_windows(args, instance)
    else:
        source = _file_windows(args.windows)
    saver = (
        open(args.save_windows, "w", encoding="utf-8")
        if args.save_windows is not None
        else None
    )

    def windows():
        try:
            for number, payload in enumerate(source, start=1):
                try:
                    states = decode_window(payload, n_paths)
                except ValueError as exc:
                    raise SystemExit(
                        f"error: window {number}: {exc}"
                    ) from None
                if saver is not None:
                    saver.write(
                        json.dumps(states.astype(int).tolist()) + "\n"
                    )
                yield states
        finally:
            if saver is not None:
                saver.close()

    def final_line(observations, result):
        print(
            canonical_json(
                {
                    "n_snapshots": int(observations.n_snapshots),
                    "n_evicted": int(
                        getattr(observations, "n_evicted", 0)
                    ),
                    "result": encode_vectors(
                        {
                            "probabilities": (
                                result.congestion_probabilities
                            ),
                            "log_good": result.log_good,
                        }
                    ),
                }
            )
        )

    if args.mode == "batch":
        collected = list(windows())
        if not collected:
            raise SystemExit("error: the window source was empty")
        observations = PathObservations(
            np.concatenate(collected, axis=0)
        )
        result = infer_congestion(
            instance.topology, instance.correlation, observations
        )
        final_line(observations, result)
        return 0

    engine = StreamingTomography(
        instance.topology,
        instance.correlation,
        threshold=args.threshold,
    )
    observations = None
    for states in windows():
        if observations is None:
            observations = PathObservations(
                states, max_window=args.max_window
            )
        else:
            observations.append_window(states)
        verdict = engine.update(observations)
        if not args.quiet:
            print(canonical_json(verdict_delta(verdict)), flush=True)
    if observations is None:
        raise SystemExit("error: the window source was empty")
    # The last update already inferred over exactly these observations.
    final_line(observations, verdict.result)
    return 0


def _load_demand(args):
    """Parse the --demand file into a DemandMatrix (SystemExit on junk)."""
    from repro.io import parse_json
    from repro.predict.demand import DemandMatrix

    if args.demand == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.demand, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise SystemExit(f"error: --demand: {exc}") from None
    try:
        payload = parse_json(text)
    except ValueError as exc:
        raise SystemExit(f"error: --demand: invalid JSON: {exc}") from None
    try:
        return DemandMatrix.from_payload(payload)
    except ValueError as exc:
        raise SystemExit(f"error: --demand: {exc}") from None


def _shift_overrides(args, demand) -> list[dict]:
    """Apply --shift NAME:SCALE overrides to the matrix's named shifts."""
    shifts = [shift.to_payload() for shift in demand.shifts]
    for spec in args.shift or []:
        name, sep, scale_text = spec.rpartition(":")
        if not sep or not name:
            raise SystemExit(
                f"error: --shift: expected NAME:SCALE, got {spec!r}"
            )
        try:
            scale = float(scale_text)
        except ValueError:
            raise SystemExit(
                f"error: --shift {name}: scale must be a number, "
                f"got {scale_text!r}"
            ) from None
        if scale < 0:
            raise SystemExit(
                f"error: --shift {name}: scale must be >= 0, got {scale:g}"
            )
        for entry in shifts:
            if entry["name"] == name:
                entry["scale"] = scale
                break
        else:
            shifts.append({"name": name, "scale": scale})
    return shifts


def _run_predict(args) -> int:
    from repro.io import canonical_json
    from repro.predict.tasks import whatif_vectors_to_result
    from repro.serve.queries import encode_vectors, run_query_tasks
    from repro.utils.tables import format_table

    instance = _instance_from_flags(args)
    demand = _load_demand(args)
    shifts = _shift_overrides(args, demand)
    demand_payload = demand.to_payload()
    demand_payload.pop("shifts", None)
    query = {
        "kind": "whatif",
        "seed": args.seed,
        "demand": demand_payload,
        "shifts": shifts or None,
        "utilization_threshold": args.utilization_threshold,
        "exact_max_flows": args.exact_max_flows,
        "mc_samples": args.mc_samples,
        "congested_fraction": args.congested_fraction,
        "per_set_range": args.per_set_range,
        "n_snapshots": args.n_snapshots,
        "packets_per_path": (
            None if args.packets_per_path == 0 else args.packets_per_path
        ),
    }
    result = run_query_tasks(
        instance,
        _validated(instance, query),
        workers=args.workers,
        cache=_make_cache(args),
    )
    if args.format == "json":
        print(canonical_json({"result": encode_vectors(result)}))
        return 0
    shift_names = [entry["name"] for entry in shifts] or ["baseline"]
    record = whatif_vectors_to_result(result, shift_names)
    topology = instance.topology
    for shift in record["shifts"]:
        rows = [
            [
                rank,
                topology.links[link_id].name,
                f"{record['current'][link_id]:.4f}",
                f"{shift['predicted'][link_id]:.4f}",
                f"{shift['combined'][link_id]:.4f}",
                f"{shift['expected_utilization'][link_id]:.3f}",
            ]
            for rank, link_id in enumerate(
                shift["ranking"][: args.top], start=1
            )
        ]
        print(
            format_table(
                ["rank", "link", "now", "shift risk", "combined", "E[util]"],
                rows,
                title=(
                    f"What-if {shift['name']!r} (scale {shift['scale']:g}, "
                    f"{shift['method']}): top {len(rows)} links by "
                    "combined risk"
                ),
            )
        )
    return 0


_HANDLERS = {
    "demo": _run_demo,
    "figure3": _run_figure3,
    "figure3-cdf": _run_figure3_cdf,
    "figure4": _run_figure4,
    "figure5": _run_figure5,
    "tomographer": _run_tomographer,
    "worker": _run_worker,
    "serve": _run_serve,
    "localize": _run_localize,
    "stream": _run_stream,
    "predict": _run_predict,
}


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    np.set_printoptions(precision=4, suppress=True)
    try:
        return _HANDLERS[args.command](args)
    except DistSecurityError as exc:
        # Fail-closed security refusals (wrong secret, one-sided
        # secret, TLS/plaintext mismatch) are operator guidance, not
        # bugs: one clean line instead of a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JournalError as exc:
        # Likewise: a journal that belongs to a different sweep (or a
        # file that is not a journal) is an operator mistake with a
        # clear remedy, not a stack trace.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (| head, a pager quit) — routine
        # for the line-oriented stream output, not an error.  Point
        # stdout at devnull so the interpreter's exit-time flush does
        # not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
