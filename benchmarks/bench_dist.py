"""Distributed sweep benchmark (PR-3 + elastic-sweep acceptance run).

Runs the figure-3 sweep several ways over the same instance and seed:

* **serial** — the engine in-process (correctness reference);
* **remote** — two localhost worker processes behind a
  :class:`repro.eval.dist.RemoteExecutor` coordinator;
* **remote-kill** — two fresh workers sharing one trial-cache store,
  with one worker dying mid-sweep: the coordinator requeues its chunks
  onto the survivor and the sweep completes anyway;
* **elastic-uniform / elastic-aware** — the heterogeneous-capacity
  scenario: two *autolaunched* workers with capacities 1 and 2 and
  identical injected per-task latency (``--throttle`` sleeps instead
  of burning CPU, so the capacity-2 worker genuinely overlaps two
  chunks even on a one-core box), swept once with capacity
  advertisements ignored (the PR-3 uniform schedule: one chunk in
  flight per worker) and once capacity-aware (the capacity-2 worker
  keeps two chunks in flight).  The capacity-aware schedule must beat
  uniform chunking on wall-clock (``--require-capacity-gain``, on in
  CI too — the latency injection makes the gain reproducible on any
  machine).

* **wire codec** — a microbench, where the wire work is not buried
  under compute: ``--require-wire-gain [RATIO]`` (default 1.3) gates
  the chunk codec against a ``pickle`` baseline of the same chunk-heavy
  task list;

* **remote-chaos** — the fault-matrix leg: two fresh workers whose
  ``REPRO_CHAOS`` environment arms one to corrupt a result frame and
  the other to SIGSTOP itself on its first chunk.  The corruption is
  caught by frame validation, the hang by the PING/PONG heartbeat
  clock, and — both bench workers being single-session — the sweep
  finishes through the ``on_fleet_loss="serial"`` in-process fallback,
  still bit-identical.  ``--require-chaos`` gates detection (a
  recorded heartbeat timeout and worker loss) and the fallback;

* **plain-autolaunch / secure-autolaunch** — the wire-security
  acceptance pair: the same two-worker autolaunched fleet swept over a
  trusted socket and again with TLS plus the shared-secret
  handshake.  Identical launch and compute on both sides, so the
  ratio isolates the security layer's cost; ``--require-secure-overhead
  [RATIO]`` (default 1.15) gates it, and the **fail-closed checks**
  (``--require-fail-closed``) prove a wrong-secret and a no-secret
  connection are both refused before the worker deserializes a single
  object.

All sweep legs must produce bit-identical figure data (always enforced
with ``--require-identical``; always printed).  ``--require-survival``
additionally gates the kill leg (sweep survives, shared store retained
the chunks completed before the death) and the **orphan check**: a
separate coordinator process autolaunches a fleet, is SIGKILLed
mid-sweep — so no teardown code ever runs — and every autolaunched
worker must still exit (the stdin lifeline) instead of living on as an
orphan.

Kill modes: the headline run SIGKILLs the worker process as soon as the
shared store shows the sweep is underway; ``--quick`` (the CI smoke)
instead starts the doomed worker with ``--fail-after-chunks 1`` so the
death lands after exactly one chunk, deterministically, on runners of
any speed.

Usage::

    python benchmarks/bench_dist.py --scale medium \
        --require-identical --require-survival \
        --require-capacity-gain --require-wire-gain  # headline
    python benchmarks/bench_dist.py --quick \
        --require-identical --require-survival \
        --require-wire-gain                          # CI smoke
    python benchmarks/bench_dist.py --quick \
        --require-identical --require-chaos          # CI chaos smoke

Every run appends a record to ``BENCH_dist.json`` (see
``benchmarks/bench_util.py``).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import time

from bench_util import write_bench_json

from repro.core.correlation_algorithm import AlgorithmOptions
from repro.eval.dist import LocalLauncher, RemoteExecutor
from repro.eval.dist.launch import LaunchedWorker, worker_environment
from repro.eval.figures import (
    default_config,
    default_instance,
    figure3_sweep,
)
from repro.simulate.experiment import ExperimentConfig

FRACTIONS = (0.05, 0.10, 0.15, 0.20, 0.25)
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class _Worker:
    """One ``repro-tomography worker`` subprocess on an ephemeral port.

    A thin harness over :class:`repro.eval.dist.launch.LaunchedWorker`
    (which owns the readiness wait and stdout drain) for the legs that
    need per-worker flags a homogeneous launcher does not model:
    ``--max-sessions 1`` and fault injection on one specific worker.
    """

    def __init__(
        self, *, cache_dir=None, fail_after_chunks=None, chaos=None
    ) -> None:
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--port",
            "0",
            "--max-sessions",
            "1",
            # Pinned: these legs measure distribution, and their
            # timings are compared against the PR-3 records in
            # BENCH_dist.json; the CLI's capacity default (CPU count)
            # would add in-host pooling to what they measure.
            "--capacity",
            "1",
        ]
        if cache_dir is not None:
            command += ["--cache-dir", str(cache_dir)]
        if fail_after_chunks is not None:
            command += ["--fail-after-chunks", str(fail_after_chunks)]
        env = worker_environment()
        if chaos is not None:
            # Chaos rides the environment exactly as it would in a real
            # deployment (REPRO_CHAOS on the worker host), and the spec
            # may include process faults — this is a dedicated process.
            env["REPRO_CHAOS"] = chaos
        process = subprocess.Popen(
            command,
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.launched = LaunchedWorker(process, "bench-worker")
        self.process = process
        try:
            port = self.launched.await_ready(time.monotonic() + 30.0)
        except BaseException:
            self.stop()  # no lifeline on bench workers: reap explicitly
            raise
        self.address = f"127.0.0.1:{port}"

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=10)


def _points_as_dicts(sweep_result):
    return [
        {"correlation": p.correlation, "independence": p.independence}
        for p in sweep_result.points
    ]


def _print_series(label, fractions, stats_per_point):
    print(f"  {label}:")
    for fraction, stats in zip(fractions, stats_per_point):
        corr, ind = stats["correlation"], stats["independence"]
        print(
            f"    f={fraction:4.0%}  corr mean={corr.mean:.4f} "
            f"p90={corr.p90:.4f} | ind mean={ind.mean:.4f} "
            f"p90={ind.p90:.4f}"
        )


def _kill_when_store_populated(worker, store, landed):
    """SIGKILL ``worker`` once the shared store proves the sweep started."""
    store = pathlib.Path(store)
    while worker.process.poll() is None:
        if any(store.rglob("*.npz")):
            worker.process.kill()
            landed.append(True)
            return
        time.sleep(0.02)


def _check_fail_closed(tls_paths, secret, sweep_kwargs) -> dict:
    """Prove refused connections deserialize nothing on the worker.

    Runs one TLS + secret worker in-process with the stdlib
    ``pickle.loads`` and ``pickle.Unpickler`` replaced by counting
    wrappers, then attempts a sweep with a wrong secret and one with no
    secret at all.  Both must raise :class:`DistSecurityError`, and the
    counter must show the worker-side session threads deserialized
    zero objects: the refusal landed before anything was parsed.
    Counting is attributed by thread name because the coordinator
    shares this process.
    """
    import pickle

    from repro.eval.dist import (
        DistSecurityError,
        WorkerServer,
        client_context,
        server_context,
    )

    loads_calls: list[int] = []
    real_loads = pickle.loads
    real_unpickler = pickle.Unpickler

    def _count() -> None:
        if threading.current_thread().name.startswith("worker-session"):
            loads_calls.append(1)

    def counting_loads(*args, **kwargs):
        _count()
        return real_loads(*args, **kwargs)

    class CountingUnpickler(real_unpickler):
        def __init__(self, *args, **kwargs):
            _count()
            super().__init__(*args, **kwargs)

    server = WorkerServer(
        secret=secret,
        ssl_context=server_context(tls_paths.cert, tls_paths.key),
    )
    server_thread = threading.Thread(
        target=server.serve_forever, daemon=True
    )
    server_thread.start()
    checks: dict[str, tuple[bool, str]] = {}
    attempts = (
        (
            "wrong_secret",
            dict(
                secret="definitely-not-the-secret",
                ssl_context=client_context(cafile=tls_paths.cert),
            ),
        ),
        (
            "no_secret",
            dict(ssl_context=client_context(cafile=tls_paths.cert)),
        ),
    )
    pickle.loads = counting_loads
    pickle.Unpickler = CountingUnpickler
    try:
        # Sanity: the instrumentation actually counts (from a thread
        # named like a worker session, as real counts will be).
        probe = threading.Thread(
            target=lambda: pickle.loads(pickle.dumps(1)),
            name="worker-session-probe",
        )
        probe.start()
        probe.join()
        assert loads_calls, "fail-closed instrumentation is inert"
        loads_calls.clear()
        for label, security in attempts:
            before = len(loads_calls)
            try:
                figure3_sweep(
                    executor=RemoteExecutor([server.address], **security),
                    **sweep_kwargs,
                )
                checks[label] = (False, "sweep unexpectedly succeeded")
            except DistSecurityError as exc:
                deserialized = len(loads_calls) - before
                checks[label] = (
                    deserialized == 0,
                    f"refused cleanly; worker deserialized "
                    f"{deserialized} objects ({str(exc)[:90]})",
                )
            except Exception as exc:  # noqa: BLE001 - report, don't die
                checks[label] = (
                    False,
                    f"failed with {type(exc).__name__} instead of "
                    f"DistSecurityError: {exc}",
                )
    finally:
        pickle.loads = real_loads
        pickle.Unpickler = real_unpickler
        server.close()
    return checks


def _check_wire_codec(seed: int, n_tasks: int = 400, rounds: int = 9):
    """The chunk codec vs a ``pickle`` baseline on one chunk-heavy list.

    Times the per-chunk wire work — ``encode_tasks``/``decode_tasks``
    against ``pickle.dumps``/``pickle.loads`` of the same task list, a
    reference kept here only for comparison — interleaved within each
    round so machine noise lands on all four measurements alike, and
    reduced by median.  Sweep wall-clock cannot gate this (compute buries the
    wire); the microbench isolates what the codec itself costs.
    """
    import pickle
    import statistics

    from repro.eval.dist import decode_tasks, encode_tasks
    from repro.eval.parallel import scenario_tasks

    tasks = scenario_tasks(
        "clustered",
        {"congested_fraction": 0.1},
        n_trials=n_tasks,
        seed=seed,
    )
    pickle_blob = pickle.dumps(tasks, protocol=pickle.HIGHEST_PROTOCOL)
    codec_blob = encode_tasks(tasks)
    samples: dict[str, list[float]] = {
        "pickle_enc": [],
        "pickle_dec": [],
        "codec_enc": [],
        "codec_dec": [],
    }
    for _ in range(rounds):
        for label, call in (
            (
                "pickle_enc",
                lambda: pickle.dumps(
                    tasks, protocol=pickle.HIGHEST_PROTOCOL
                ),
            ),
            ("codec_enc", lambda: encode_tasks(tasks)),
            ("pickle_dec", lambda: pickle.loads(pickle_blob)),
            ("codec_dec", lambda: decode_tasks(codec_blob)),
        ):
            t0 = time.perf_counter()
            call()
            samples[label].append(time.perf_counter() - t0)
    med = {k: statistics.median(v) for k, v in samples.items()}
    return {
        "n_tasks": n_tasks,
        "encode_speedup": med["pickle_enc"] / med["codec_enc"],
        "decode_speedup": med["pickle_dec"] / med["codec_dec"],
        "codec_speedup": (med["pickle_enc"] + med["pickle_dec"])
        / (med["codec_enc"] + med["codec_dec"]),
        "size_ratio": len(pickle_blob) / len(codec_blob),
        "pickle_bytes": len(pickle_blob),
        "codec_bytes": len(codec_blob),
    }


def _run_orphan_child(args) -> int:
    """Child mode: autolaunch a fleet, announce it, sweep until killed.

    The parent SIGKILLs this process mid-sweep, so the launcher's
    ``shutdown()`` never runs — worker teardown must come entirely from
    the stdin lifeline each worker holds on us.
    """
    launcher = LocalLauncher(2, capacities=[1, 2])
    specs = launcher.launch()
    for worker in launcher.workers:
        print(f"worker-pid {worker.pid}", flush=True)
    print("sweep-start", flush=True)
    instance = default_instance("brite", scale="small", seed=args.seed)
    figure3_sweep(
        instance=instance,
        fractions=FRACTIONS,
        config=ExperimentConfig(n_snapshots=2000, packets_per_path=400),
        n_trials=4,
        seed=args.seed,
        options=AlgorithmOptions(),
        executor=RemoteExecutor(specs),
    )
    launcher.shutdown()  # only reached if the parent failed to kill us
    return 0


def _check_orphan_teardown() -> tuple[bool, str]:
    """SIGKILL a live coordinator; its autolaunched workers must die."""
    process = subprocess.Popen(
        [sys.executable, __file__, "--orphan-child"],
        cwd=REPO_ROOT,
        env=worker_environment(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    pids: list[int] = []
    try:
        for line in process.stdout:
            line = line.strip()
            if line.startswith("worker-pid "):
                pids.append(int(line.split()[1]))
            elif line == "sweep-start":
                break
        else:
            process.wait(timeout=10)
            return False, (
                "orphan check: coordinator never reached its sweep "
                f"(exit status {process.returncode})"
            )
        process.kill()  # SIGKILL mid-sweep: no teardown code runs
        process.wait(timeout=10)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if not pids:
        return False, "orphan check: coordinator announced no workers"
    deadline = time.monotonic() + 30.0
    for pid in pids:
        while True:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            if time.monotonic() > deadline:
                try:  # do not leak the orphan we just proved exists
                    os.kill(pid, 9)
                except ProcessLookupError:
                    pass
                return False, (
                    f"orphan check: worker {pid} outlived its "
                    "SIGKILLed coordinator"
                )
            time.sleep(0.05)
    return True, (
        f"orphan check: all {len(pids)} autolaunched workers exited "
        "after the coordinator was SIGKILLed mid-sweep"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=("small", "medium", "paper"), default="medium"
    )
    parser.add_argument("--trials", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "CI smoke: small instance, short sweep, reduced snapshots, "
            "deterministic fail-after-chunks death instead of SIGKILL"
        ),
    )
    parser.add_argument(
        "--require-identical",
        action="store_true",
        help="exit nonzero unless remote legs match the serial reference",
    )
    parser.add_argument(
        "--require-survival",
        action="store_true",
        help=(
            "exit nonzero unless the kill leg completed after losing a "
            "worker and the shared store retained completed chunks, "
            "and the orphan check found no worker outliving a "
            "SIGKILLed coordinator"
        ),
    )
    parser.add_argument(
        "--require-capacity-gain",
        action="store_true",
        help=(
            "exit nonzero unless the capacity-aware schedule beats "
            "uniform chunking on wall-clock in the heterogeneous "
            "(capacity 1 vs 2, latency-injected) scenario"
        ),
    )
    parser.add_argument(
        "--require-secure-overhead",
        nargs="?",
        const=1.15,
        default=None,
        type=float,
        metavar="RATIO",
        help=(
            "exit nonzero unless the secured (TLS + shared-secret, "
            "autolaunched) sweep stays within RATIO (default 1.15) of "
            "the plain autolaunched sweep's wall-clock"
        ),
    )
    parser.add_argument(
        "--require-fail-closed",
        action="store_true",
        help=(
            "exit nonzero unless wrong-secret and no-secret "
            "connections to a secured worker are refused before any "
            "payload is deserialized"
        ),
    )
    parser.add_argument(
        "--require-wire-gain",
        nargs="?",
        const=1.3,
        default=None,
        type=float,
        metavar="RATIO",
        help=(
            "exit nonzero unless the chunk codec beats a pickle "
            "baseline by at least RATIO (default 1.3) on the "
            "chunk-heavy microbench"
        ),
    )
    parser.add_argument(
        "--require-chaos",
        action="store_true",
        help=(
            "exit nonzero unless the chaos leg — one worker corrupting "
            "a result frame, one SIGSTOPping itself mid-sweep — is "
            "detected (heartbeat), survived (serial fallback), and "
            "bit-identical"
        ),
    )
    parser.add_argument(
        "--orphan-child",
        action="store_true",
        help=argparse.SUPPRESS,  # internal: coordinator-to-be-killed
    )
    args = parser.parse_args(argv)
    if args.orphan_child:
        return _run_orphan_child(args)

    scale = "small" if args.quick else args.scale
    fractions = FRACTIONS[:2] if args.quick else FRACTIONS
    trials = max(args.trials, 2) if args.quick else args.trials
    instance = default_instance("brite", scale=scale, seed=args.seed)
    config = default_config(scale)
    if args.quick:
        config = ExperimentConfig(n_snapshots=400, packets_per_path=400)
    options = AlgorithmOptions()
    n_tasks = len(fractions) * trials
    print(
        f"distributed sweep benchmark — scale={scale}, "
        f"{instance.n_links} links / {instance.n_paths} paths, "
        f"{len(fractions)} fractions × {trials} trial(s) = "
        f"{n_tasks} tasks, {config.n_snapshots} snapshots, "
        f"2 localhost workers"
    )

    sweep_kwargs = dict(
        instance=instance,
        fractions=fractions,
        config=config,
        n_trials=trials,
        seed=args.seed,
        options=options,
    )

    t0 = time.perf_counter()
    serial = figure3_sweep(workers=1, **sweep_kwargs)
    t_serial = time.perf_counter() - t0
    print(f"serial:                 {t_serial:7.2f} s")

    workers = []
    try:
        # Construct one at a time inside the try: a failed second
        # spawn must still reap the first.
        workers.append(_Worker())
        workers.append(_Worker())
        t0 = time.perf_counter()
        remote = figure3_sweep(
            executor=RemoteExecutor([w.address for w in workers]),
            **sweep_kwargs,
        )
        t_remote = time.perf_counter() - t0
    finally:
        for worker in workers:
            worker.stop()
    print(f"remote (2 workers):     {t_remote:7.2f} s")

    # The wire speed gate, isolated from sweep compute (which buries
    # wire costs at any realistic snapshot count).
    wire = _check_wire_codec(args.seed)
    print(
        f"wire codec speedup over a pickle baseline, "
        f"{wire['n_tasks']}-task chunk: {wire['codec_speedup']:.2f}x "
        f"(encode {wire['encode_speedup']:.2f}x, decode "
        f"{wire['decode_speedup']:.2f}x, payload "
        f"{wire['size_ratio']:.2f}x smaller)"
    )

    failures = []
    kill_landed = False
    retained_entries = 0
    with tempfile.TemporaryDirectory() as store:
        survivor = None
        doomed = None
        watcher = None
        try:
            survivor = _Worker(cache_dir=store)
            if args.quick:
                doomed = _Worker(cache_dir=store, fail_after_chunks=1)
                kill_landed = True  # deterministic: dies after one chunk
            else:
                doomed = _Worker(cache_dir=store)
                landed: list[bool] = []
                watcher = threading.Thread(
                    target=_kill_when_store_populated,
                    args=(doomed, store, landed),
                    daemon=True,
                )
                watcher.start()
            t0 = time.perf_counter()
            survived = figure3_sweep(
                executor=RemoteExecutor(
                    [survivor.address, doomed.address]
                ),
                **sweep_kwargs,
            )
            t_kill = time.perf_counter() - t0
        finally:
            if watcher is not None:
                watcher.join(timeout=10)
                kill_landed = bool(landed)
            if survivor is not None:
                survivor.stop()
            if doomed is not None:
                doomed.stop()
        retained_entries = len(list(pathlib.Path(store).rglob("*.npz")))
    print(
        f"remote, one worker killed: {t_kill:7.2f} s "
        f"(kill landed mid-sweep: {kill_landed}; store retained "
        f"{retained_entries} entries)"
    )

    # Chaos leg: two fault classes at once, injected through the
    # workers' environment exactly as on a real fleet.  Worker A
    # corrupts its second result frame (detected at the coordinator's
    # frame validation, session dropped, chunk requeued); worker B
    # SIGSTOPs itself on its first chunk — hung but connected, so only
    # the heartbeat clock can see it.  Both bench workers pin
    # --max-sessions 1, so once both faults land the fleet is gone and
    # the serial fallback finishes the remaining chunks in-process.
    # The figure data must come out bit-identical regardless.
    chaos_workers = []
    try:
        chaos_workers.append(
            _Worker(chaos="frame-corrupt:type=result:nth=2")
        )
        chaos_workers.append(_Worker(chaos="worker-sigstop:chunk=1"))
        chaos_executor = RemoteExecutor(
            [w.address for w in chaos_workers],
            heartbeat_interval=2.0,
            connect_attempts=4,
            on_fleet_loss="serial",
        )
        t0 = time.perf_counter()
        chaos_result = figure3_sweep(
            executor=chaos_executor, **sweep_kwargs
        )
        t_chaos = time.perf_counter() - t0
    finally:
        for worker in chaos_workers:
            worker.stop()
    chaos_stats = chaos_executor.last_sweep_stats
    print(
        f"remote, chaos (corrupt result + SIGSTOP): {t_chaos:7.2f} s "
        f"({chaos_stats.heartbeat_timeouts} heartbeat timeout(s), "
        f"{chaos_stats.requeued_chunks} chunk(s) requeued, "
        f"{chaos_stats.serial_fallback_chunks} finished in-process)"
    )

    # Heterogeneous capacity: one autolaunched fleet per leg — a
    # capacity-1 and a capacity-2 worker with identical per-task
    # latency injected (`--throttle`: sleep, not CPU, so the
    # capacity-2 worker genuinely runs two chunks at once even on a
    # one-core box) — swept capacity-blind and capacity-aware.  Both
    # legs pay identical launch + pool-spawn + throttle overhead; the
    # wall-clock difference is purely the schedule keeping the wide
    # worker's extra slot busy.  More trials than the headline legs so
    # the chunk count gives the scheduler granularity to exploit.
    hetero_trials = max(2 * trials, 8)
    hetero_kwargs = dict(sweep_kwargs, n_trials=hetero_trials)
    hetero_throttle = 1.5
    hetero_serial = figure3_sweep(workers=1, **hetero_kwargs)
    t0 = time.perf_counter()
    uniform = figure3_sweep(
        executor=RemoteExecutor(
            launcher=LocalLauncher(
                2,
                capacities=[1, 2],
                throttles=hetero_throttle,
            ),
            capacity_aware=False,
        ),
        **hetero_kwargs,
    )
    t_uniform = time.perf_counter() - t0
    print(
        f"elastic hetero ({len(fractions) * hetero_trials} tasks, "
        f"{hetero_throttle}s/task latency), uniform:        "
        f"{t_uniform:7.2f} s"
    )
    t0 = time.perf_counter()
    aware = figure3_sweep(
        executor=RemoteExecutor(
            launcher=LocalLauncher(
                2,
                capacities=[1, 2],
                throttles=hetero_throttle,
            ),
        ),
        **hetero_kwargs,
    )
    t_aware = time.perf_counter() - t0
    capacity_gain = t_uniform / t_aware if t_aware > 0 else float("inf")
    print(
        f"elastic hetero, capacity-aware:                   "
        f"{t_aware:7.2f} s ({capacity_gain:.2f}x vs uniform)"
    )

    # Wire security: the same autolaunched fleet shape swept plain and
    # secured (TLS + shared secret).  Both legs pay identical launch,
    # connect, and compute costs, so the wall-clock ratio isolates what
    # the HMAC handshake plus the TLS record layer actually cost; each
    # leg runs twice and keeps its best time to damp runner noise.
    from repro.eval.dist import client_context, generate_self_signed

    secure_secret = "bench-dist-fleet-token"
    with tempfile.TemporaryDirectory() as tls_dir:
        tls_paths = generate_self_signed(tls_dir)

        def _autolaunch_leg(secured: bool):
            if secured:
                executor = RemoteExecutor(
                    launcher=LocalLauncher(
                        2,
                        secret=secure_secret,
                        tls_cert=tls_paths.cert,
                        tls_key=tls_paths.key,
                    ),
                    secret=secure_secret,
                    ssl_context=client_context(cafile=tls_paths.cert),
                )
            else:
                executor = RemoteExecutor(launcher=LocalLauncher(2))
            t0 = time.perf_counter()
            result = figure3_sweep(executor=executor, **sweep_kwargs)
            return time.perf_counter() - t0, result

        t_plain, plain_autolaunch = _autolaunch_leg(False)
        t_plain = min(t_plain, _autolaunch_leg(False)[0])
        t_secure, secure_autolaunch = _autolaunch_leg(True)
        t_secure = min(t_secure, _autolaunch_leg(True)[0])
        secure_overhead = (
            t_secure / t_plain if t_plain > 0 else float("inf")
        )
        print(
            f"autolaunch (2 workers), plain:       {t_plain:7.2f} s"
        )
        print(
            f"autolaunch, TLS + shared secret:     {t_secure:7.2f} s "
            f"({secure_overhead:.2f}x vs plain)"
        )

        fail_closed = _check_fail_closed(
            tls_paths, secure_secret, sweep_kwargs
        )
        for label, (ok, detail) in fail_closed.items():
            print(
                f"fail-closed [{label}]: "
                f"{'OK' if ok else 'FAILED'} — {detail}"
            )

    orphan_ok, orphan_detail = _check_orphan_teardown()
    print(orphan_detail)

    _print_series("serial", fractions, _points_as_dicts(serial))

    reference = _points_as_dicts(serial)
    hetero_reference = _points_as_dicts(hetero_serial)
    for label, result, expected in (
        ("remote", remote, reference),
        ("remote-kill", survived, reference),
        ("remote-chaos", chaos_result, reference),
        ("elastic-uniform", uniform, hetero_reference),
        ("elastic-aware", aware, hetero_reference),
        ("plain-autolaunch", plain_autolaunch, reference),
        ("secure-autolaunch", secure_autolaunch, reference),
    ):
        if _points_as_dicts(result) != expected:
            failures.append(
                f"{label} figure data differs from the serial reference"
            )
    if not failures:
        print(
            "bit-identical: serial == remote == remote-kill == "
            "remote-chaos == plain-autolaunch == secure-autolaunch and "
            "serial == elastic-uniform == elastic-aware"
        )

    if args.require_survival:
        if not kill_landed:
            failures.append(
                "the sweep finished before the worker could be killed; "
                "nothing was tested — rerun with a larger workload"
            )
        if retained_entries == 0:
            failures.append(
                "shared store retained no completed chunks after the kill"
            )
        if not orphan_ok:
            failures.append(orphan_detail)
    if args.require_chaos:
        if chaos_stats.heartbeat_timeouts < 1:
            failures.append(
                "chaos leg: the SIGSTOP'd worker was never detected by "
                "the heartbeat clock"
            )
        if chaos_stats.worker_losses < 1:
            failures.append(
                "chaos leg: no worker loss was recorded despite the "
                "injected faults"
            )
        if chaos_stats.serial_fallback_chunks < 1:
            failures.append(
                "chaos leg: the serial fleet-loss fallback never ran"
            )
    if args.require_capacity_gain and capacity_gain <= 1.0:
        failures.append(
            f"capacity-aware schedule did not beat uniform chunking "
            f"({capacity_gain:.2f}x)"
        )
    if (
        args.require_secure_overhead is not None
        and secure_overhead > args.require_secure_overhead
    ):
        failures.append(
            f"secured autolaunch sweep cost {secure_overhead:.2f}x the "
            f"plain autolaunch wall-clock (budget "
            f"{args.require_secure_overhead:.2f}x)"
        )
    if args.require_fail_closed:
        for label, (ok, detail) in fail_closed.items():
            if not ok:
                failures.append(f"fail-closed [{label}]: {detail}")
    if (
        args.require_wire_gain is not None
        and wire["codec_speedup"] < args.require_wire_gain
    ):
        failures.append(
            f"chunk codec beat the pickle baseline by only "
            f"{wire['codec_speedup']:.2f}x "
            f"(required {args.require_wire_gain:.2f}x)"
        )

    speedup = t_serial / t_remote if t_remote > 0 else float("inf")
    print(f"remote speedup over serial: {speedup:.2f}x")
    if (os.cpu_count() or 1) < 3:
        print(
            "note: localhost workers share "
            f"{os.cpu_count() or 1} core(s) with the coordinator — "
            "this run measures correctness and protocol overhead, not "
            "scale-out; real speedup needs workers on other hosts"
        )
    write_bench_json(
        "dist",
        params={
            "scale": scale,
            "fractions": list(fractions),
            "trials": trials,
            "seed": args.seed,
            "n_snapshots": config.n_snapshots,
            "n_tasks": n_tasks,
            "workers": 2,
            "quick": args.quick,
            "kill_mode": "fail-after-chunks" if args.quick else "sigkill",
            "cpu_count": os.cpu_count() or 1,
            "hetero_trials": hetero_trials,
            "hetero_throttle_s": hetero_throttle,
            "wire_bench_tasks": wire["n_tasks"],
            "wire_pickle_bytes": wire["pickle_bytes"],
            "wire_codec_bytes": wire["codec_bytes"],
        },
        timings_s={
            "serial": t_serial,
            "remote": t_remote,
            "remote_kill": t_kill,
            "remote_chaos": t_chaos,
            "elastic_uniform": t_uniform,
            "elastic_aware": t_aware,
            "plain_autolaunch": t_plain,
            "secure_autolaunch": t_secure,
        },
        ratios={
            "remote_speedup": speedup,
            "wire_codec_speedup": wire["codec_speedup"],
            "wire_encode_speedup": wire["encode_speedup"],
            "wire_decode_speedup": wire["decode_speedup"],
            "wire_size_ratio": wire["size_ratio"],
            "capacity_gain": capacity_gain,
            "secure_overhead": secure_overhead,
            "identical": float(not failures),
            "kill_landed": float(kill_landed),
            "chaos_heartbeat_timeouts": float(
                chaos_stats.heartbeat_timeouts
            ),
            "chaos_requeued_chunks": float(chaos_stats.requeued_chunks),
            "chaos_serial_fallback_chunks": float(
                chaos_stats.serial_fallback_chunks
            ),
            "retained_entries": float(retained_entries),
            "orphan_teardown_ok": float(orphan_ok),
            "fail_closed_wrong_secret": float(
                fail_closed["wrong_secret"][0]
            ),
            "fail_closed_no_secret": float(fail_closed["no_secret"][0]),
        },
    )

    if not args.require_identical:
        # Mismatches are always *reported*; only gate when asked.
        failures = [f for f in failures if "differs" not in f]
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
