"""Worker autolaunch: spawn, readiness, lifeline, teardown.

PR 3 required every ``repro-tomography worker`` to be started by hand;
this module lets the coordinator own the fleet's lifecycle instead.  A
:class:`WorkerLauncher` is handed to
:class:`repro.eval.dist.RemoteExecutor`, which calls :meth:`launch`
when the sweep begins (spawn the workers, wait for each to announce
``worker listening on host:port``, return the connectable
:class:`~repro.eval.dist.coordinator.HostSpec` list) and
:meth:`shutdown` when it ends — on success *and* on failure.

Two launchers:

* :class:`LocalLauncher` — worker subprocesses on this host
  (``python -m repro.cli worker --port 0``), one per requested
  capacity.  Single-host fan-out without hand-starting anything, and
  the harness every autolaunch test and benchmark leg runs on.
* :class:`SshLauncher` — one ``ssh [user@]host repro-tomography worker
  --bind ... --port ...`` per host spec.  The SSH argv prefix and the
  remote command are injectable, which is also how tests exercise the
  lifecycle without a real SSH daemon.

Teardown has to survive the ugliest exit: a coordinator SIGKILLed
mid-sweep never runs ``shutdown()``.  Every launched worker therefore
gets ``--exit-on-stdin-close`` and a pipe held by the coordinator
process as a *lifeline*: when the coordinator dies — gracefully or not
— the pipe closes, the worker's watchdog thread sees EOF and the
worker exits.  No orphan processes, no leaked ports
(``benchmarks/bench_dist.py`` kills a live coordinator and asserts
exactly this).

The lifeline alone is not sufficient for a *misbehaving* worker,
though: a process that is stopped (SIGSTOP), wedged in non-Python
code, or simply ignoring the watchdog never reacts to EOF.  Explicit
teardown therefore escalates — lifeline EOF, then SIGCONT + SIGTERM
(a stopped process never sees SIGTERM until continued), then SIGKILL
(which ends even a stopped process) — with a bounded wait at each
stage, and :meth:`WorkerLauncher.shutdown` runs the stages across the
whole fleet in parallel so the worst-case teardown cost is one grace
period, not one per worker.  Launch is hardened symmetrically: a
worker that dies before announcing readiness is respawned with the
same argv/env (``launch_attempts``), so one crash-on-startup flake
does not abort a whole sweep.

Security provisioning: both launchers accept ``secret=`` and TLS
material paths and hand them to the workers **without ever putting the
token on a command line** (argv is world-readable in the process
table).  :class:`LocalLauncher` exports ``REPRO_DIST_SECRET`` into the
child's environment; :class:`SshLauncher` cannot carry environment
across a default ``sshd`` config, so it starts the remote worker with
``--secret-stdin`` and writes the token as the first line of the SSH
channel — the same pipe that then serves as the lifeline.  TLS
cert/key *paths* are not secrets and ride on argv.
"""

from __future__ import annotations

import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time

from repro.eval.dist.coordinator import HostSpec, parse_hosts

__all__ = [
    "LaunchError",
    "worker_environment",
    "LaunchedWorker",
    "WorkerLauncher",
    "LocalLauncher",
    "SshLauncher",
]

#: The readiness line a worker prints (and SSH relays) on startup.
_LISTEN_LINE = re.compile(r"worker listening on .*:(\d+)\s*$")

#: Stdout lines kept per worker for launch-failure diagnostics.
_DIAGNOSTIC_LINES = 50

#: Planning slots assumed for an SSH host whose capacity is left to
#: the remote default (the worker advertises its real CPU count only
#: at handshake, after chunking is fixed): enough granularity for a
#: typical multi-core host's pipeline without flooding a small one.
ASSUMED_REMOTE_SLOTS = 4


class LaunchError(RuntimeError):
    """A worker failed to launch or announce readiness in time."""


def _normalize_launch_secret(secret) -> str | None:
    """Coerce a launcher's secret to the text a child will re-read."""
    if secret is None:
        return None
    from repro.eval.dist.auth import normalize_secret

    return normalize_secret(secret).decode("utf-8")


def _validate_tls_pair(tls_cert, tls_key):
    """Certificate and key only travel as a pair."""
    if (tls_cert is None) != (tls_key is None):
        raise ValueError(
            "tls_cert and tls_key must be given together (got "
            f"cert={tls_cert!r}, key={tls_key!r})"
        )
    return tls_cert, tls_key


def _tls_arguments(tls_cert, tls_key) -> list[str]:
    if tls_cert is None:
        return []
    return ["--tls-cert", str(tls_cert), "--tls-key", str(tls_key)]


class _OutputWatcher(threading.Thread):
    """Drain a worker's stdout; capture the readiness line.

    The thread runs for the worker's whole life so the pipe never fills
    and blocks the worker; the first :data:`_DIAGNOSTIC_LINES` lines are
    kept for error reports.
    """

    def __init__(self, stream) -> None:
        super().__init__(daemon=True)
        self._stream = stream
        self.lines: list[str] = []
        self.port: int | None = None
        self.ready = threading.Event()
        self.start()

    def run(self) -> None:
        try:
            for line in self._stream:
                if len(self.lines) < _DIAGNOSTIC_LINES:
                    self.lines.append(line.rstrip("\n"))
                if self.port is None:
                    match = _LISTEN_LINE.search(line.strip())
                    if match:
                        self.port = int(match.group(1))
                        self.ready.set()
        except (OSError, ValueError):
            pass
        finally:
            self.ready.set()  # EOF: wake waiters so they see the death


class LaunchedWorker:
    """One spawned worker process and its readiness state."""

    def __init__(
        self, process: subprocess.Popen, describe: str, *, spawn=None
    ) -> None:
        self.process = process
        self.describe = describe
        self.watcher = _OutputWatcher(process.stdout)
        self.spec: HostSpec | None = None
        #: ``(argv, env, stdin_line)`` recorded at spawn time, so a
        #: worker that dies before readiness can be relaunched
        #: identically (``None`` for hand-constructed workers).
        self.spawn = spawn

    @property
    def pid(self) -> int:
        return self.process.pid

    def await_ready(self, deadline: float, *, poll: float = 0.25) -> int:
        """Block until the listen line appears; returns the bound port.

        The wait polls the process between event checks, so a worker
        that *dies* before announcing its port — a bad TLS key path, a
        malformed secret file, any startup misconfiguration — surfaces
        immediately as a :class:`LaunchError` carrying the exit status
        and the captured output (stderr is merged into stdout at
        spawn), instead of burning the whole ``startup_timeout``.
        Waiting for stdout EOF alone is not enough: a grandchild that
        inherited the pipe (an SSH multiplexer, a wrapper script's own
        child) can hold it open long after the worker is gone.
        """
        while True:
            remaining = deadline - time.monotonic()
            if self.watcher.ready.wait(
                timeout=min(poll, max(remaining, 0.0))
            ):
                if self.watcher.port is not None:
                    return self.watcher.port
                break  # stdout EOF without a listen line: worker died
            if self.process.poll() is not None:
                # Dead before readiness.  Give the drain thread a
                # moment to collect the last (usually most diagnostic)
                # lines, but do not wait for an EOF that an inherited
                # pipe fd may never deliver.
                self.watcher.ready.wait(timeout=1.0)
                break
            if remaining <= 0:
                break
        try:
            status = self.process.wait(timeout=1.0)
        except subprocess.TimeoutExpired:
            status = None
        detail = (
            f"exited with status {status}"
            if status is not None
            else "did not announce its port in time"
        )
        output = "\n".join(self.watcher.lines) or "<no output>"
        raise LaunchError(
            f"worker {self.describe} {detail}; "
            f"output (stdout+stderr):\n{output}"
        )

    # -- staged teardown ----------------------------------------------
    # Each stage is its own method so ``WorkerLauncher.shutdown`` can
    # run a stage across the whole fleet before waiting, instead of
    # paying a full escalation sequentially per worker.

    def close_lifeline(self) -> None:
        """Stage 1: EOF the stdin pipe (normally ends the worker)."""
        if self.process.stdin is not None:
            try:
                self.process.stdin.close()
            except OSError:
                pass

    def signal_terminate(self) -> None:
        """Stage 2: SIGCONT + SIGTERM.

        The SIGCONT matters: a stopped (SIGSTOP'd) worker never
        observes the lifeline EOF and holds SIGTERM pending forever —
        it must be continued before any catchable signal can end it.
        """
        if hasattr(signal, "SIGCONT"):
            try:
                os.kill(self.process.pid, signal.SIGCONT)
            except OSError:
                pass
        try:
            self.process.terminate()
        except OSError:
            pass

    def signal_kill(self) -> None:
        """Stage 3: SIGKILL (ends even a stopped process)."""
        try:
            self.process.kill()
        except OSError:
            pass

    def wait(self, timeout: float) -> bool:
        """Did the process exit within ``timeout`` seconds?"""
        try:
            self.process.wait(timeout=max(timeout, 0.0))
            return True
        except subprocess.TimeoutExpired:
            return False

    def terminate(self, grace: float = 5.0) -> None:
        """Close the lifeline, then escalate SIGTERM → SIGKILL."""
        self.close_lifeline()
        # Lifeline EOF normally ends the worker within a moment.
        if self.wait(min(grace, 2.0)):
            return
        self.signal_terminate()
        if self.wait(grace):
            return
        self.signal_kill()
        self.process.wait()


class WorkerLauncher:
    """Lifecycle strategy for an autolaunched worker fleet.

    ``launch()`` starts the fleet, waits for readiness, and returns the
    :class:`HostSpec` list the coordinator connects to; ``shutdown()``
    tears everything down and is safe to call repeatedly (including
    after a failed ``launch()``).  ``worker_slots`` is the fleet's total
    capacity, used by :meth:`RemoteExecutor.plan` to size chunk
    granularity so every slot can be kept busy.
    """

    #: Overridden by concrete launchers.
    worker_slots: int = 1

    #: Does this launcher's fleet run on the coordinator's own host?
    #: The coordinator's ``transport="auto"`` shm detection trusts this
    #: (a :class:`LocalLauncher` fleet shares ``/dev/shm`` by
    #: construction); launchers that reach other machines leave it
    #: False and rely on per-endpoint loopback detection instead.
    same_host: bool = False

    def __init__(
        self,
        *,
        startup_timeout: float = 30.0,
        launch_attempts: int = 2,
    ) -> None:
        self.startup_timeout = startup_timeout
        #: Spawn attempts per worker before ``launch()`` gives up: a
        #: worker that dies before announcing readiness is relaunched
        #: with the same argv/env, so one crash-on-startup flake (a
        #: transiently busy port, an interpreter OOM) does not abort
        #: the sweep.  A deterministically broken worker still fails,
        #: carrying its last captured output.
        self.launch_attempts = max(1, int(launch_attempts))
        self.workers: list[LaunchedWorker] = []

    def launch(self) -> list[HostSpec]:
        if self.workers:
            # Silently discarding a live fleet would let a concurrent
            # sweep's shutdown() tear down *this* sweep's workers.
            raise LaunchError(
                "launcher already has a live fleet; run concurrent "
                "sweeps with one launcher each (or shutdown() first)"
            )
        try:
            self._spawn_all()
            deadline = time.monotonic() + self.startup_timeout
            for index in range(len(self.workers)):
                attempt = 1
                while True:
                    worker = self.workers[index]
                    try:
                        port = worker.await_ready(deadline)
                        break
                    except LaunchError:
                        if (
                            attempt >= self.launch_attempts
                            or worker.spawn is None
                        ):
                            raise
                        attempt += 1
                        worker.terminate(grace=1.0)
                        argv, env, stdin_line = worker.spawn
                        self.workers[index] = self._start(
                            argv,
                            worker.describe,
                            env,
                            stdin_line=stdin_line,
                        )
                        # The respawn gets its own readiness window.
                        deadline = max(
                            deadline,
                            time.monotonic() + self.startup_timeout,
                        )
                worker.spec = self._spec_for(worker, port)
        except BaseException:
            self.shutdown()
            raise
        return [worker.spec for worker in self.workers]

    def shutdown(self, grace: float = 5.0) -> None:
        """Tear the whole fleet down, escalating in parallel stages.

        Lifeline EOF for everyone, one shared wait; SIGCONT + SIGTERM
        for the stragglers, one shared wait; SIGKILL for whatever is
        left.  The worst-case wall-clock cost is a single grace period
        regardless of fleet size, and even a SIGSTOP'd worker is
        reliably reaped.  Safe to call repeatedly.
        """
        workers, self.workers = self.workers, []
        if not workers:
            return
        for worker in workers:
            worker.close_lifeline()
        deadline = time.monotonic() + min(grace, 2.0)
        stragglers = [
            worker
            for worker in workers
            if not worker.wait(deadline - time.monotonic())
        ]
        if not stragglers:
            return
        for worker in stragglers:
            worker.signal_terminate()
        deadline = time.monotonic() + grace
        stubborn = [
            worker
            for worker in stragglers
            if not worker.wait(deadline - time.monotonic())
        ]
        for worker in stubborn:
            worker.signal_kill()
        for worker in stubborn:
            worker.process.wait()

    def __enter__(self) -> "WorkerLauncher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- subclass hooks ------------------------------------------------
    def _spawn_all(self) -> None:
        raise NotImplementedError

    def _spec_for(self, worker: LaunchedWorker, port: int) -> HostSpec:
        raise NotImplementedError

    # -- shared plumbing -----------------------------------------------
    def _spawn(
        self, argv: list[str], describe: str, env=None, *, stdin_line=None
    ) -> None:
        self.workers.append(
            self._start(argv, describe, env, stdin_line=stdin_line)
        )

    def _start(
        self, argv: list[str], describe: str, env=None, *, stdin_line=None
    ) -> LaunchedWorker:
        try:
            process = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
            )
        except OSError as exc:
            raise LaunchError(
                f"failed to spawn worker {describe}: {exc}"
            ) from exc
        if stdin_line is not None:
            # Private delivery (the shared-secret token for
            # ``--secret-stdin`` workers): first line down the pipe,
            # which then stays open as the lifeline.  A worker that
            # died instantly breaks the pipe here; swallow it and let
            # ``await_ready`` report the death with its output.
            try:
                process.stdin.write(stdin_line + "\n")
                process.stdin.flush()
            except (OSError, ValueError):
                pass
        return LaunchedWorker(
            process, describe, spawn=(list(argv), env, stdin_line)
        )


def worker_environment() -> dict[str, str]:
    """Child env with the ``repro`` package importable.

    ``python -m repro.cli`` in the child must find the same package the
    coordinator runs, whether that is an installed distribution or a
    source tree on ``PYTHONPATH``.
    """
    import repro

    package_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    return env


class LocalLauncher(WorkerLauncher):
    """Spawn worker subprocesses on this host (single-host fan-out).

    Parameters:
        n_workers: Number of worker processes.
        capacities: Per-worker capacity list (an ``int`` broadcasts;
            ``None`` = capacity 1 each — on one host the fan-out itself
            is the parallelism, so per-worker pools default off).
        throttles: Per-worker latency injection in seconds (a ``float``
            broadcasts; ``None`` = no throttling) — benchmark harness
            for simulating hosts of unequal speed on one machine.
        cache_dir: Optional shared trial-cache root passed to every
            worker.
        secret: Shared secret handed to every worker through the child
            environment (``REPRO_DIST_SECRET``) — never argv — so the
            autolaunched fleet demands the same token the coordinator
            authenticates with.
        tls_cert / tls_key: TLS material paths passed to every worker
            (``--tls-cert``/``--tls-key``); the workers then refuse
            plaintext coordinators.  Paths, not secrets, so argv is
            fine.
        python: Interpreter for the workers (default: this one).
        startup_timeout: Seconds allowed for all workers to announce
            readiness.

    The fleet runs on this host (``same_host = True``), so a
    coordinator with ``transport="auto"`` moves chunk/result payloads
    through shared memory instead of the loopback socket.
    """

    same_host = True

    def __init__(
        self,
        n_workers: int = 2,
        *,
        capacities=None,
        throttles=None,
        cache_dir=None,
        secret=None,
        tls_cert=None,
        tls_key=None,
        python: str | None = None,
        startup_timeout: float = 30.0,
        launch_attempts: int = 2,
    ) -> None:
        super().__init__(
            startup_timeout=startup_timeout,
            launch_attempts=launch_attempts,
        )
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if capacities is None:
            capacities = [1] * n_workers
        elif isinstance(capacities, int):
            capacities = [capacities] * n_workers
        else:
            capacities = [int(value) for value in capacities]
        if len(capacities) != n_workers:
            raise ValueError(
                f"capacities must list one value per worker: got "
                f"{len(capacities)} values for {n_workers} workers"
            )
        if any(value < 1 for value in capacities):
            raise ValueError(
                f"capacities must be >= 1, got {capacities}"
            )
        if throttles is None:
            throttles = [0.0] * n_workers
        elif isinstance(throttles, (int, float)):
            throttles = [float(throttles)] * n_workers
        else:
            throttles = [float(value) for value in throttles]
        if len(throttles) != n_workers or any(
            value < 0 for value in throttles
        ):
            raise ValueError(
                f"throttles must list one non-negative value per "
                f"worker, got {throttles}"
            )
        self.n_workers = n_workers
        self.capacities = capacities
        self.throttles = throttles
        self.cache_dir = cache_dir
        self.secret = _normalize_launch_secret(secret)
        self.tls_cert, self.tls_key = _validate_tls_pair(tls_cert, tls_key)
        self.python = python or sys.executable
        self.worker_slots = sum(capacities)

    def _spawn_all(self) -> None:
        env = worker_environment()
        if self.secret is not None:
            # Environment, never argv: `ps` shows argv to every local
            # user, while the child environment stays private.
            env["REPRO_DIST_SECRET"] = self.secret
        for index, (capacity, throttle) in enumerate(
            zip(self.capacities, self.throttles)
        ):
            argv = [
                self.python,
                "-m",
                "repro.cli",
                "worker",
                "--bind",
                "127.0.0.1",
                "--port",
                "0",
                "--capacity",
                str(capacity),
                "--exit-on-stdin-close",
            ]
            if throttle:
                argv += ["--throttle", str(throttle)]
            if self.cache_dir is not None:
                argv += ["--cache-dir", str(self.cache_dir)]
            argv += _tls_arguments(self.tls_cert, self.tls_key)
            self._spawn(argv, f"local[{index}] (capacity {capacity})", env)

    def _spec_for(self, worker: LaunchedWorker, port: int) -> HostSpec:
        return HostSpec("127.0.0.1", port)


class SshLauncher(WorkerLauncher):
    """Spawn one worker per host over SSH.

    Each host spec (``[user@]host:port`` — see
    :func:`repro.eval.dist.coordinator.parse_hosts`) becomes ``ssh
    [user@]host repro-tomography worker --bind <bind> --port <port>``;
    the worker's readiness line is relayed back through the SSH
    channel, and the channel itself is the lifeline — closing it (or
    the coordinator dying) ends the remote worker.

    Parameters:
        hosts: Host specs; the ``port`` is the TCP port the *remote*
            worker binds and the coordinator connects to, so it must be
            reachable and non-conflicting per host.
        capacities: Per-worker capacity (an ``int`` broadcasts;
            ``None`` = let each worker default to its own CPU count).
        ssh_command: SSH argv prefix (swap in extra options — or, in
            tests, a stub that runs the worker locally).
        remote_command: How to run the CLI on the remote host.
        bind: Interface the remote worker binds (default all — the
            coordinator connects over the network; keep it a private
            one, or secure the wire with ``secret``/TLS: an unsecured
            worker runs sweeps for anyone who connects).
        cache_dir: Optional *remote* trial-cache root (a shared
            filesystem path) passed to every worker.
        secret: Shared secret delivered as the first line of the SSH
            channel's stdin (the worker runs with ``--secret-stdin``)
            — SSH does not carry environment without server-side
            ``AcceptEnv``, and argv would leak the token to ``ps`` on
            the coordinator host.
        tls_cert / tls_key: *Remote* paths to the workers' TLS
            material, passed as ``--tls-cert``/``--tls-key``; they
            must be valid on every launched host.
    """

    def __init__(
        self,
        hosts,
        *,
        capacities=None,
        ssh_command=("ssh", "-o", "BatchMode=yes"),
        remote_command=("repro-tomography",),
        bind: str = "0.0.0.0",
        cache_dir=None,
        secret=None,
        tls_cert=None,
        tls_key=None,
        startup_timeout: float = 30.0,
        launch_attempts: int = 2,
    ) -> None:
        super().__init__(
            startup_timeout=startup_timeout,
            launch_attempts=launch_attempts,
        )
        self.specs = parse_hosts(hosts)
        if capacities is None:
            capacities = [None] * len(self.specs)
        elif isinstance(capacities, int):
            capacities = [capacities] * len(self.specs)
        else:
            capacities = [
                None if value is None else int(value)
                for value in capacities
            ]
        if len(capacities) != len(self.specs):
            raise ValueError(
                f"capacities must list one value per host: got "
                f"{len(capacities)} values for {len(self.specs)} hosts"
            )
        if any(value is not None and value < 1 for value in capacities):
            raise ValueError(f"capacities must be >= 1, got {capacities}")
        self.capacities = capacities
        self.ssh_command = list(ssh_command)
        self.remote_command = list(remote_command)
        self.bind = bind
        self.cache_dir = cache_dir
        self.secret = _normalize_launch_secret(secret)
        self.tls_cert, self.tls_key = _validate_tls_pair(tls_cert, tls_key)
        # Unknown (remote-CPU-default) capacities still need chunk
        # granularity to fill the pipeline they will advertise.
        self.worker_slots = sum(
            value if value is not None else ASSUMED_REMOTE_SLOTS
            for value in capacities
        )

    def _spawn_all(self) -> None:
        for spec, capacity in zip(self.specs, self.capacities):
            argv = [
                *self.ssh_command,
                spec.ssh_target,
                *self.remote_command,
                "worker",
                "--bind",
                self.bind,
                "--port",
                str(spec.port),
                "--exit-on-stdin-close",
            ]
            if capacity is not None:
                argv += ["--capacity", str(capacity)]
            if self.cache_dir is not None:
                argv += ["--cache-dir", str(self.cache_dir)]
            argv += _tls_arguments(self.tls_cert, self.tls_key)
            if self.secret is not None:
                # The token itself rides stdin (see _spawn), never the
                # SSH command line.
                argv += ["--secret-stdin"]
            self._spawn(
                argv,
                f"ssh:{spec.ssh_target}:{spec.port}",
                stdin_line=self.secret,
            )

    def _spec_for(self, worker: LaunchedWorker, port: int) -> HostSpec:
        # The remote worker may have bound an ephemeral port (--port 0
        # in the spec is rejected, but a custom remote_command could);
        # trust the announced port, connect to the spec's host.
        index = self.workers.index(worker)
        spec = self.specs[index]
        return HostSpec(spec.host, port, spec.user)
