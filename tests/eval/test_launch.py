"""Worker autolaunch: lifecycle, readiness, lifeline, SSH command shape."""

import os
import socket
import subprocess
import sys
import time

import pytest

from repro.eval.dist import (
    HostSpec,
    LaunchError,
    LocalLauncher,
    RemoteExecutor,
    SshLauncher,
)
from repro.eval.parallel import run_scenario_tasks, scenario_tasks
from repro.simulate.experiment import ExperimentConfig

from dist_support import assert_identical

FAST = ExperimentConfig(n_snapshots=120, packets_per_path=200)


def _assert_gone(pids, timeout=20.0):
    deadline = time.monotonic() + timeout
    for pid in pids:
        while True:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            if time.monotonic() > deadline:
                pytest.fail(f"worker process {pid} still alive")
            time.sleep(0.05)


class TestLocalLauncher:
    def test_launch_and_teardown_lifecycle(self):
        launcher = LocalLauncher(2, capacities=[1, 2])
        specs = launcher.launch()
        pids = [worker.pid for worker in launcher.workers]
        try:
            assert len(specs) == 2
            assert launcher.worker_slots == 3
            # Every announced endpoint is actually connectable.
            for spec in specs:
                socket.create_connection(spec.endpoint, timeout=5).close()
        finally:
            launcher.shutdown()
        assert launcher.workers == []
        _assert_gone(pids)
        launcher.shutdown()  # idempotent

    def test_spawn_failure_raises_launch_error(self):
        launcher = LocalLauncher(1, python="/nonexistent-interpreter")
        with pytest.raises(LaunchError, match="failed to spawn"):
            launcher.launch()
        assert launcher.workers == []

    def test_startup_failure_reports_output_and_cleans_up(self):
        # /bin/sleep rejects the worker argv immediately: the launcher
        # must surface the exit (not hang) and tear down anything it
        # already started.
        launcher = LocalLauncher(
            1, python="/bin/sleep", startup_timeout=10.0
        )
        with pytest.raises(LaunchError, match="exited with status"):
            launcher.launch()
        assert launcher.workers == []

    def test_double_launch_is_rejected_not_clobbered(self):
        """A second launch() on a live fleet must raise: silently
        replacing the workers list would let one sweep's shutdown kill
        another sweep's fleet."""
        launcher = LocalLauncher(1)
        launcher.launch()
        try:
            with pytest.raises(LaunchError, match="live fleet"):
                launcher.launch()
        finally:
            launcher.shutdown()
        launcher.launch()  # fine again after shutdown
        launcher.shutdown()

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacities must be >= 1"):
            LocalLauncher(2, capacities=[1, 0])
        with pytest.raises(ValueError, match="one value per worker"):
            LocalLauncher(2, capacities=[1, 2, 3])
        with pytest.raises(ValueError, match="n_workers"):
            LocalLauncher(0)

    def test_autolaunched_sweep_matches_serial_and_tears_down(
        self, planetlab_small
    ):
        """The tentpole end-to-end: elastic sweep, bit-identical, no
        orphans once the executor is done."""
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=4, seed=41
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        launcher = LocalLauncher(2, capacities=[1, 2])
        remote = run_scenario_tasks(
            planetlab_small,
            tasks,
            config=FAST,
            executor=RemoteExecutor(launcher=launcher),
        )
        assert_identical(serial, remote)
        # map_chunks' finally tore the fleet down even though nothing
        # failed; the launcher owns no processes any more.
        assert launcher.workers == []

    def test_teardown_after_a_sweep_is_prompt_and_clean(
        self, planetlab_small
    ):
        """Lifeline EOF ends a worker that has served a session at once:
        no 2 s grace, no SIGTERM."""
        teardowns = []

        class TimedLauncher(LocalLauncher):
            def shutdown(self, grace=5.0):
                processes = [worker.process for worker in self.workers]
                started = time.monotonic()
                super().shutdown(grace)
                if processes:
                    teardowns.append(
                        (
                            time.monotonic() - started,
                            [process.returncode for process in processes],
                        )
                    )

        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=1, seed=41
        )
        run_scenario_tasks(
            planetlab_small,
            tasks,
            config=FAST,
            executor=RemoteExecutor(launcher=TimedLauncher(1)),
        )
        [(elapsed, returncodes)] = teardowns
        assert returncodes == [0]
        assert elapsed < 1.0


class TestLifeline:
    def test_worker_exits_when_stdin_closes(self):
        import pathlib

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            pathlib.Path(repro.__file__).resolve().parent.parent
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "worker",
                "--bind",
                "127.0.0.1",
                "--port",
                "0",
                "--capacity",
                "1",
                "--exit-on-stdin-close",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            assert "worker listening on" in line
            process.stdin.close()  # the coordinator "dies"
            assert process.wait(timeout=20) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()


class TestSshLauncher:
    @pytest.fixture()
    def fake_ssh(self, tmp_path):
        """A stand-in `ssh` that runs the remote command locally.

        Receives ``<target> repro-tomography worker ...`` exactly like
        a real SSH client and execs the worker through this
        interpreter, relaying stdio — which is all the launcher's
        lifecycle logic can observe.
        """
        import pathlib

        import repro

        package_root = pathlib.Path(repro.__file__).resolve().parent.parent
        script = tmp_path / "fake-ssh.py"
        script.write_text(
            "import os, subprocess, sys\n"
            "args = sys.argv[1:]\n"
            "target = args.pop(0)\n"
            "assert args.pop(0) == 'repro-tomography'\n"
            "env = dict(os.environ)\n"
            f"env['PYTHONPATH'] = {str(package_root)!r}\n"
            f"sys.exit(subprocess.call([{sys.executable!r}, '-m',"
            " 'repro.cli', *args], env=env))\n"
        )
        return [sys.executable, str(script)]

    @staticmethod
    def _free_port():
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_ssh_launch_lifecycle(self, fake_ssh):
        port = self._free_port()
        launcher = SshLauncher(
            f"alice@127.0.0.1:{port}",
            capacities=1,
            ssh_command=fake_ssh,
        )
        specs = launcher.launch()
        try:
            assert specs == [HostSpec("127.0.0.1", port, "alice")]
            socket.create_connection(specs[0].endpoint, timeout=5).close()
        finally:
            pids = [worker.pid for worker in launcher.workers]
            launcher.shutdown()
        _assert_gone(pids)

    def test_ssh_command_shape(self):
        """The argv handed to SSH is exactly the documented invocation."""
        launcher = SshLauncher(
            "alice@hostA:7100,hostB:7200",
            capacities=[2, None],
            cache_dir="/shared/store",
        )
        recorded = []
        launcher._spawn = (
            lambda argv, describe, env=None, **kwargs: recorded.append(argv)
        )
        launcher._spawn_all()
        assert recorded[0] == [
            "ssh",
            "-o",
            "BatchMode=yes",
            "alice@hostA",
            "repro-tomography",
            "worker",
            "--bind",
            "0.0.0.0",
            "--port",
            "7100",
            "--exit-on-stdin-close",
            "--capacity",
            "2",
            "--cache-dir",
            "/shared/store",
        ]
        assert recorded[1][3] == "hostB"  # no user prefix
        assert "--capacity" not in recorded[1]  # remote CPU default

    def test_worker_slots_counts_capacities(self):
        from repro.eval.dist.launch import ASSUMED_REMOTE_SLOTS

        launcher = SshLauncher(
            "a:7100,b:7200", capacities=[2, None]
        )
        # None = remote CPU default, planned with assumed granularity
        # so the advertised pipeline can actually be filled.
        assert launcher.worker_slots == 2 + ASSUMED_REMOTE_SLOTS

    def test_secret_rides_stdin_never_argv(self):
        """The SSH command line must not leak the token: the worker is
        started with --secret-stdin and the value travels the pipe."""
        launcher = SshLauncher(
            "hostA:7100",
            secret="hunter2-token",
            tls_cert="/remote/cert.pem",
            tls_key="/remote/key.pem",
        )
        recorded = []

        def record(argv, describe, env=None, **kwargs):
            recorded.append((argv, kwargs))

        launcher._spawn = record
        launcher._spawn_all()
        argv, kwargs = recorded[0]
        assert "--secret-stdin" in argv
        assert all("hunter2-token" not in piece for piece in argv)
        assert kwargs["stdin_line"] == "hunter2-token"
        assert argv[argv.index("--tls-cert") + 1] == "/remote/cert.pem"
        assert argv[argv.index("--tls-key") + 1] == "/remote/key.pem"

    def test_stdin_secret_delivery_end_to_end(self, fake_ssh):
        """A fake-SSH worker really reads the token off the channel."""
        from repro.eval.dist import client_handshake

        port = self._free_port()
        launcher = SshLauncher(
            f"127.0.0.1:{port}",
            capacities=1,
            ssh_command=fake_ssh,
            secret="stdin-delivered-token",
        )
        specs = launcher.launch()
        try:
            sock = socket.create_connection(specs[0].endpoint, timeout=5)
            try:
                version = client_handshake(sock, b"stdin-delivered-token")
            finally:
                sock.close()
            assert version >= 3
        finally:
            launcher.shutdown()

    def test_tls_material_must_pair(self):
        with pytest.raises(ValueError, match="together"):
            SshLauncher("a:7100", tls_cert="/cert.pem")
        with pytest.raises(ValueError, match="together"):
            LocalLauncher(1, tls_key="/key.pem")


class TestLocalLauncherSecurity:
    def test_secret_rides_environment_never_argv(self):
        launcher = LocalLauncher(1, secret="local-fleet-token")
        recorded = []

        def record(argv, describe, env=None, **kwargs):
            recorded.append((argv, env, kwargs))

        launcher._spawn = record
        launcher._spawn_all()
        argv, env, kwargs = recorded[0]
        assert all("local-fleet-token" not in piece for piece in argv)
        assert env["REPRO_DIST_SECRET"] == "local-fleet-token"
        assert kwargs.get("stdin_line") is None

    def test_env_secret_sweep_bit_identical(self, planetlab_small):
        """Autolaunched local fleet + coordinator secret, end to end."""
        from repro.eval.dist import RemoteExecutor as Executor

        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=71
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        launcher = LocalLauncher(2, secret="env-fleet-token")
        remote = run_scenario_tasks(
            planetlab_small,
            tasks,
            config=FAST,
            executor=Executor(
                launcher=launcher, secret="env-fleet-token"
            ),
        )
        assert_identical(serial, remote)
        assert launcher.workers == []


class TestReadinessDeath:
    def test_misconfigured_tls_surfaces_stderr_promptly(self):
        """A worker dying on a bad TLS path must raise LaunchError with
        the worker's own error output, well before startup_timeout."""
        launcher = LocalLauncher(
            1,
            tls_cert="/nonexistent/cert.pem",
            tls_key="/nonexistent/key.pem",
            startup_timeout=60.0,
        )
        start = time.monotonic()
        with pytest.raises(LaunchError) as excinfo:
            launcher.launch()
        elapsed = time.monotonic() - start
        assert elapsed < 30, (
            f"death took {elapsed:.1f}s to surface — the readiness "
            "wait timed out instead of noticing the exit"
        )
        message = str(excinfo.value)
        assert "exited with status" in message
        assert "TLS" in message or "tls" in message
        assert launcher.workers == []

    def test_dead_worker_with_held_pipe_surfaces_promptly(self, tmp_path):
        """EOF never arrives when a grandchild inherits stdout; the
        poll on the process itself must surface the death anyway."""
        wrapper = tmp_path / "die-but-hold-pipe.py"
        wrapper.write_text(
            "import subprocess, sys\n"
            # A grandchild that inherits our stdout and outlives us.
            "subprocess.Popen([sys.executable, '-c',"
            " 'import time; time.sleep(45)'])\n"
            "print('worker failed: injected startup error',"
            " flush=True)\n"
            "sys.exit(3)\n"
        )
        launcher = LocalLauncher(1, startup_timeout=60.0)
        real_argv = [sys.executable, str(wrapper)]
        original_spawn = launcher._spawn
        launcher._spawn = (
            lambda argv, describe, env=None, **kwargs: original_spawn(
                real_argv, describe, env, **kwargs
            )
        )
        start = time.monotonic()
        with pytest.raises(LaunchError) as excinfo:
            launcher.launch()
        elapsed = time.monotonic() - start
        assert elapsed < 30
        assert "exited with status 3" in str(excinfo.value)
        assert "injected startup error" in str(excinfo.value)


class TestStagedTeardown:
    """S1: lifeline EOF → SIGCONT+SIGTERM → SIGKILL, bounded and total."""

    @staticmethod
    def _stub_worker(body):
        process = subprocess.Popen(
            [sys.executable, "-c", body],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        from repro.eval.dist import LaunchedWorker

        worker = LaunchedWorker(process, "stub")
        worker.watcher.ready.wait(timeout=20)
        return worker

    def test_sigterm_immune_worker_is_sigkilled(self):
        """A worker that ignores both the lifeline and SIGTERM still
        dies — the escalation must bottom out in SIGKILL."""
        worker = self._stub_worker(
            "import signal, time\n"
            "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
            "print('worker listening on 127.0.0.1:1', flush=True)\n"
            "while True:\n"
            "    time.sleep(1)\n"
        )
        start = time.monotonic()
        worker.terminate(grace=1.0)
        elapsed = time.monotonic() - start
        assert worker.process.poll() == -9
        assert elapsed < 15

    def test_sigstopped_worker_is_continued_then_reaped(self):
        """A stopped process sees neither the lifeline EOF nor a
        pending SIGTERM; the SIGCONT stage is what makes graceful
        termination reachable at all."""
        import signal as signal_module

        from repro.eval.dist.launch import WorkerLauncher

        worker = self._stub_worker(
            "import time\n"
            "print('worker listening on 127.0.0.1:1', flush=True)\n"
            "time.sleep(600)\n"
        )
        os.kill(worker.pid, signal_module.SIGSTOP)
        launcher = WorkerLauncher()
        launcher.workers = [worker]
        start = time.monotonic()
        launcher.shutdown(grace=2.0)
        elapsed = time.monotonic() - start
        # Reaped by SIGTERM after the SIGCONT — SIGKILL never needed.
        assert worker.process.poll() == -signal_module.SIGTERM
        assert elapsed < 15
        assert launcher.workers == []

    def test_fleet_shutdown_escalates_in_parallel(self):
        """Escalation cost is one grace period for the fleet, not one
        per worker."""
        from repro.eval.dist.launch import WorkerLauncher

        body = (
            "import signal, time\n"
            "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
            "print('worker listening on 127.0.0.1:1', flush=True)\n"
            "while True:\n"
            "    time.sleep(1)\n"
        )
        workers = [self._stub_worker(body) for _ in range(3)]
        launcher = WorkerLauncher()
        launcher.workers = list(workers)
        start = time.monotonic()
        launcher.shutdown(grace=2.0)
        elapsed = time.monotonic() - start
        for worker in workers:
            assert worker.process.poll() == -9
        # Sequential escalation would cost ~3 × (2 + 2)s; the parallel
        # stages keep the whole fleet inside ~one escalation budget.
        assert elapsed < 10


class TestLaunchRetry:
    @staticmethod
    def _flaky_interpreter(tmp_path, fail_times):
        """A python wrapper that fails its first ``fail_times`` spawns,
        then execs the real interpreter — a crash-on-startup flake."""
        counter = tmp_path / "attempts"
        script = tmp_path / "flaky-python"
        script.write_text(
            "#!/bin/sh\n"
            f'count=$(cat "{counter}" 2>/dev/null || echo 0)\n'
            f'echo $((count + 1)) > "{counter}"\n'
            f"if [ \"$count\" -lt {fail_times} ]; then\n"
            "  echo 'worker failed: transient spawn flake'\n"
            "  exit 7\n"
            "fi\n"
            f'exec "{sys.executable}" "$@"\n'
        )
        script.chmod(0o755)
        return str(script)

    def test_transient_startup_flake_is_relaunched(self, tmp_path):
        launcher = LocalLauncher(
            1,
            python=self._flaky_interpreter(tmp_path, fail_times=1),
            launch_attempts=2,
        )
        specs = launcher.launch()
        try:
            assert len(specs) == 1
            socket.create_connection(specs[0].endpoint, timeout=5).close()
        finally:
            launcher.shutdown()

    def test_retry_budget_is_bounded(self, tmp_path):
        """A deterministically broken worker still fails, with its
        output, after exactly launch_attempts tries."""
        counter_dir = tmp_path / "always"
        counter_dir.mkdir()
        launcher = LocalLauncher(
            1,
            python=self._flaky_interpreter(counter_dir, fail_times=99),
            launch_attempts=2,
        )
        with pytest.raises(LaunchError, match="transient spawn flake"):
            launcher.launch()
        assert launcher.workers == []
        attempts = int((counter_dir / "attempts").read_text())
        assert attempts == 2
