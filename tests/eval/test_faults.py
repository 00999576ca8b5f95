"""Chaos-injection plane: every fault class is detected and survived.

Each sweep-level test here follows one shape: run the sweep serially,
run it again under an installed :class:`FaultPlan`, and require the
results bit-identical — faults may cost retries, requeues or fallbacks,
never correctness.  Frame faults are scoped by frame *type* because the
in-process fleet shares the process-global plan: ``result``/``pong``
frames are worker sends, ``chunk``/``ping``/``context`` frames are
coordinator sends.
"""

import os
import pathlib
import time

import pytest

from repro.eval.dist import (
    FaultPlan,
    FaultSpecError,
    LocalLauncher,
    RemoteExecutor,
    faults,
)
from repro.eval.parallel import run_scenario_tasks, scenario_tasks
from repro.simulate.experiment import ExperimentConfig

from dist_support import assert_identical, worker_fleet

FAST = ExperimentConfig(n_snapshots=120, packets_per_path=200)

pytestmark = pytest.mark.timeout(120)


def _tasks(seed, n_trials=3):
    return scenario_tasks(
        "clustered", {"congested_fraction": 0.1}, n_trials=n_trials, seed=seed
    )


def _serial(instance, tasks):
    return run_scenario_tasks(instance, tasks, config=FAST, workers=1)


class TestFaultSpecParsing:
    @pytest.mark.parametrize(
        "spec",
        [
            "bogus-fault",
            "frame-drop:nth",  # key without value
            "frame-drop:seconds=2",  # not a knob frame-drop takes
            "frame-delay:seconds=abc",  # non-numeric value
            "worker-kill",  # chunk faults require chunk=K
            "compute-stall:seconds=1",
            "",
            "  ,  ",
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(spec)

    def test_spec_grammar_round_trip(self):
        plan = FaultPlan.parse(
            "frame-corrupt:type=result:nth=2,connect-refuse:n=1,"
            "worker-freeze:chunk=3:seconds=1.5"
        )
        assert len(plan.faults) == 3
        assert plan.frame_send_action({"type": "chunk"}) is None
        # nth=2: the first matching result frame passes untouched...
        assert plan.frame_send_action({"type": "result"}) is None
        # ...the second is corrupted, and the counter never re-fires.
        assert plan.frame_send_action({"type": "result"}) == "corrupt"
        assert plan.frame_send_action({"type": "result"}) is None
        assert plan.refuse_connect() is True
        assert plan.refuse_connect() is False  # n=1 exhausted
        assert plan.chunk_fault(1) is None
        assert plan.chunk_fault(3) == ("freeze", 1.5)

    def test_env_install_round_trip(self, monkeypatch):
        monkeypatch.setenv(faults.CHAOS_ENV, "connect-refuse:n=2")
        monkeypatch.setenv(faults.CHAOS_SEED_ENV, "7")
        plan = faults.plan_from_env(allow_process_faults=True)
        assert plan is not None and plan.allow_process_faults
        monkeypatch.delenv(faults.CHAOS_ENV)
        assert faults.plan_from_env() is None

    def test_installed_scopes_and_restores(self):
        outer = FaultPlan.parse("connect-refuse:n=1")
        with faults.installed(outer):
            assert faults.active_plan() is outer
            with faults.installed(FaultPlan.parse("shm-enospc")):
                assert faults.active_plan() is not outer
            assert faults.active_plan() is outer
        assert faults.active_plan() is None


class TestFrameFaults:
    def _chaos_sweep(self, instance, tasks, spec, n_workers=2, **kwargs):
        with worker_fleet(n_workers) as servers:
            executor = RemoteExecutor(
                [server.address for server in servers],
                transport="socket",
                **kwargs,
            )
            with faults.installed(FaultPlan.parse(spec)):
                remote = run_scenario_tasks(
                    instance, tasks, config=FAST, executor=executor
                )
        return remote, executor.last_sweep_stats

    def test_corrupt_result_frame_is_detected_and_requeued(
        self, planetlab_small
    ):
        tasks = _tasks(seed=80)
        serial = _serial(planetlab_small, tasks)
        remote, stats = self._chaos_sweep(
            planetlab_small, tasks, "frame-corrupt:type=result:nth=1"
        )
        assert_identical(serial, remote)
        assert stats.worker_losses >= 1
        assert stats.requeued_chunks >= 1

    def test_truncated_result_frame_is_detected_and_requeued(
        self, planetlab_small
    ):
        tasks = _tasks(seed=81)
        serial = _serial(planetlab_small, tasks)
        remote, stats = self._chaos_sweep(
            planetlab_small, tasks, "frame-truncate:type=result:nth=1"
        )
        assert_identical(serial, remote)
        assert stats.worker_losses >= 1

    def test_corrupt_chunk_frame_survives_worker_side_validation(
        self, planetlab_small
    ):
        """The coordinator's own sends are fair game too: a corrupted
        chunk frame kills that session at the worker and the chunk is
        recomputed elsewhere."""
        tasks = _tasks(seed=82)
        serial = _serial(planetlab_small, tasks)
        remote, stats = self._chaos_sweep(
            planetlab_small, tasks, "frame-corrupt:type=chunk:nth=1"
        )
        assert_identical(serial, remote)
        assert stats.requeued_chunks >= 1

    def test_dropped_result_frame_hits_the_chunk_deadline(
        self, planetlab_small
    ):
        """A swallowed result is invisible to heartbeats — the worker
        keeps beating — so the per-chunk deadline is what recovers it."""
        tasks = _tasks(seed=83)
        serial = _serial(planetlab_small, tasks)
        started = time.monotonic()
        remote, stats = self._chaos_sweep(
            planetlab_small,
            tasks,
            "frame-drop:type=result:nth=1",
            chunk_deadline=1.0,
        )
        elapsed = time.monotonic() - started
        assert_identical(serial, remote)
        assert stats.deadline_timeouts >= 1
        assert stats.requeued_chunks >= 1
        assert elapsed < 60


class TestConnectFaults:
    def test_refused_connect_is_retried_with_backoff(self, planetlab_small):
        tasks = _tasks(seed=84)
        serial = _serial(planetlab_small, tasks)
        with worker_fleet(1) as servers:
            executor = RemoteExecutor(
                [server.address for server in servers],
                connect_attempts=3,
            )
            with faults.installed(FaultPlan.parse("connect-refuse:n=1")):
                remote = run_scenario_tasks(
                    planetlab_small, tasks, config=FAST, executor=executor
                )
        assert_identical(serial, remote)
        stats = executor.last_sweep_stats
        assert stats.connect_retries >= 1
        assert stats.sessions == 1

    def test_unreachable_fleet_degrades_to_serial(self, planetlab_small):
        """Every connect refused, retries exhausted: ``--on-fleet-loss
        serial`` finishes the sweep in-process instead of failing."""
        tasks = _tasks(seed=85)
        serial = _serial(planetlab_small, tasks)
        with worker_fleet(1) as servers:
            executor = RemoteExecutor(
                [server.address for server in servers],
                connect_attempts=2,
                on_fleet_loss="serial",
            )
            with faults.installed(FaultPlan.parse("connect-refuse")):
                remote = run_scenario_tasks(
                    planetlab_small, tasks, config=FAST, executor=executor
                )
        assert_identical(serial, remote)
        stats = executor.last_sweep_stats
        assert stats.sessions == 0
        assert stats.serial_fallback_chunks == len(tasks)


class TestWorkerFaults:
    def test_frozen_worker_trips_the_heartbeat(self, planetlab_small):
        """SIGSTOP-in-miniature: the session stays connected but goes
        completely silent (no pongs either).  Detection must come from
        the liveness clock, well before the freeze ends."""
        tasks = _tasks(seed=86)
        serial = _serial(planetlab_small, tasks)
        freeze = 8.0
        started = time.monotonic()
        # The plan is process-global, so *every* in-process worker
        # freezes at its first chunk: the whole fleet goes silent and
        # the serial fallback finishes the sweep after detection.
        with worker_fleet(2) as servers:
            executor = RemoteExecutor(
                [server.address for server in servers],
                heartbeat_interval=0.5,
                on_fleet_loss="serial",
            )
            with faults.installed(
                FaultPlan.parse(f"worker-freeze:chunk=1:seconds={freeze}")
            ):
                remote = run_scenario_tasks(
                    planetlab_small, tasks, config=FAST, executor=executor
                )
            elapsed = time.monotonic() - started
        assert_identical(serial, remote)
        stats = executor.last_sweep_stats
        assert stats.heartbeat_timeouts >= 1
        assert stats.requeued_chunks >= 1
        # The sweep finished while the frozen worker was still frozen:
        # detection came from the heartbeat, not from outwaiting the
        # stall.
        assert elapsed < freeze

    def test_stalled_compute_trips_the_deadline_not_the_heartbeat(
        self, planetlab_small
    ):
        """The complement of the freeze: the worker's heartbeat thread
        keeps beating while its compute is wedged, so only the chunk
        deadline can recover the sweep."""
        tasks = _tasks(seed=87)
        serial = _serial(planetlab_small, tasks)
        stall = 8.0
        started = time.monotonic()
        with worker_fleet(2) as servers:
            executor = RemoteExecutor(
                [server.address for server in servers],
                heartbeat_interval=0.5,
                chunk_deadline=1.5,
                on_fleet_loss="serial",
            )
            with faults.installed(
                FaultPlan.parse(f"compute-stall:chunk=1:seconds={stall}")
            ):
                remote = run_scenario_tasks(
                    planetlab_small, tasks, config=FAST, executor=executor
                )
            elapsed = time.monotonic() - started
        assert_identical(serial, remote)
        stats = executor.last_sweep_stats
        assert stats.deadline_timeouts >= 1
        assert elapsed < stall

    def test_in_process_kill_degrades_to_session_drop(self, planetlab_small):
        """``worker-kill`` without ``allow_process_faults`` (an
        in-process plan) must never take the test process down — it
        degrades to dropping the session, and the fleet-loss fallback
        completes the sweep."""
        tasks = _tasks(seed=88)
        serial = _serial(planetlab_small, tasks)
        with worker_fleet(2) as servers:
            executor = RemoteExecutor(
                [server.address for server in servers],
                on_fleet_loss="serial",
            )
            with faults.installed(FaultPlan.parse("worker-kill:chunk=1")):
                remote = run_scenario_tasks(
                    planetlab_small, tasks, config=FAST, executor=executor
                )
        assert_identical(serial, remote)
        assert executor.last_sweep_stats.serial_fallback_chunks >= 1


@pytest.mark.skipif(
    not pathlib.Path("/dev/shm").is_dir(),
    reason="POSIX shared memory not mounted",
)
class TestShmFaults:
    def test_corrupted_slot_fails_the_crc_and_requeues(
        self, planetlab_small
    ):
        """One shm slot is damaged after its CRC is stamped; whichever
        side reads it gets a checksum mismatch — a detected, retriable
        transport error, not silent data corruption."""
        tasks = _tasks(seed=89)
        serial = _serial(planetlab_small, tasks)
        with worker_fleet(2) as servers:
            executor = RemoteExecutor(
                [server.address for server in servers],
                transport="shm",
            )
            with faults.installed(FaultPlan.parse("shm-corrupt:nth=1")):
                remote = run_scenario_tasks(
                    planetlab_small, tasks, config=FAST, executor=executor
                )
        assert_identical(serial, remote)
        stats = executor.last_sweep_stats
        assert stats.shm_sessions >= 1
        assert stats.worker_losses >= 1
        assert stats.requeued_chunks >= 1
        assert not sorted(
            pathlib.Path("/dev/shm").glob("repro-ring-*")
        ), "rings must be unlinked even on a corrupted-session teardown"


class TestRealProcessFaults:
    @pytest.mark.timeout(300)
    def test_sigstopped_worker_is_detected_and_reaped(
        self, planetlab_small, monkeypatch
    ):
        """The acceptance scenario end to end, with real processes:
        autolaunched workers SIGSTOP themselves at their first chunk
        (chaos rides the child environment), the heartbeat detects the
        hang, the fleet-loss fallback finishes the sweep, and the
        staged teardown (SIGCONT+SIGTERM, then SIGKILL) reaps the
        stopped processes."""
        monkeypatch.setenv(faults.CHAOS_ENV, "worker-sigstop:chunk=1")
        tasks = _tasks(seed=90)
        serial = _serial(planetlab_small, tasks)
        launcher = LocalLauncher(2)
        specs = launcher.launch()
        pids = [worker.pid for worker in launcher.workers]
        try:
            executor = RemoteExecutor(
                specs,
                heartbeat_interval=0.5,
                connect_attempts=1,
                on_fleet_loss="serial",
            )
            started = time.monotonic()
            remote = run_scenario_tasks(
                planetlab_small, tasks, config=FAST, executor=executor
            )
            elapsed = time.monotonic() - started
        finally:
            launcher.shutdown()
        assert_identical(serial, remote)
        stats = executor.last_sweep_stats
        assert stats.heartbeat_timeouts >= 1
        assert stats.serial_fallback_chunks >= 1
        # Detection came from the liveness clock: the stopped workers
        # never resumed on their own, yet the sweep finished promptly.
        assert elapsed < 60
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
