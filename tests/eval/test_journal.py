"""Crash-safe sweep journal: replay, torn tails, resume bit-identity."""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.eval.dist import (
    JournalMismatchError,
    SweepJournal,
    sweep_fingerprint,
)
from repro.eval.parallel import run_scenario_tasks, scenario_tasks
from repro.simulate.experiment import ExperimentConfig

from dist_support import assert_identical

FAST = ExperimentConfig(n_snapshots=120, packets_per_path=200)

pytestmark = pytest.mark.timeout(120)


def _tasks(seed, n_trials=3):
    return scenario_tasks(
        "clustered", {"congested_fraction": 0.1}, n_trials=n_trials, seed=seed
    )


def _execution_counter(monkeypatch):
    """Count real task executions through the serial engine."""
    from repro.eval import parallel as parallel_module

    executed = []
    real = parallel_module._execute_task

    def counting(instance, config, options, task):
        executed.append(task)
        return real(instance, config, options, task)

    monkeypatch.setattr(parallel_module, "_execute_task", counting)
    return executed


class TestJournalReplay:
    def test_resume_replays_settled_chunks_without_recompute(
        self, planetlab_small, tmp_path, monkeypatch
    ):
        tasks = _tasks(seed=70)
        path = tmp_path / "sweep.jnl"
        first = run_scenario_tasks(
            planetlab_small,
            tasks,
            config=FAST,
            workers=1,
            journal=SweepJournal(path),
        )
        # A full journal resumes with zero recomputation...
        executed = _execution_counter(monkeypatch)
        resumed = run_scenario_tasks(
            planetlab_small,
            tasks,
            config=FAST,
            workers=1,
            journal=SweepJournal(path, resume=True),
        )
        assert executed == []
        # ...and the replayed results are the originals, bit for bit.
        assert_identical(first, resumed)

    def test_partial_journal_recomputes_only_the_missing_tail(
        self, planetlab_small, tmp_path, monkeypatch
    ):
        """Chop settled records off the end: exactly those re-execute."""
        tasks = _tasks(seed=71)
        path = tmp_path / "sweep.jnl"
        run_scenario_tasks(
            planetlab_small,
            tasks,
            config=FAST,
            workers=1,
            journal=SweepJournal(path),
        )
        # Record where each chunk record ends, then drop the last two —
        # the on-disk image of a coordinator killed two settles early.
        probe = SweepJournal(path, resume=True)
        replayed = probe.open(planetlab_small, tasks, config=FAST)
        probe.close()
        assert len(replayed) == len(tasks)
        import repro.eval.dist.journal as journal_module

        boundaries = []
        with open(path, "rb") as handle:
            offset = 0
            while True:
                record = journal_module._read_record(handle, offset)
                if record is None:
                    break
                offset = record[2]
                boundaries.append(offset)
        with open(path, "r+b") as handle:
            handle.truncate(boundaries[-3])

        executed = _execution_counter(monkeypatch)
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        assert len(executed) == len(tasks)  # the reference run
        del executed[:]
        resumed = run_scenario_tasks(
            planetlab_small,
            tasks,
            config=FAST,
            workers=1,
            journal=SweepJournal(path, resume=True),
        )
        assert len(executed) == 2  # only the truncated-away tail
        assert_identical(serial, resumed)

    def test_torn_tail_is_healed_and_appended_over(
        self, planetlab_small, tmp_path
    ):
        """Garbage after the last valid record neither poisons replay
        nor survives the resumed run."""
        tasks = _tasks(seed=72)
        path = tmp_path / "sweep.jnl"
        run_scenario_tasks(
            planetlab_small,
            tasks,
            config=FAST,
            workers=1,
            journal=SweepJournal(path),
        )
        intact = path.stat().st_size
        with open(path, "ab") as handle:
            # A record prefix cut off mid-header: what a crash during
            # an append leaves behind.
            handle.write(b"RJL1\x00\x00\x40\x00partial garbage")
        journal = SweepJournal(path, resume=True)
        replayed = journal.open(planetlab_small, tasks, config=FAST)
        journal.close()
        assert len(replayed) == len(tasks)
        assert path.stat().st_size == intact  # tail truncated in place

    def test_corrupt_record_checksum_keeps_the_prefix(
        self, planetlab_small, tmp_path
    ):
        tasks = _tasks(seed=73)
        path = tmp_path / "sweep.jnl"
        run_scenario_tasks(
            planetlab_small,
            tasks,
            config=FAST,
            workers=1,
            journal=SweepJournal(path),
        )
        # Flip one byte near the end of the file: the damaged record
        # fails its CRC and everything before it still replays.
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF
        path.write_bytes(blob)
        journal = SweepJournal(path, resume=True)
        replayed = journal.open(planetlab_small, tasks, config=FAST)
        journal.close()
        assert 0 < len(replayed) < len(tasks)

    def test_foreign_journal_is_refused(self, planetlab_small, tmp_path):
        """A journal from a different sweep must never splice in."""
        path = tmp_path / "sweep.jnl"
        run_scenario_tasks(
            planetlab_small,
            _tasks(seed=74),
            config=FAST,
            workers=1,
            journal=SweepJournal(path),
        )
        with pytest.raises(JournalMismatchError, match="different"):
            run_scenario_tasks(
                planetlab_small,
                _tasks(seed=75),  # different seed, different sweep
                config=FAST,
                workers=1,
                journal=SweepJournal(path, resume=True),
            )

    def test_non_journal_file_is_refused(self, planetlab_small, tmp_path):
        path = tmp_path / "not-a-journal.bin"
        path.write_bytes(b"definitely not a journal" * 10)
        with pytest.raises(JournalMismatchError, match="not a sweep journal"):
            run_scenario_tasks(
                planetlab_small,
                _tasks(seed=76),
                config=FAST,
                workers=1,
                journal=SweepJournal(path, resume=True),
            )

    def test_fingerprint_is_task_order_sensitive(self, planetlab_small):
        tasks = _tasks(seed=77)
        forward = sweep_fingerprint(planetlab_small, tasks, config=FAST)
        reversed_fp = sweep_fingerprint(
            planetlab_small, list(reversed(tasks)), config=FAST
        )
        assert forward != reversed_fp

    def test_fresh_journal_overwrites_without_resume(
        self, planetlab_small, tmp_path
    ):
        """No ``--resume`` means a fresh sweep: stale files are replaced,
        never silently replayed."""
        path = tmp_path / "sweep.jnl"
        path.write_bytes(b"stale leftovers")
        results = run_scenario_tasks(
            planetlab_small,
            _tasks(seed=78),
            config=FAST,
            workers=1,
            journal=SweepJournal(path),
        )
        assert all(errors is not None for errors in results)
        journal = SweepJournal(path, resume=True)
        replayed = journal.open(
            planetlab_small, _tasks(seed=78), config=FAST
        )
        journal.close()
        assert len(replayed) == len(_tasks(seed=78))


@pytest.mark.timeout(600)
class TestSigkillResume:
    def test_sigkilled_coordinator_resumes_bit_identically(self, tmp_path):
        """The acceptance criterion, end to end: SIGKILL the CLI
        mid-sweep, rerun with ``--resume``, and the output matches an
        uninterrupted run byte for byte."""
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env.pop("REPRO_CACHE_DIR", None)
        env.pop("REPRO_WORKERS", None)
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "figure3",
            "--trials",
            "2",
        ]
        journal = tmp_path / "sweep.jnl"

        reference = subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=300
        )
        assert reference.returncode == 0, reference.stderr

        victim = subprocess.Popen(
            argv + ["--journal", str(journal)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # Kill as soon as at least one chunk record is on disk (the
        # sweep header alone is ~200 bytes).  If the run wins the race
        # and finishes first, resume degenerates to pure replay — still
        # a valid (if weaker) exercise of the path.
        deadline = time.monotonic() + 240
        while time.monotonic() < deadline:
            if journal.exists() and journal.stat().st_size > 4096:
                break
            if victim.poll() is not None:
                break
            time.sleep(0.02)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)

        resumed = subprocess.run(
            argv + ["--journal", str(journal), "--resume"],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == reference.stdout

    def test_resume_requires_journal_flag(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "figure3", "--resume"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode != 0
        assert "--resume needs --journal" in result.stderr
