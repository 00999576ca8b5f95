"""Persistent, content-addressed trial-result cache.

The paper's figures are bags of independent simulate→infer→score trials,
and a trial's result is fully determined by its inputs: the instance,
the scenario factory and its kwargs, the pristine scenario/run generator
states, the simulation config, and the algorithm options.  This module
memoises that function on disk so repeated figure regenerations and
overlapping sweeps skip every trial they have already paid for.

Key derivation
    ``sha256(canonical_json(payload))`` where the payload combines

    * the instance fingerprint (:func:`repro.io.instance_fingerprint`);
    * the scenario factory *name* and kwargs;
    * the pristine seed states of both task generators — bit-generator
      state plus the seed-sequence identity (entropy, spawn key,
      children counter), because :func:`repro.eval.runner.run_comparison`
      spawns children from the run seed;
    * the full :class:`ExperimentConfig` and :class:`AlgorithmOptions`
      (``None`` canonicalises to the dataclass defaults, matching what
      the trial actually runs with);
    * a code-version salt (:data:`CODE_SALT`) — bump it whenever the
      simulate→infer→score semantics change so stale entries can never
      resurface;
    * the on-disk format version (:data:`CACHE_VERSION`).

    A task's ``group`` is pooling metadata, not trial input, and is
    deliberately excluded: the same trial reached through different
    sweeps shares one entry.

On-disk layout
    ``<root>/<key[:2]>/<key>.npz`` — two-hex-char shards keep directory
    listings sane at millions of entries.  Each ``.npz`` stores the
    per-algorithm error vectors as ``arr_0..arr_{n-1}`` plus a ``names``
    string array, i.e. *exactly* what the worker returned, so cached and
    recomputed runs are bit-identical.

Atomicity
    Writes go to a ``tempfile`` in the destination shard and are
    published with :func:`os.replace`, so concurrent sweeps sharing one
    store never observe torn entries; the last writer of identical
    content wins harmlessly.  Unreadable entries (however produced) are
    treated as misses and overwritten.  A run killed between ``mkstemp``
    and ``os.replace`` strands its ``*.tmp`` file; opening a cache
    opportunistically sweeps tmp files older than
    :data:`PRUNE_TMP_MAX_AGE` (see :meth:`TrialCache.prune_tmp`), so
    long-lived shared stores do not accrete orphans.

CLI integration (see :mod:`repro.cli`)
    ``--cache-dir PATH`` points a figure command at a store (the
    ``REPRO_CACHE_DIR`` environment variable supplies a default),
    ``--no-cache`` forces caching off even when the variable is set, and
    ``--cache-stats`` prints the hit/miss/store line after the run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pathlib
import tempfile
import time
import zipfile

import numpy as np

from repro.core.correlation_algorithm import AlgorithmOptions
from repro.io import canonical_json, instance_fingerprint
from repro.simulate.experiment import ExperimentConfig
from repro.utils.rng import as_generator

__all__ = [
    "CACHE_VERSION",
    "CODE_SALT",
    "PRUNE_TMP_MAX_AGE",
    "CacheStats",
    "TrialCache",
    "seed_fingerprint",
    "trial_key",
    "resolve_cache_dir",
]

#: On-disk format version; stored entries from other versions never match.
CACHE_VERSION = 1

#: Code-version salt.  Bump whenever the simulate→infer→score pipeline
#: changes what a trial returns for the same inputs.
CODE_SALT = "trial-v2"

#: Age (seconds) past which an orphaned ``*.tmp`` write file is garbage:
#: no healthy writer keeps one open for an hour, so anything older was
#: left behind by a killed run.
PRUNE_TMP_MAX_AGE = 3600.0


def seed_fingerprint(seed) -> dict | None:
    """JSON-ready fingerprint of a seed-like value's *pristine* state.

    Captures both the bit-generator state (draw behaviour) and the seed
    sequence identity (spawn behaviour): two generators drawing the same
    stream but spawning different children must not share a key.
    ``None`` stays ``None`` — such tasks are irreproducible and callers
    should not cache them.
    """
    if seed is None:
        return None
    generator = as_generator(seed)
    bit_generator = generator.bit_generator
    fingerprint = {
        "bit_generator": type(bit_generator).__name__,
        "state": bit_generator.state,
    }
    seed_seq = getattr(bit_generator, "seed_seq", None)
    if seed_seq is not None:
        fingerprint["seed_seq"] = {
            "entropy": seed_seq.entropy,
            "spawn_key": list(seed_seq.spawn_key),
            "pool_size": seed_seq.pool_size,
            "n_children_spawned": seed_seq.n_children_spawned,
        }
    return fingerprint


def trial_key(
    instance_fp: str,
    task,
    *,
    config: ExperimentConfig | None = None,
    options: AlgorithmOptions | None = None,
) -> str:
    """Content hash addressing one trial's result.

    ``task`` is a :class:`repro.eval.parallel.ScenarioTask` (duck-typed:
    anything with ``factory``, ``factory_kwargs``, ``scenario_seed`` and
    ``run_seed`` works).  ``config``/``options`` canonicalise to their
    dataclass defaults, matching the execution path.
    """
    payload = {
        "cache_version": CACHE_VERSION,
        "salt": CODE_SALT,
        "instance": instance_fp,
        "factory": task.factory,
        "factory_kwargs": task.factory_kwargs,
        "scenario_seed": seed_fingerprint(task.scenario_seed),
        "run_seed": seed_fingerprint(task.run_seed),
        "config": dataclasses.asdict(config or ExperimentConfig()),
        "options": dataclasses.asdict(options or AlgorithmOptions()),
    }
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`TrialCache` handle."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits as a fraction of lookups (0.0 when nothing was looked up)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def render(self) -> str:
        return (
            f"{self.hits} hits / {self.misses} misses "
            f"({100.0 * self.hit_rate:.1f}% hits), "
            f"{self.stores} stored"
        )


class TrialCache:
    """Directory-backed store mapping trial keys → error-vector dicts.

    One handle tracks its own :class:`CacheStats`; several handles (or
    several processes) may point at the same directory concurrently —
    write-back is atomic and reads treat unreadable entries as misses.
    """

    def __init__(self, root) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        # Opportunistic hygiene: a run killed between ``mkstemp`` and
        # ``os.replace`` leaks its ``*.tmp`` file forever; sweeping
        # stale ones on open keeps long-lived shared stores clean
        # without a separate maintenance job.  Recent tmp files are
        # in-flight writes from concurrent sweeps and are left alone.
        # The sweep globs every shard, so it is rate-limited by a
        # marker file: at most one full sweep per ``PRUNE_TMP_MAX_AGE``
        # across *all* handles sharing the store (worker sessions,
        # figure commands, benchmarks), which keeps opens cheap on
        # large stores over slow filesystems.
        self._maybe_prune_tmp()

    # -- keying --------------------------------------------------------
    def task_key(
        self,
        instance_fp: str,
        task,
        *,
        config: ExperimentConfig | None = None,
        options: AlgorithmOptions | None = None,
    ) -> str:
        return trial_key(
            instance_fp, task, config=config, options=options
        )

    # -- storage -------------------------------------------------------
    def _entry_path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.npz"

    def get(self, key: str) -> dict[str, np.ndarray] | None:
        """Load one entry; ``None`` (a miss) if absent or unreadable."""
        path = self._entry_path(key)
        try:
            with np.load(path) as archive:
                names = [str(name) for name in archive["names"]]
                errors = {
                    name: archive[f"arr_{index}"]
                    for index, name in enumerate(names)
                }
        except (
            OSError,
            KeyError,
            ValueError,
            EOFError,
            zipfile.BadZipFile,
        ):
            # Missing entry, foreign/zero-byte file, or truncated
            # archive: a miss (np.load raises BadZipFile/EOFError for
            # the latter two, not OSError).
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return errors

    def put(self, key: str, errors: dict[str, np.ndarray]) -> None:
        """Atomically write one entry (publish via ``os.replace``)."""
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        names = list(errors)
        arrays = {
            f"arr_{index}": np.asarray(errors[name])
            for index, name in enumerate(names)
        }
        descriptor, tmp_name = tempfile.mkstemp(
            dir=path.parent, suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                np.savez(handle, names=np.array(names, dtype=str), **arrays)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    # -- maintenance ---------------------------------------------------
    def _maybe_prune_tmp(self) -> None:
        """Run :meth:`prune_tmp` unless another handle recently did.

        The ``.last-prune`` marker's mtime records the last sweep.  A
        herd of concurrent opens observing a stale (or missing) marker
        elects exactly one pruner through an atomic ``O_EXCL`` create
        of a ``.last-prune.claim`` file — a stat-then-touch sequence
        here would let several openers see the stale marker and all run
        the sweep.  The winner republishes a fresh marker *before*
        sweeping (so late openers skip on mtime alone) and removes the
        claim afterwards; a claim stranded by a killed pruner ages out
        after :data:`PRUNE_TMP_MAX_AGE` so pruning can resume.  Marker
        I/O failures (read-only store) skip the sweep — pruning is
        best-effort hygiene.
        """
        marker = self.root / ".last-prune"
        claim = self.root / ".last-prune.claim"
        now = time.time()
        try:
            if now - marker.stat().st_mtime < PRUNE_TMP_MAX_AGE:
                return
        except FileNotFoundError:
            pass  # first open of this store: fall through to the claim
        except OSError:
            return
        try:
            descriptor = os.open(
                claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            # Another handle is pruning right now — unless it was
            # killed mid-sweep and stranded its claim; age that out so
            # a later open can re-elect.  Recovery is best-effort: the
            # unlink re-checks the claim's identity so it only reaps
            # the hour-old file it statted, not a fresh claim that
            # replaced it in between (and if that sliver of a race is
            # ever lost, the worst case is a second sweep — prune_tmp
            # is explicitly race-tolerant).
            try:
                first = claim.stat()
                if now - first.st_mtime >= PRUNE_TMP_MAX_AGE:
                    second = claim.stat()
                    if (second.st_ino, second.st_mtime_ns) == (
                        first.st_ino,
                        first.st_mtime_ns,
                    ):
                        os.unlink(claim)
            except OSError:
                pass
            return
        except OSError:
            return
        os.close(descriptor)
        try:
            # Re-check under the claim: a slow opener can win the
            # O_EXCL *after* an earlier claimant already swept and
            # refreshed the marker — the fresh mtime tells it so.
            try:
                if (
                    time.time() - marker.stat().st_mtime
                    < PRUNE_TMP_MAX_AGE
                ):
                    return
            except OSError:
                pass
            try:
                marker.touch()  # publishes a current mtime
            except OSError:
                # Cannot republish the marker (e.g. it belongs to
                # another user on a shared store): skip the sweep
                # rather than fail the open — hygiene is best-effort.
                return
            self.prune_tmp()
        finally:
            try:
                os.unlink(claim)
            except OSError:
                pass

    def prune_tmp(self, max_age: float = PRUNE_TMP_MAX_AGE) -> int:
        """Delete orphaned ``*.tmp`` files older than ``max_age`` seconds.

        Killed runs (and dead remote workers) can die between
        ``mkstemp`` and ``os.replace``, stranding tmp files in the
        shards.  Anything older than ``max_age`` is removed; younger
        files are presumed to be in-flight writes from concurrent
        sweeps.  Races are benign — a file vanishing mid-sweep (its
        writer published or another pruner won) is simply skipped.
        Returns the number of files removed.
        """
        cutoff = time.time() - max_age
        removed = 0
        for tmp_path in self.root.glob("*/*.tmp"):
            try:
                if tmp_path.stat().st_mtime <= cutoff:
                    os.unlink(tmp_path)
                    removed += 1
            except OSError:
                continue
        return removed

    # -- reporting -----------------------------------------------------
    def stats_line(self) -> str:
        return f"cache: {self.stats.render()} — {self.root}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrialCache({str(self.root)!r}, {self.stats.render()})"


def resolve_cache_dir(
    explicit=None, *, disabled: bool = False
) -> pathlib.Path | None:
    """Pick the cache directory for a CLI/benchmark invocation.

    Precedence: ``disabled`` (``--no-cache``) wins outright; then an
    explicit ``--cache-dir``; then the ``REPRO_CACHE_DIR`` environment
    variable; otherwise caching is off (``None``).
    """
    if disabled:
        return None
    if explicit:
        return pathlib.Path(explicit)
    env = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if env:
        return pathlib.Path(env)
    return None
