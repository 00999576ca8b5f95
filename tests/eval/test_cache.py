"""The persistent trial-result cache: keys, storage, engine integration."""

import dataclasses
import json
import threading

import numpy as np
import pytest

from repro.core.correlation_algorithm import AlgorithmOptions
from repro.eval import parallel as engine
from repro.eval.cache import (
    CODE_SALT,
    CacheStats,
    TrialCache,
    resolve_cache_dir,
    seed_fingerprint,
    trial_key,
)
from repro.eval.figures import figure3_sweep, figure4_cdf
from repro.eval.parallel import run_scenario_tasks, scenario_tasks
from repro.io import canonical_json, instance_fingerprint
from repro.simulate.experiment import ExperimentConfig
from repro.utils.rng import spawn_children

FAST = ExperimentConfig(n_snapshots=120, packets_per_path=200)


def _tasks(seed=21, n_trials=2, fraction=0.1):
    return scenario_tasks(
        "clustered",
        {"congested_fraction": fraction},
        n_trials=n_trials,
        seed=seed,
    )


class TestKeyDerivation:
    def test_same_inputs_same_key(self, planetlab_small):
        fp = instance_fingerprint(planetlab_small)
        key_a = trial_key(fp, _tasks()[0], config=FAST)
        key_b = trial_key(fp, _tasks()[0], config=FAST)
        assert key_a == key_b
        # Hex sha256.
        assert len(key_a) == 64 and int(key_a, 16) >= 0

    def test_config_invalidates(self, planetlab_small):
        fp = instance_fingerprint(planetlab_small)
        task = _tasks()[0]
        other = ExperimentConfig(n_snapshots=121, packets_per_path=200)
        assert trial_key(fp, task, config=FAST) != trial_key(
            fp, task, config=other
        )

    def test_options_invalidate(self, planetlab_small):
        fp = instance_fingerprint(planetlab_small)
        task = _tasks()[0]
        assert trial_key(fp, task, config=FAST) != trial_key(
            fp,
            task,
            config=FAST,
            options=AlgorithmOptions(max_pair_candidates=1000),
        )

    def test_key_differs_from_the_four_field_options_doc(
        self, planetlab_small
    ):
        """Keys of builds whose options also named ``selection`` and
        ``solver`` (always at these defaults) hashed a four-field doc;
        today's two-field doc keys differently, so such an entry is a
        miss, never served under a new key."""

        @dataclasses.dataclass(frozen=True)
        class FourFieldOptions:
            selection: str = "independent"
            solver: str = "l1"
            max_pair_candidates: int = 200_000
            pair_order_seed: int | None = 0

        fp = instance_fingerprint(planetlab_small)
        task = _tasks()[0]
        assert dataclasses.asdict(AlgorithmOptions()) == {
            "max_pair_candidates": 200_000,
            "pair_order_seed": 0,
        }
        assert trial_key(fp, task, config=FAST) != trial_key(
            fp, task, config=FAST, options=FourFieldOptions()
        )

    def test_binomial_sampler_keys_are_misses(
        self, planetlab_small, monkeypatch
    ):
        """Builds that drew probe counts with ``rng.binomial`` salted
        their keys ``trial-v1``; the threshold sampler draws other
        verdicts from the same seeds, so those entries must not match."""
        fp = instance_fingerprint(planetlab_small)
        task = _tasks()[0]
        current = trial_key(fp, task, config=FAST)
        monkeypatch.setattr("repro.eval.cache.CODE_SALT", "trial-v1")
        assert trial_key(fp, task, config=FAST) != current

    def test_default_config_and_options_canonicalise(self, planetlab_small):
        """``None`` keys like the explicit dataclass defaults."""
        fp = instance_fingerprint(planetlab_small)
        task = _tasks()[0]
        assert trial_key(fp, task) == trial_key(
            fp,
            task,
            config=ExperimentConfig(),
            options=AlgorithmOptions(),
        )

    def test_seed_invalidates(self, planetlab_small):
        fp = instance_fingerprint(planetlab_small)
        task_a = _tasks(seed=21)[0]
        task_b = _tasks(seed=22)[0]
        assert trial_key(fp, task_a, config=FAST) != trial_key(
            fp, task_b, config=FAST
        )

    def test_instance_invalidates(self, planetlab_small, brite_small):
        task = _tasks()[0]
        key_a = trial_key(
            instance_fingerprint(planetlab_small), task, config=FAST
        )
        key_b = trial_key(
            instance_fingerprint(brite_small.instance), task, config=FAST
        )
        assert key_a != key_b

    def test_salt_invalidates(self, planetlab_small, monkeypatch):
        fp = instance_fingerprint(planetlab_small)
        task = _tasks()[0]
        before = trial_key(fp, task, config=FAST)
        monkeypatch.setattr("repro.eval.cache.CODE_SALT", CODE_SALT + "x")
        assert trial_key(fp, task, config=FAST) != before

    def test_group_does_not_key(self, planetlab_small):
        """Group is pooling metadata; regrouped sweeps share entries."""
        fp = instance_fingerprint(planetlab_small)
        task = _tasks()[0]
        regrouped = engine.ScenarioTask(
            group=task.group + 7,
            factory=task.factory,
            factory_kwargs=task.factory_kwargs,
            scenario_seed=task.scenario_seed,
            run_seed=task.run_seed,
        )
        assert trial_key(fp, task, config=FAST) == trial_key(
            fp, regrouped, config=FAST
        )

    def test_canonical_json_is_lossless(self):
        """Key material must never truncate: large arrays encode fully,
        unknown types raise instead of degrading to an eliding str()."""
        encoded = canonical_json({"a": np.arange(2000)})
        assert "..." not in encoded
        assert encoded.endswith("1998,1999]}")
        assert canonical_json({"x": np.float64(0.5)}) == '{"x":0.5}'
        assert canonical_json({"t": (1, 2)}) == '{"t":[1,2]}'
        with pytest.raises(TypeError, match="losslessly"):
            canonical_json({"bad": object()})

    def test_seed_fingerprint_tracks_spawn_tree(self):
        """Same draw stream, different spawn key → different fingerprint."""
        parent_a, parent_b = spawn_children(0, 2)
        fp_a = seed_fingerprint(parent_a)
        fp_b = seed_fingerprint(parent_b)
        assert fp_a != fp_b
        assert fp_a["seed_seq"]["spawn_key"] != fp_b["seed_seq"]["spawn_key"]
        assert seed_fingerprint(None) is None
        # JSON-ready (canonical_json requirement).
        json.dumps(fp_a, default=str)


class TestStore:
    def test_roundtrip(self, tmp_path):
        cache = TrialCache(tmp_path)
        errors = {
            "correlation": np.array([0.1, 0.2, 0.3]),
            "independence": np.array([0.4]),
        }
        cache.put("ab" + "0" * 62, errors)
        loaded = cache.get("ab" + "0" * 62)
        assert set(loaded) == set(errors)
        for name in errors:
            assert np.array_equal(loaded[name], errors[name])
            assert loaded[name].dtype == errors[name].dtype

    def test_miss_and_stats(self, tmp_path):
        cache = TrialCache(tmp_path)
        assert cache.get("cd" + "0" * 62) is None
        assert cache.stats == CacheStats(hits=0, misses=1, stores=0)
        cache.put("cd" + "0" * 62, {"correlation": np.zeros(2)})
        assert cache.get("cd" + "0" * 62) is not None
        assert cache.stats == CacheStats(hits=1, misses=1, stores=1)
        assert "50.0% hits" in cache.stats.render()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = TrialCache(tmp_path)
        key = "ef" + "0" * 62
        path = cache._entry_path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not an npz archive")
        assert cache.get(key) is None

    def test_truncated_and_empty_entries_are_misses(self, tmp_path):
        """np.load raises BadZipFile/EOFError for these, not OSError."""
        cache = TrialCache(tmp_path)
        key = "ef" + "1" * 62
        cache.put(key, {"correlation": np.arange(64.0)})
        path = cache._entry_path(key)
        path.write_bytes(path.read_bytes()[:20])
        assert cache.get(key) is None
        path.write_bytes(b"")
        assert cache.get(key) is None
        # Overwriting the bad entry repairs the store.
        cache.put(key, {"correlation": np.arange(64.0)})
        assert cache.get(key) is not None

    def test_concurrent_writers_never_tear(self, tmp_path):
        """Two writers hammering one key: readers always see a full entry."""
        cache = TrialCache(tmp_path)
        key = "aa" + "0" * 62
        payload_a = {"correlation": np.full(512, 1.0)}
        payload_b = {"correlation": np.full(512, 2.0)}
        failures = []

        def write(payload):
            for _ in range(30):
                TrialCache(tmp_path).put(key, payload)

        def read():
            reader = TrialCache(tmp_path)
            for _ in range(60):
                loaded = reader.get(key)
                if loaded is None:
                    continue
                values = loaded["correlation"]
                if not (
                    np.array_equal(values, payload_a["correlation"])
                    or np.array_equal(values, payload_b["correlation"])
                ):
                    failures.append(values)

        cache.put(key, payload_a)
        threads = [
            threading.Thread(target=write, args=(payload_a,)),
            threading.Thread(target=write, args=(payload_b,)),
            threading.Thread(target=read),
            threading.Thread(target=read),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        # No temporary files left behind.
        leftovers = [
            p for p in tmp_path.rglob("*") if p.suffix == ".tmp"
        ]
        assert leftovers == []


class TestPruneTmp:
    @staticmethod
    def _plant_tmp(cache, name, age_s):
        import os
        import time

        shard = cache.root / "ab"
        shard.mkdir(exist_ok=True)
        path = shard / name
        path.write_bytes(b"torn write")
        stamp = time.time() - age_s
        os.utime(path, (stamp, stamp))
        return path

    def test_prune_removes_stale_keeps_fresh_and_entries(self, tmp_path):
        cache = TrialCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, {"correlation": np.ones(3)})
        stale = self._plant_tmp(cache, "stale.tmp", age_s=7200)
        fresh = self._plant_tmp(cache, "fresh.tmp", age_s=10)
        assert cache.prune_tmp(max_age=3600) == 1
        assert not stale.exists()
        assert fresh.exists()  # an in-flight concurrent write
        assert cache.get(key) is not None  # entries untouched

    @staticmethod
    def _age_marker(root, age_s=7200):
        import os
        import time

        marker = root / ".last-prune"
        stamp = time.time() - age_s
        os.utime(marker, (stamp, stamp))

    def test_open_prunes_opportunistically(self, tmp_path):
        cache = TrialCache(tmp_path)
        stale = self._plant_tmp(cache, "orphan.tmp", age_s=7200)
        self._age_marker(tmp_path)  # pretend the last sweep was old
        TrialCache(tmp_path)  # a second handle on the same store
        assert not stale.exists()

    def test_open_rate_limits_the_sweep(self, tmp_path):
        cache = TrialCache(tmp_path)
        stale = self._plant_tmp(cache, "orphan.tmp", age_s=7200)
        TrialCache(tmp_path)  # marker is fresh: no sweep this time
        assert stale.exists()

    def test_concurrent_opens_elect_exactly_one_pruner(
        self, tmp_path, monkeypatch
    ):
        """The `.last-prune` claim is atomic: a herd of simultaneous
        opens observing one stale marker runs one sweep, not many."""
        import threading

        TrialCache(tmp_path)  # create the store and its marker
        self._age_marker(tmp_path)
        sweeps = []
        monkeypatch.setattr(
            TrialCache,
            "prune_tmp",
            lambda self, *args, **kwargs: sweeps.append(1) or 0,
        )
        barrier = threading.Barrier(8)

        def open_store():
            barrier.wait()
            TrialCache(tmp_path)

        threads = [
            threading.Thread(target=open_store) for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(sweeps) == 1
        # The winner removed its claim and refreshed the marker, so a
        # later open neither sweeps again nor finds a stale claim.
        assert not (tmp_path / ".last-prune.claim").exists()
        TrialCache(tmp_path)
        assert len(sweeps) == 1

    def test_stranded_claim_ages_out(self, tmp_path, monkeypatch):
        """A pruner killed mid-sweep must not block pruning forever."""
        import os
        import time

        TrialCache(tmp_path)
        self._age_marker(tmp_path)
        claim = tmp_path / ".last-prune.claim"
        claim.touch()
        stamp = time.time() - 7200
        os.utime(claim, (stamp, stamp))
        sweeps = []
        monkeypatch.setattr(
            TrialCache,
            "prune_tmp",
            lambda self, *args, **kwargs: sweeps.append(1) or 0,
        )
        TrialCache(tmp_path)  # sees the dead claim: removes it, skips
        assert sweeps == []
        assert not claim.exists()
        TrialCache(tmp_path)  # re-elects and sweeps
        assert len(sweeps) == 1

    def test_unwritable_marker_skips_sweep_instead_of_crashing(
        self, tmp_path, monkeypatch
    ):
        """Shared store, marker owned by someone else: the open must
        skip the sweep (best-effort hygiene), not raise."""
        import pathlib

        TrialCache(tmp_path)
        self._age_marker(tmp_path)
        sweeps = []
        monkeypatch.setattr(
            TrialCache,
            "prune_tmp",
            lambda self, *args, **kwargs: sweeps.append(1) or 0,
        )
        real_touch = pathlib.Path.touch

        def deny_marker_touch(self, *args, **kwargs):
            if self.name == ".last-prune":
                raise PermissionError("someone else's marker")
            return real_touch(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "touch", deny_marker_touch)
        TrialCache(tmp_path)  # must not raise
        assert sweeps == []
        # The claim was released, so a later (writable) open prunes.
        assert not (tmp_path / ".last-prune.claim").exists()

    def test_killed_writer_orphan_is_recovered(self, tmp_path, monkeypatch):
        """A put() that dies after mkstemp leaves a tmp a later open reaps."""
        import os

        cache = TrialCache(tmp_path)
        real_replace = os.replace

        def dying_replace(src, dst):
            raise KeyboardInterrupt("killed mid-publish")

        real_unlink = os.unlink
        monkeypatch.setattr(os, "replace", dying_replace)
        # Simulate SIGKILL: even put()'s own unlink cleanup never runs.
        monkeypatch.setattr(os, "unlink", lambda path: None)
        with pytest.raises(KeyboardInterrupt):
            cache.put("ab" + "0" * 62, {"correlation": np.zeros(2)})
        monkeypatch.setattr(os, "replace", real_replace)
        monkeypatch.setattr(os, "unlink", real_unlink)
        orphans = list(cache.root.glob("*/*.tmp"))
        assert len(orphans) == 1
        stamp = __import__("time").time() - 7200
        os.utime(orphans[0], (stamp, stamp))
        self._age_marker(tmp_path)
        TrialCache(tmp_path)
        assert not orphans[0].exists()


class TestEngineIntegration:
    def test_hit_miss_partitioning(self, planetlab_small, tmp_path):
        cache = TrialCache(tmp_path)
        tasks = _tasks(n_trials=3)
        first = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, cache=cache
        )
        assert cache.stats.misses == 3 and cache.stats.stores == 3
        second = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, cache=cache
        )
        assert cache.stats.hits == 3
        for errors_a, errors_b in zip(first, second):
            assert set(errors_a) == set(errors_b)
            for name in errors_a:
                assert np.array_equal(errors_a[name], errors_b[name])

    def test_warm_run_executes_nothing(
        self, planetlab_small, tmp_path, monkeypatch
    ):
        cache = TrialCache(tmp_path)
        tasks = _tasks(n_trials=2)
        run_scenario_tasks(planetlab_small, tasks, config=FAST, cache=cache)

        def boom(*args, **kwargs):
            raise AssertionError("cache hit must not execute the trial")

        monkeypatch.setattr(engine, "_execute_task", boom)
        warm = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, cache=cache
        )
        assert len(warm) == 2

    def test_default_seeds_still_execute(self, planetlab_small):
        """ScenarioTask's declared defaults (None seeds) stay runnable."""
        task = engine.ScenarioTask(
            group=0,
            factory="clustered",
            factory_kwargs={"congested_fraction": 0.1},
        )
        (result,) = run_scenario_tasks(
            planetlab_small, [task], config=FAST
        )
        assert set(result) == {"correlation", "independence"}

    def test_none_seeded_tasks_bypass_the_cache(
        self, planetlab_small, tmp_path
    ):
        """Fresh-entropy trials are irreproducible: never keyed/stored,
        so distinct random trials can't replay each other's results."""
        task = engine.ScenarioTask(
            group=0,
            factory="clustered",
            factory_kwargs={"congested_fraction": 0.1},
        )
        cache = TrialCache(tmp_path)
        run_scenario_tasks(
            planetlab_small, [task], config=FAST, cache=cache
        )
        run_scenario_tasks(
            planetlab_small, [task], config=FAST, cache=cache
        )
        assert cache.stats == CacheStats(hits=0, misses=0, stores=0)
        assert list(tmp_path.rglob("*.npz")) == []

    def test_partial_hits_only_compute_misses(
        self, planetlab_small, tmp_path
    ):
        tasks = _tasks(n_trials=3)
        cache = TrialCache(tmp_path)
        run_scenario_tasks(
            planetlab_small, tasks[:2], config=FAST, cache=cache
        )
        mixed = TrialCache(tmp_path)
        results = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, cache=mixed
        )
        assert mixed.stats.hits == 2
        assert mixed.stats.misses == 1 and mixed.stats.stores == 1
        assert len(results) == 3

    def test_cached_serial_pooled_figures_bit_identical(
        self, planetlab_small, tmp_path
    ):
        kwargs = dict(
            instance=planetlab_small,
            fractions=(0.05, 0.10),
            config=FAST,
            n_trials=2,
            seed=31,
        )
        serial = figure3_sweep(workers=1, **kwargs)
        pooled = figure3_sweep(workers=2, **kwargs)
        cold_cache = TrialCache(tmp_path)
        cold = figure3_sweep(workers=2, cache=cold_cache, **kwargs)
        warm_cache = TrialCache(tmp_path)
        warm = figure3_sweep(workers=1, cache=warm_cache, **kwargs)
        assert serial.points == pooled.points
        assert serial.points == cold.points
        assert serial.points == warm.points
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.hits == 4

    def test_cdf_driver_uses_cache(self, planetlab_small, tmp_path):
        kwargs = dict(
            instance=planetlab_small,
            config=FAST,
            n_trials=2,
            seed=32,
        )
        plain = figure4_cdf(**kwargs)
        cache = TrialCache(tmp_path)
        cold = figure4_cdf(cache=cache, **kwargs)
        warm = figure4_cdf(cache=cache, **kwargs)
        assert cache.stats.hits == 2 and cache.stats.misses == 2
        for name in plain.curves:
            assert np.array_equal(plain.curves[name], cold.curves[name])
            assert np.array_equal(plain.curves[name], warm.curves[name])


class TestPackedTransport:
    def test_pack_unpack_roundtrip(self):
        dicts = [
            {"correlation": np.array([0.1, 0.2]), "independence": np.array([0.3])},
            {"correlation": np.empty(0), "independence": np.array([0.4, 0.5])},
            {},
        ]
        descriptor, buffer = engine._pack_error_dicts(dicts)
        assert buffer.dtype == np.float64
        assert buffer.size == 5
        restored = engine._unpack_error_dicts(descriptor, buffer)
        assert len(restored) == 3
        for original, copy in zip(dicts, restored):
            assert list(original) == list(copy)
            for name in original:
                assert np.array_equal(original[name], copy[name])

    def test_empty_chunk(self):
        descriptor, buffer = engine._pack_error_dicts([])
        assert engine._unpack_error_dicts(descriptor, buffer) == []

    def test_chunks_cover_in_order(self):
        tasks = list(range(10))
        chunks = engine._chunk_tasks(tasks, 2)
        assert [t for chunk in chunks for t in chunk] == tasks
        assert all(chunks)


class TestResolveCacheDir:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache_dir(tmp_path / "cli") == tmp_path / "cli"

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache_dir(None) == tmp_path / "env"

    def test_disabled_beats_everything(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache_dir(tmp_path / "cli", disabled=True) is None

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache_dir(None) is None


class TestWorkersEnv:
    def test_repro_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert engine.resolve_workers(None) == 3
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert engine.resolve_workers(None) >= 1
        monkeypatch.setenv("REPRO_WORKERS", "")
        assert engine.resolve_workers(None) == 1
        monkeypatch.delenv("REPRO_WORKERS")
        assert engine.resolve_workers(None) == 1

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert engine.resolve_workers(2) == 2

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            engine.resolve_workers(None)
