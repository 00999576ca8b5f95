"""The prepared-state layer: content-keyed registry + thread safety.

The historical ``_BUILDER_PREP`` module global keyed on the correlation
object's *identity*, held exactly one slot, and mutated a shared
``dependent_mask`` cell without a lock.  These tests pin down the three
fixes: content keying (equal-content pairs share one prep), bounded LRU
behaviour (alternating topologies no longer thrash), and the regression
test the bug deserved — N threads interleaving two topologies must
produce equation systems bit-identical to serial execution.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.equations import build_equations
from repro.core.prepared import (
    DEFAULT_REGISTRY,
    PreparedRegistry,
    PreparedTopology,
    active_registry,
    get_prepared,
    use_registry,
)
from repro.topogen import fig_1a, fig_1b


class _FakeMeasurements:
    """Deterministic PathGoodProvider — cheap; only the path count
    comes from the topology."""

    def __init__(self, n_paths: int) -> None:
        self.n_paths = n_paths

    def log_good(self, path_id: int) -> float:
        return -0.01 * (path_id + 1)

    def log_good_pair(self, path_a: int, path_b: int) -> float:
        return self.log_good(path_a) + self.log_good(path_b) - 0.001

    def log_good_all(self) -> np.ndarray:
        return np.array(
            [self.log_good(path_id) for path_id in range(self.n_paths)]
        )

    def log_good_pairs(self, pairs) -> np.ndarray:
        return np.array(
            [self.log_good_pair(int(a), int(b)) for a, b in pairs]
        )


def _system_bits(system) -> tuple:
    """Everything observable about an assembled system, hashable-ish."""
    return (
        system.n_links,
        system.n_single,
        system.n_pair,
        system.rank,
        tuple(system.eligible_paths),
        tuple(
            (
                row.kind,
                tuple(row.paths),
                tuple(sorted(row.link_ids)),
                row.value,
            )
            for row in system.rows
        ),
    )


class TestPreparedTopology:
    def test_build_matches_full_builder(self, instance_1a, oracle_1a):
        prep = PreparedTopology.build(
            instance_1a.topology, instance_1a.correlation
        )
        system = build_equations(
            instance_1a.topology,
            instance_1a.correlation,
            oracle_1a,
            prepared=prep,
        )
        # Section-4 worked example: 3 single rows (rank 3 before pairs),
        # then one pair row completes rank 4.
        assert prep.rank == 3
        assert [path_id for path_id, _, _ in prep.singles] == list(
            prep.eligible
        )
        assert system.n_single == 3
        assert system.n_pair == 1
        assert system.rank == 4

    def test_clone_tracker_is_independent(self, instance_1a):
        prep = PreparedTopology.build(
            instance_1a.topology, instance_1a.correlation
        )
        tracker = prep.clone_tracker()
        row = np.zeros(instance_1a.topology.n_links)
        row[-1] = 1.0
        tracker.try_add(row)
        assert prep.rank == 3
        assert prep.clone_tracker().rank == 3

    def test_dependent_mask_cached(self, instance_1a):
        prep = PreparedTopology.build(
            instance_1a.topology, instance_1a.correlation
        )
        mask = prep.dependent_mask()
        assert mask.shape == (len(prep.candidates),)
        assert prep.dependent_mask() is mask

    def test_fingerprint_is_content_based(self):
        one = PreparedTopology.build(
            *(lambda i: (i.topology, i.correlation))(fig_1a())
        )
        two = PreparedTopology.build(
            *(lambda i: (i.topology, i.correlation))(fig_1a())
        )
        other = PreparedTopology.build(
            *(lambda i: (i.topology, i.correlation))(fig_1b())
        )
        assert one.fingerprint == two.fingerprint
        assert one.fingerprint != other.fingerprint
        assert len(one.fingerprint) == 64  # sha256 hex

    def test_get_prepared_rejects_mismatched_prep(
        self, instance_1a, instance_1b
    ):
        prep = PreparedTopology.build(
            instance_1a.topology, instance_1a.correlation
        )
        with pytest.raises(ValueError, match="different"):
            get_prepared(
                instance_1b.topology, instance_1b.correlation, prepared=prep
            )


class TestPreparedRegistry:
    def test_content_keyed_hit(self):
        registry = PreparedRegistry(capacity=4)
        first = registry.get_or_build(
            *(lambda i: (i.topology, i.correlation))(fig_1a())
        )
        # A *different* object with equal content must hit the entry —
        # the old cache keyed on id(correlation) and missed here.
        second = registry.get_or_build(
            *(lambda i: (i.topology, i.correlation))(fig_1a())
        )
        assert second is first
        stats = registry.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_alternating_topologies_do_not_thrash(
        self, instance_1a, instance_1b
    ):
        registry = PreparedRegistry(capacity=2)
        for _ in range(5):
            registry.get_or_build(
                instance_1a.topology, instance_1a.correlation
            )
            registry.get_or_build(
                instance_1b.topology, instance_1b.correlation
            )
        stats = registry.stats()
        assert stats["misses"] == 2  # one build each, ever
        assert stats["hits"] == 8
        assert stats["evictions"] == 0

    def test_lru_eviction_order(self, instance_1a, instance_1b):
        registry = PreparedRegistry(capacity=1)
        a = registry.get_or_build(
            instance_1a.topology, instance_1a.correlation
        )
        registry.get_or_build(instance_1b.topology, instance_1b.correlation)
        assert registry.stats()["evictions"] == 1
        assert len(registry) == 1
        # 1a was evicted: fetching it again rebuilds.
        again = registry.get_or_build(
            instance_1a.topology, instance_1a.correlation
        )
        assert again is not a

    def test_put_evict_clear_resize(self, instance_1a, instance_1b):
        registry = PreparedRegistry(capacity=4)
        prep = PreparedTopology.build(
            instance_1a.topology, instance_1a.correlation
        )
        registry.put(prep)
        assert (
            registry.get_or_build(
                instance_1a.topology, instance_1a.correlation
            )
            is prep
        )
        assert registry.evict(
            instance_1a.topology, instance_1a.correlation
        )
        assert not registry.evict(
            instance_1a.topology, instance_1a.correlation
        )
        registry.get_or_build(instance_1a.topology, instance_1a.correlation)
        registry.get_or_build(instance_1b.topology, instance_1b.correlation)
        registry.resize(1)
        assert len(registry) == 1
        registry.clear()
        assert len(registry) == 0
        with pytest.raises(ValueError):
            PreparedRegistry(capacity=0)
        with pytest.raises(ValueError):
            registry.resize(0)

    def test_use_registry_scopes_the_ambient_registry(self):
        registry = PreparedRegistry(capacity=2)
        assert active_registry() is DEFAULT_REGISTRY
        with use_registry(registry):
            assert active_registry() is registry
            with use_registry(None):  # pass-through
                assert active_registry() is registry
        assert active_registry() is DEFAULT_REGISTRY

    def test_ambient_registry_is_used_by_builds(self, instance_1a):
        registry = PreparedRegistry(capacity=2)
        measurements = _FakeMeasurements(instance_1a.topology.n_paths)
        with use_registry(registry):
            build_equations(
                instance_1a.topology, instance_1a.correlation, measurements
            )
        assert registry.stats()["misses"] == 1
        assert len(registry) == 1


class TestThreadSafetyRegression:
    """N threads alternating two topologies == serial, bit for bit.

    Under the old single-slot identity-keyed prep this pattern thrashed
    (rebuild per call) and raced on the shared dependent-mask slot;
    equation systems could silently differ across runs.
    """

    N_THREADS = 8
    ROUNDS = 6

    def _build(self, instance, registry):
        return _system_bits(
            build_equations(
                instance.topology,
                instance.correlation,
                _FakeMeasurements(instance.topology.n_paths),
                registry=registry,
            )
        )

    @pytest.mark.timeout(120)
    def test_threaded_builds_bit_identical_to_serial(
        self, instance_1a, instance_1b, brite_small
    ):
        instances = [instance_1a, instance_1b, brite_small.instance]
        serial = [
            self._build(instance, PreparedRegistry(capacity=2))
            for instance in instances
        ]

        registry = PreparedRegistry(capacity=2)  # smaller than working set
        results: dict[tuple[int, int, int], tuple] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(self.N_THREADS)

        def worker(worker_id: int) -> None:
            try:
                barrier.wait(timeout=60)
                for round_index in range(self.ROUNDS):
                    index = (worker_id + round_index) % len(instances)
                    results[(worker_id, round_index, index)] = self._build(
                        instances[index], registry
                    )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(worker_id,))
            for worker_id in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert len(results) == self.N_THREADS * self.ROUNDS
        for (_, _, index), bits in results.items():
            assert bits == serial[index]
