"""Unit tests for RNG plumbing."""

import numpy as np
import pytest

from repro.utils.rng import as_generator, spawn_children


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).random(5)
        b = as_generator(2).random(5)
        assert not np.array_equal(a, b)

    def test_generator_passthrough_shares_state(self):
        rng = np.random.default_rng(0)
        same = as_generator(rng)
        assert same is rng

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        assert isinstance(as_generator(seq), np.random.Generator)

    def test_invalid_type_rejected(self):
        with pytest.raises(TypeError):
            as_generator("not-a-seed")


class TestSpawnChildren:
    def test_count(self):
        children = spawn_children(0, 4)
        assert len(children) == 4

    def test_children_are_independent_streams(self):
        a, b = spawn_children(0, 2)
        assert not np.array_equal(a.random(10), b.random(10))

    def test_deterministic_from_seed(self):
        first = [g.random(3).tolist() for g in spawn_children(9, 2)]
        second = [g.random(3).tolist() for g in spawn_children(9, 2)]
        assert first == second

    def test_spawn_from_generator(self):
        rng = np.random.default_rng(5)
        children = spawn_children(rng, 2)
        assert len(children) == 2

    def test_zero_children(self):
        assert spawn_children(0, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_children(0, -1)


class TestCloneWithoutDeepcopy:
    """``clone_generator`` rebuilds PCG64 generators from their parts;
    the twin must draw and spawn exactly like a ``deepcopy``."""

    @staticmethod
    def used_generators():
        from repro.utils.rng import spawn_children

        child = spawn_children(5, 3)[1]
        child.random(7)
        spawn_children(child, 2)  # bumps n_children_spawned
        odd = np.random.default_rng(3)
        odd.integers(0, 2**31, dtype=np.uint32)  # leaves has_uint32 set
        fresh = np.random.default_rng(np.random.SeedSequence(9, pool_size=8))
        return [child, odd, fresh]

    def test_clone_draws_and_spawns_like_deepcopy(self):
        import copy

        from repro.utils.rng import clone_generator, spawn_children

        for original in self.used_generators():
            before = original.bit_generator.state
            twin, reference = clone_generator(original), copy.deepcopy(original)
            assert twin is not original
            assert twin.bit_generator.state == reference.bit_generator.state
            assert twin.integers(0, 2**31, dtype=np.uint32) == (
                reference.integers(0, 2**31, dtype=np.uint32)
            )
            assert twin.random(9).tobytes() == reference.random(9).tobytes()
            for ours, theirs in zip(
                spawn_children(twin, 3), spawn_children(reference, 3)
            ):
                assert ours.random(4).tobytes() == theirs.random(4).tobytes()
            assert twin.random(5).tobytes() == reference.random(5).tobytes()
            # The original was neither advanced nor spawned from.
            assert original.bit_generator.state == before
            untouched = copy.deepcopy(original)
            assert (
                spawn_children(original, 1)[0].random(3).tobytes()
                == spawn_children(untouched, 1)[0].random(3).tobytes()
            )

    def test_other_generators_fall_back_to_deepcopy(self):
        from repro.utils.rng import clone_generator

        other = np.random.Generator(np.random.Philox(4))
        other.random(3)
        twin = clone_generator(other)
        assert twin is not other
        assert twin.random(6).tobytes() == other.random(6).tobytes()
