"""Random-number-generator plumbing.

Every stochastic component of the library accepts either a seed (``int``),
``None`` (fresh entropy), or an existing :class:`numpy.random.Generator`.
Centralising the coercion here keeps experiment scripts reproducible: one
top-level seed fans out deterministically to every substrate via
:func:`spawn_children`.
"""

from __future__ import annotations

import copy

import numpy as np

__all__ = [
    "as_generator",
    "spawn_children",
    "clone_generator",
    "SeedSpec",
    "generator_spec",
    "generator_from_spec",
    "generator_from_parts",
]

SeedLike = (
    "int | None | np.random.Generator | np.random.SeedSequence | SeedSpec"
)


class SeedSpec:
    """Lazy, immutable stand-in for a PCG64-backed generator.

    Holds the plain-int fields of :func:`generator_spec` and materialises
    the generator only when a consumer coerces it through
    :func:`as_generator`.  The distributed wire codec decodes task seeds
    into these instead of eagerly rebuilding generators: reconstruction
    (SeedSequence + PCG64 seeding, ~15µs per seed) is then paid inside
    the worker's pool children at execution time — where it parallelises —
    rather than serially in the session thread during chunk decode.

    Bit-identity is preserved by construction: materialisation overwrites
    the bit-generator state with the captured ints, so draws and spawns
    match the original generator exactly (see :func:`generator_from_parts`).
    Instances are cheap to deep-copy (eight scalars), which also makes
    :func:`clone_generator` on decoded tasks cheaper than cloning a live
    generator.
    """

    __slots__ = (
        "state",
        "inc",
        "has_uint32",
        "uinteger",
        "entropy",
        "spawn_key",
        "pool_size",
        "n_children_spawned",
    )

    def __init__(
        self,
        state,
        inc,
        has_uint32,
        uinteger,
        entropy,
        spawn_key,
        pool_size,
        n_children_spawned,
    ):
        self.state = state
        self.inc = inc
        self.has_uint32 = has_uint32
        self.uinteger = uinteger
        self.entropy = entropy
        self.spawn_key = spawn_key
        self.pool_size = pool_size
        self.n_children_spawned = n_children_spawned

    def materialize(self) -> np.random.Generator:
        """Rebuild the described generator (a fresh instance each call)."""
        return generator_from_parts(
            self.state,
            self.inc,
            self.has_uint32,
            self.uinteger,
            self.entropy,
            self.spawn_key,
            self.pool_size,
            self.n_children_spawned,
        )

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"SeedSpec(entropy={self.entropy!r}, "
            f"spawn_key={self.spawn_key!r})"
        )


def as_generator(seed=None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (OS entropy), an ``int`` seed, a ``SeedSequence``, a
    :class:`SeedSpec` (materialised to a bit-exact generator), or an
    existing ``Generator`` (returned unchanged so that state is shared with
    the caller).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if isinstance(seed, SeedSpec):
        return seed.materialize()
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        "seed must be None, an int, a numpy SeedSequence, a SeedSpec or "
        f"a Generator; got {type(seed).__name__}"
    )


def spawn_children(seed, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from one seed.

    Used by experiment drivers so that, e.g., topology generation and
    congestion sampling consume independent streams and adding snapshots to
    one stage never perturbs another.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, SeedSpec):
        seed = seed.materialize()
    if isinstance(seed, np.random.Generator):
        # Spawn through the generator's bit generator seed sequence.
        children = seed.bit_generator.seed_seq.spawn(count)
    else:
        children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.default_rng(child) for child in children]


def clone_generator(seed):
    """Bit-exact private copy of a seed-like value.

    For a :class:`numpy.random.Generator` the clone must reproduce the
    original in *both* draw behaviour and spawn behaviour:
    reconstructing a generator from ``bit_generator.state`` alone would
    draw identically but attach a fresh ``SeedSequence``, so a later
    :func:`spawn_children` on the clone would diverge.  A PCG64
    generator on an integer-entropy seed sequence (what ``default_rng``
    and :func:`spawn_children` make) is rebuilt from its entropy, spawn
    key, pool size, children counter and bit-generator state, exactly
    as :func:`generator_from_parts` rebuilds a shipped one; any other
    generator is deep-copied, which carries the same contract.

    Other seed-likes (``None``, ints, ``SeedSequence``) deep-copy too,
    so callers can hand any accepted seed form to a consumer that will
    mutate it without disturbing the original.
    """
    if type(seed) is np.random.Generator:
        bit_generator = seed.bit_generator
        seed_seq = getattr(bit_generator, "seed_seq", None)
        if (
            type(bit_generator) is np.random.PCG64
            and type(seed_seq) is np.random.SeedSequence
            and type(seed_seq.entropy) is int
        ):
            state = bit_generator.state
            return generator_from_parts(
                state["state"]["state"],
                state["state"]["inc"],
                state["has_uint32"],
                state["uinteger"],
                seed_seq.entropy,
                seed_seq.spawn_key,
                seed_seq.pool_size,
                seed_seq.n_children_spawned,
            )
    return copy.deepcopy(seed)


def generator_spec(gen: np.random.Generator) -> dict:
    """Lossless, pickle-free description of a PCG64-backed generator.

    Captures both halves of the :func:`clone_generator` contract — the
    bit-generator *state* (draw behaviour) and the attached
    :class:`numpy.random.SeedSequence` (spawn behaviour) — as plain
    Python ints and tuples, so the distributed wire codec can ship a
    generator without pickling it and reconstruct a bit-exact twin with
    :func:`generator_from_spec`.

    Raises :class:`ValueError` for anything but a ``PCG64``-backed
    generator with an integer-entropy seed sequence: the engine only
    ever produces those (``default_rng`` / ``SeedSequence.spawn``), and
    a lossy description would silently break bit-identity, so exotic
    generators must fail loudly (the dist codec reports a
    :class:`~repro.eval.dist.codec.CodecError` before the sweep starts).
    """
    if not isinstance(gen, np.random.Generator):
        raise ValueError(
            f"generator_spec needs a numpy Generator, got "
            f"{type(gen).__name__}"
        )
    bit_generator = gen.bit_generator
    if not isinstance(bit_generator, np.random.PCG64):
        raise ValueError(
            f"generator_spec only describes PCG64 bit generators, got "
            f"{type(bit_generator).__name__}"
        )
    seed_seq = bit_generator.seed_seq
    if not isinstance(seed_seq, np.random.SeedSequence):
        raise ValueError(
            "generator_spec needs a SeedSequence-carrying bit generator"
        )
    entropy = seed_seq.entropy
    if entropy is not None and not isinstance(entropy, int):
        # Sequence entropy (list form) is legal numpy but never produced
        # by this codebase's seeding paths; keep the wire form simple.
        raise ValueError(
            f"generator_spec needs integer (or None) entropy, got "
            f"{type(entropy).__name__}"
        )
    state = bit_generator.state
    return {
        "state": int(state["state"]["state"]),
        "inc": int(state["state"]["inc"]),
        "has_uint32": int(state["has_uint32"]),
        "uinteger": int(state["uinteger"]),
        "entropy": entropy,
        "spawn_key": tuple(int(k) for k in seed_seq.spawn_key),
        "pool_size": int(seed_seq.pool_size),
        "n_children_spawned": int(seed_seq.n_children_spawned),
    }


def generator_from_parts(
    state: int,
    inc: int,
    has_uint32: int,
    uinteger: int,
    entropy,
    spawn_key: tuple,
    pool_size: int,
    n_children_spawned: int,
) -> np.random.Generator:
    """Rebuild a generator from :func:`generator_spec`'s fields.

    The positional twin of :func:`generator_from_spec`, for hot decode
    loops (the distributed wire codec rebuilds two generators per task
    record): same reconstruction, no intermediate spec dict.  The seed
    sequence is reconstructed first (entropy, spawn key, pool size,
    children counter) so future :func:`spawn_children` calls on the
    rebuilt generator diverge identically to the original; the
    bit-generator state is then overwritten so draws continue from the
    exact captured position.
    """
    seed_seq = np.random.SeedSequence(
        entropy=entropy,
        spawn_key=spawn_key,
        pool_size=pool_size,
        n_children_spawned=n_children_spawned,
    )
    bit_generator = np.random.PCG64(seed_seq)
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }
    return np.random.Generator(bit_generator)


def generator_from_spec(spec: dict) -> np.random.Generator:
    """Rebuild the generator :func:`generator_spec` described."""
    return generator_from_parts(
        spec["state"],
        spec["inc"],
        spec["has_uint32"],
        spec["uinteger"],
        spec["entropy"],
        tuple(spec["spawn_key"]),
        spec["pool_size"],
        spec["n_children_spawned"],
    )
