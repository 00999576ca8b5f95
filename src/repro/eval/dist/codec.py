"""Schema'd binary codecs for the dist wire's session payloads.

The two payloads a sweep session ships to a worker have explicit,
versioned encodings, so a worker never deserializes anything but
JSON and fixed-layout records:

* **sweep context** (:func:`encode_context` / :func:`decode_context`):
  one canonical-JSON document carrying the instance in its
  :func:`repro.io.instance_to_dict` form, the coordinator-computed
  :func:`repro.io.instance_fingerprint` (so worker-side cache keys are
  equal to the coordinator's by construction, not by re-derivation),
  and the config/options dataclasses as plain field dicts;
* **task chunks** (:func:`encode_tasks` / :func:`decode_tasks`):
  fixed-width struct records per :class:`repro.eval.parallel.ScenarioTask`
  with deduplicated side tables for factory names, factory kwargs and
  seed entropy, and the PCG64 generator state packed as two 128-bit
  integers plus the :class:`numpy.random.SeedSequence` coordinates
  (:func:`repro.utils.rng.generator_spec`) — bit-exact for both draw
  and spawn behaviour.  Decode returns seeds as lazy
  :class:`repro.utils.rng.SeedSpec` values: every consumer coerces
  through :func:`repro.utils.rng.as_generator`, so the ~15µs-per-seed
  numpy reconstruction is deferred into the pool children at execution
  time instead of serialising chunk decode;
* **chunk results** reuse the engine's packed float64 transport
  (:func:`repro.eval.parallel._pack_error_dicts`); the descriptor
  rides in the JSON frame header.

Failure contract: :class:`CodecError` means "this payload cannot be
carried losslessly by the codec" — a non-JSON-native factory kwarg, an
exotic node id, a non-PCG64 seed — and names the offending field.  The
coordinator encodes the whole sweep before it opens any connection, so
such a sweep fails up front with that error; it is never acceptable to
coerce and ship, since a lossy wire could silently break the
bit-identity guarantee between serial and remote execution.

Every encoded payload leads with :data:`CODEC_VERSION`, so a payload of
another codec version is rejected at decode instead of misread.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict

from repro.core.correlation_algorithm import AlgorithmOptions
from repro.eval.dist.protocol import ProtocolError
from repro.eval.parallel import ScenarioTask
from repro.io import instance_fingerprint, instance_from_dict, instance_to_dict
from repro.simulate.experiment import ExperimentConfig
from repro.topogen.instance import TomographyInstance
from repro.utils.rng import SeedSpec, generator_spec

__all__ = [
    "CODEC_VERSION",
    "CodecError",
    "encode_context",
    "decode_context",
    "encode_tasks",
    "decode_tasks",
]

#: Version tag leading every encoded payload (context and chunk alike).
CODEC_VERSION = 1


class CodecError(ProtocolError):
    """The payload cannot be carried losslessly by the v4 codec.

    On the encoding side it fails the sweep before any connection; on
    the decoding side it means a corrupt or version-skewed payload and
    aborts the session.
    """


# ----------------------------------------------------------------------
# JSON exactness
# ----------------------------------------------------------------------
#: Reserved object key marking a tuple in the wire form.  JSON has no
#: tuple type and a silent tuple→list rewrite would change what the
#: scenario factories receive, so tuples are tagged explicitly and
#: restored on decode; a payload that uses the tag as a real key is
#: rejected rather than mis-decoded.
_TUPLE_TAG = "__tuple__"


def _to_wire_value(value, where: str):
    """Convert ``value`` to a JSON document that decodes back *exactly*.

    JSON-native scalars pass through; tuples become tagged objects
    (:data:`_TUPLE_TAG`) so :func:`_from_wire_value` restores their
    type; anything else — sets, numpy values, arbitrary objects, or
    dicts with non-string keys, all of which JSON would drop or rewrite
    — raises :class:`CodecError` naming ``where``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {
            _TUPLE_TAG: [
                _to_wire_value(item, f"{where}[{index}]")
                for index, item in enumerate(value)
            ]
        }
    if isinstance(value, list):
        return [
            _to_wire_value(item, f"{where}[{index}]")
            for index, item in enumerate(value)
        ]
    if isinstance(value, dict):
        if _TUPLE_TAG in value:
            raise CodecError(
                f"{where} uses the reserved key {_TUPLE_TAG!r}"
            )
        converted = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(
                    f"{where} has a non-string key {key!r}; JSON would "
                    "rewrite it and break the exact round-trip"
                )
            converted[key] = _to_wire_value(item, f"{where}[{key!r}]")
        return converted
    raise CodecError(
        f"{where} contains a {type(value).__name__}, which does not "
        "round-trip exactly through JSON"
    )


def _from_wire_value(value):
    """Inverse of :func:`_to_wire_value`."""
    if isinstance(value, dict):
        if set(value) == {_TUPLE_TAG}:
            return tuple(
                _from_wire_value(item) for item in value[_TUPLE_TAG]
            )
        return {key: _from_wire_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_from_wire_value(item) for item in value]
    return value


def _encode_json(value) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


# ----------------------------------------------------------------------
# Init context
# ----------------------------------------------------------------------
def _dataclass_doc(value, expected_type, where: str):
    if value is None:
        return None
    if type(value) is not expected_type:
        raise CodecError(
            f"{where} must be {expected_type.__name__} or None for the "
            f"v4 wire, got {type(value).__name__}"
        )
    return _to_wire_value(asdict(value), where)


def encode_context(context) -> bytes:
    """Encode the ``(instance, config, options)`` init triple.

    Returns the canonical-JSON context document as UTF-8 bytes.  Raises
    :class:`CodecError` when any compute-relevant part would not
    survive the JSON round-trip exactly: exotic node ids, or config /
    options objects that are not the stock dataclasses.  Instance
    *metadata* rides in its :func:`repro.io.instance_to_dict` coerced
    form — the same coercion the on-disk instance format applies — and
    is deliberately exempt from the exactness rule: nothing downstream
    of the wire consumes it for compute, and cache keys use the shipped
    coordinator-side fingerprint, never a worker-side re-derivation.
    """
    try:
        instance, config, options = context
    except (TypeError, ValueError) as exc:
        raise CodecError(f"malformed context triple: {exc}") from exc
    if not isinstance(instance, TomographyInstance):
        raise CodecError(
            f"context instance must be a TomographyInstance, got "
            f"{type(instance).__name__}"
        )
    for link in instance.topology.links:
        if not isinstance(link.src, (str, int)) or not isinstance(
            link.dst, (str, int)
        ):
            raise CodecError(
                f"link {link.name!r} has non-JSON node ids "
                f"({type(link.src).__name__}/{type(link.dst).__name__}); "
                "the codec carries str and int node ids only"
            )
    doc = {
        "codec": CODEC_VERSION,
        "fingerprint": instance_fingerprint(instance),
        "instance": instance_to_dict(instance),
        "config": _dataclass_doc(config, ExperimentConfig, "config"),
        "options": _dataclass_doc(options, AlgorithmOptions, "options"),
    }
    return _encode_json(doc)


def decode_context(data) -> tuple[tuple, str]:
    """Decode :func:`encode_context` output.

    Returns ``((instance, config, options), fingerprint)``.  The
    fingerprint is the coordinator's, shipped rather than recomputed,
    so worker cache keys cannot drift from the coordinator's even if
    fingerprinting details ever change between builds.
    """
    try:
        doc = json.loads(bytes(data).decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CodecError(f"malformed v4 context payload: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("codec") != CODEC_VERSION:
        raise CodecError(
            f"unsupported v4 context codec "
            f"{doc.get('codec') if isinstance(doc, dict) else doc!r}"
        )
    fingerprint = doc.get("fingerprint")
    if not isinstance(fingerprint, str):
        raise CodecError("v4 context is missing its instance fingerprint")
    try:
        instance = instance_from_dict(doc["instance"])
        config = (
            ExperimentConfig(**_from_wire_value(doc["config"]))
            if doc.get("config") is not None
            else None
        )
        options = (
            AlgorithmOptions(**_from_wire_value(doc["options"]))
            if doc.get("options") is not None
            else None
        )
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(f"malformed v4 context document: {exc!r}") from exc
    return (instance, config, options), fingerprint


# ----------------------------------------------------------------------
# Task chunks
# ----------------------------------------------------------------------
_CHUNK_HEAD = struct.Struct("!BIHII")  # codec | n_tasks | n_fac | n_kw | n_ent
_TASK_HEAD = struct.Struct("!qHI")  # group | factory idx | kwargs idx
_SEED_STATE = struct.Struct("!16s16sBQ")  # state | inc | has_uint32 | uinteger
_SEED_SEQ = struct.Struct("!IBQB")  # entropy idx | pool | n_spawned | key len
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")

_SEED_NONE = 0
_SEED_PCG64 = 1


class _Table:
    """Deduplicating byte-string side table (insertion-ordered)."""

    def __init__(self) -> None:
        self.index: dict[bytes, int] = {}
        self.entries: list[bytes] = []

    def add(self, entry: bytes) -> int:
        slot = self.index.get(entry)
        if slot is None:
            slot = len(self.entries)
            self.index[entry] = slot
            self.entries.append(entry)
        return slot


class _ValueTable:
    """Side table deduplicated on the (hashable) value itself.

    Entries are JSON-serialized once, at assembly time, instead of once
    per occurrence — the sweep's seed entropies are a handful of ints
    repeated across thousands of task records, so encoding before
    deduplicating dominated the original encoder's profile.
    """

    def __init__(self) -> None:
        self.index: dict = {}
        self.values: list = []

    def add(self, value) -> int:
        slot = self.index.get(value)
        if slot is None:
            slot = len(self.values)
            self.index[value] = slot
            self.values.append(value)
        return slot

    def serialized(self) -> list[bytes]:
        return [_encode_json(value) for value in self.values]


def _encode_seed(parts: list, seed, entropy_table: _ValueTable) -> None:
    if seed is None:
        parts.append(b"\x00")
        return
    if isinstance(seed, SeedSpec):
        # Re-encoding a decoded task: the lazy seed already carries the
        # exact wire fields, no generator to describe.
        state, inc = seed.state, seed.inc
        has_uint32, uinteger = seed.has_uint32, seed.uinteger
        entropy_idx = entropy_table.add(seed.entropy)
        spawn_key = seed.spawn_key
        pool_size = seed.pool_size
        n_spawned = seed.n_children_spawned
    else:
        try:
            spec = generator_spec(seed)
        except ValueError as exc:
            raise CodecError(
                f"task seed not v4-encodable: {exc}"
            ) from exc
        state, inc = spec["state"], spec["inc"]
        has_uint32, uinteger = spec["has_uint32"], spec["uinteger"]
        entropy_idx = entropy_table.add(spec["entropy"])
        spawn_key = spec["spawn_key"]
        pool_size = spec["pool_size"]
        n_spawned = spec["n_children_spawned"]
    try:
        parts.append(bytes([_SEED_PCG64]))
        parts.append(
            _SEED_STATE.pack(
                state.to_bytes(16, "big"),
                inc.to_bytes(16, "big"),
                has_uint32,
                uinteger,
            )
        )
        parts.append(
            _SEED_SEQ.pack(
                entropy_idx,
                pool_size,
                n_spawned,
                len(spawn_key),
            )
        )
        if spawn_key:
            parts.append(
                struct.pack(f"!{len(spawn_key)}Q", *spawn_key)
            )
    except (struct.error, OverflowError) as exc:
        raise CodecError(
            f"task seed coordinates overflow the v4 record: {exc}"
        ) from exc


def encode_tasks(tasks) -> bytes:
    """Encode one chunk's :class:`ScenarioTask` list as binary records.

    Factory names, kwargs documents and seed entropies are deduplicated
    into side tables (tasks of one sweep share them almost entirely);
    each task is then a fixed-width record of table indices plus its
    two packed generator states.  Raises :class:`CodecError` whenever a
    field would not round-trip exactly, which fails the sweep before
    any connection.
    """
    factories = _Table()
    kwargs_table = _Table()
    entropy_table = _ValueTable()
    # Identity-keyed kwargs dedup: tasks of one sweep point share their
    # kwargs *value objects* (scenario_tasks copies the dict shallowly),
    # so a hit here skips re-encoding without any equality subtlety —
    # identical objects serialize identically by construction.  The
    # task list keeps every value alive for the duration of the encode,
    # so ids cannot be recycled under the cache.  Anything that defeats
    # the identity key (non-string keys, unsortable mixes) just takes
    # the encode-then-dedup path below.
    ident_index: dict = {}
    records: list[bytes] = []
    for task in tasks:
        if not isinstance(task, ScenarioTask):
            raise CodecError(
                f"v4 chunks carry ScenarioTask records, got "
                f"{type(task).__name__}"
            )
        factory_idx = factories.add(task.factory.encode("utf-8"))
        kwargs = task.factory_kwargs
        try:
            ident_key = tuple(
                sorted((key, id(value)) for key, value in kwargs.items())
            )
        except TypeError:
            ident_key = None
        kwargs_idx = (
            ident_index.get(ident_key) if ident_key is not None else None
        )
        if kwargs_idx is None:
            kwargs_idx = kwargs_table.add(
                _encode_json(
                    _to_wire_value(
                        kwargs,
                        f"factory_kwargs of {task.factory!r}",
                    )
                )
            )
            if ident_key is not None:
                ident_index[ident_key] = kwargs_idx
        try:
            records.append(
                _TASK_HEAD.pack(task.group, factory_idx, kwargs_idx)
            )
        except struct.error as exc:
            raise CodecError(
                f"task record overflows the v4 layout: {exc}"
            ) from exc
        _encode_seed(records, task.scenario_seed, entropy_table)
        _encode_seed(records, task.run_seed, entropy_table)
    parts = [
        _CHUNK_HEAD.pack(
            CODEC_VERSION,
            len(tasks),
            len(factories.entries),
            len(kwargs_table.entries),
            len(entropy_table.values),
        )
    ]
    for entry in factories.entries:
        parts.append(_U16.pack(len(entry)))
        parts.append(entry)
    for entries in (kwargs_table.entries, entropy_table.serialized()):
        for entry in entries:
            parts.append(_U32.pack(len(entry)))
            parts.append(entry)
    parts.extend(records)
    return b"".join(parts)


def _decode_seed(buffer, offset: int, entropies: list):
    kind = buffer[offset]
    offset += 1
    if kind == _SEED_NONE:
        return None, offset
    if kind != _SEED_PCG64:
        raise CodecError(f"unknown v4 seed kind {kind}")
    state, inc, has_uint32, uinteger = _SEED_STATE.unpack_from(
        buffer, offset
    )
    offset += _SEED_STATE.size
    entropy_idx, pool_size, n_spawned, key_len = _SEED_SEQ.unpack_from(
        buffer, offset
    )
    offset += _SEED_SEQ.size
    spawn_key = struct.unpack_from(f"!{key_len}Q", buffer, offset)
    offset += 8 * key_len
    if entropy_idx >= len(entropies):
        raise CodecError(
            f"v4 seed references entropy entry {entropy_idx} of "
            f"{len(entropies)}"
        )
    # Decode to a lazy SeedSpec rather than an eager Generator: numpy
    # reconstruction (~15µs per seed) dominates chunk decode, and every
    # consumer coerces seeds through as_generator(), so materialisation
    # defers to the pool children at execution time where it parallelises.
    spec = SeedSpec(
        int.from_bytes(state, "big"),
        int.from_bytes(inc, "big"),
        has_uint32,
        uinteger,
        entropies[entropy_idx],
        spawn_key,
        pool_size,
        n_spawned,
    )
    return spec, offset


def decode_tasks(data) -> list[ScenarioTask]:
    """Decode :func:`encode_tasks` output back into task records."""
    buffer = memoryview(data)
    try:
        codec, n_tasks, n_factories, n_kwargs, n_entropy = (
            _CHUNK_HEAD.unpack_from(buffer, 0)
        )
        if codec != CODEC_VERSION:
            raise CodecError(f"unsupported v4 chunk codec {codec}")
        offset = _CHUNK_HEAD.size
        factories: list[str] = []
        for _ in range(n_factories):
            (length,) = _U16.unpack_from(buffer, offset)
            offset += _U16.size
            factories.append(
                bytes(buffer[offset : offset + length]).decode("utf-8")
            )
            offset += length
        kwargs_docs: list[dict] = []
        for _ in range(n_kwargs):
            (length,) = _U32.unpack_from(buffer, offset)
            offset += _U32.size
            kwargs_docs.append(
                _from_wire_value(
                    json.loads(bytes(buffer[offset : offset + length]))
                )
            )
            offset += length
        entropies: list = []
        for _ in range(n_entropy):
            (length,) = _U32.unpack_from(buffer, offset)
            offset += _U32.size
            entropies.append(
                json.loads(bytes(buffer[offset : offset + length]))
            )
            offset += length
        tasks: list[ScenarioTask] = []
        for _ in range(n_tasks):
            group, factory_idx, kwargs_idx = _TASK_HEAD.unpack_from(
                buffer, offset
            )
            offset += _TASK_HEAD.size
            scenario_seed, offset = _decode_seed(buffer, offset, entropies)
            run_seed, offset = _decode_seed(buffer, offset, entropies)
            if factory_idx >= len(factories) or kwargs_idx >= len(
                kwargs_docs
            ):
                raise CodecError(
                    "v4 task record references a missing table entry"
                )
            tasks.append(
                ScenarioTask(
                    group=group,
                    factory=factories[factory_idx],
                    # Each task gets a private kwargs dict, matching
                    # scenario_tasks(); a shared dict would let one
                    # task's consumer mutate another's.
                    factory_kwargs=dict(kwargs_docs[kwargs_idx]),
                    scenario_seed=scenario_seed,
                    run_seed=run_seed,
                )
            )
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(f"malformed v4 chunk payload: {exc!r}") from exc
    if offset != len(buffer):
        raise CodecError(
            f"v4 chunk payload has {len(buffer) - offset} trailing bytes"
        )
    return tasks
