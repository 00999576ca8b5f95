"""The service's bounded topology store.

Maps instance fingerprints to loaded :class:`TomographyInstance` objects
plus their per-topology batcher.  Loading is explicit (``POST``), so
eviction is too: the store refuses new topologies beyond its capacity
instead of silently dropping one that live clients still query —
operators evict via ``DELETE``.  Each loaded topology's
measurement-independent equation prep is warmed into the service's
:class:`repro.core.prepared.PreparedRegistry` at load time, which is
exactly the state a warm query skips rebuilding.

Only the event loop touches the store, so it needs no locking; the
prepared registry underneath has its own lock because executor worker
threads share it.
"""

from __future__ import annotations

import time

from repro.core.prepared import PreparedRegistry
from repro.eval.figures import SCALES
from repro.io import instance_fingerprint, instance_from_dict
from repro.topogen.brite import generate_brite
from repro.topogen.planetlab import generate_planetlab

__all__ = ["StoreFull", "TopologyEntry", "TopologyStore"]

#: Whitelisted generator parameters per kind — everything else in a
#: ``generator`` payload is rejected so typos fail loudly instead of
#: silently generating a default topology.
_GENERATOR_PARAMS = {
    "brite": {
        "n_ases",
        "routers_per_as",
        "n_paths",
        "as_model",
        "as_edges_per_node",
        "correlation_mode",
        "routing",
        "seed",
    },
    "planetlab": {
        "n_routers",
        "n_vantages",
        "n_paths",
        "graph_model",
        "waxman_alpha",
        "waxman_beta",
        "ba_edges_per_node",
        "cluster_size_range",
        "cluster_fraction",
        "seed",
    },
}

#: Size parameters per kind and their caps: a generator spec may ask for
#: no more than the largest topology the repo itself builds, the paper
#: scale, so one request cannot make the service generate without bound.
_SIZE_CAPS = {kind: dict(SCALES["paper"][kind]) for kind in _GENERATOR_PARAMS}


class StoreFull(RuntimeError):
    """The store is at capacity; evict before loading more."""


class TopologyEntry:
    """One loaded topology and its runtime bookkeeping."""

    __slots__ = (
        "fingerprint",
        "name",
        "instance",
        "batcher",
        "loaded_at",
        "queries",
    )

    def __init__(self, fingerprint, name, instance, batcher) -> None:
        self.fingerprint = fingerprint
        self.name = name
        self.instance = instance
        self.batcher = batcher
        self.loaded_at = time.time()
        self.queries = 0

    def describe(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "name": self.name,
            "n_links": self.instance.topology.n_links,
            "n_paths": self.instance.topology.n_paths,
            "n_correlation_sets": self.instance.correlation.n_sets,
            "queries": self.queries,
            "pending": self.batcher.pending,
            "loaded_at": self.loaded_at,
        }


def instance_from_payload(payload: dict):
    """Materialise an instance from a load request body.

    Accepts either ``{"generator": {"kind": ..., ...params}}`` (the
    service generates it, cheap to ship) or ``{"instance": {...}}``
    (a full :func:`repro.io.instance_to_dict` document — required for
    topologies the generators cannot express, e.g. operator-measured
    ones).
    """
    generator = payload.get("generator")
    document = payload.get("instance")
    if (generator is None) == (document is None):
        raise ValueError(
            "exactly one of 'generator' or 'instance' is required"
        )
    if document is not None:
        return instance_from_dict(document)
    if not isinstance(generator, dict):
        raise ValueError("'generator' must be an object")
    params = dict(generator)
    kind = params.pop("kind", None)
    if kind not in _GENERATOR_PARAMS:
        raise ValueError(
            f"generator kind must be one of "
            f"{sorted(_GENERATOR_PARAMS)}, got {kind!r}"
        )
    unknown = sorted(set(params) - _GENERATOR_PARAMS[kind])
    if unknown:
        raise ValueError(
            f"unknown {kind} generator parameter(s) {unknown}"
        )
    for name, cap in _SIZE_CAPS[kind].items():
        if name not in params:
            continue
        value = params[name]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"{kind} generator parameter {name!r} must be an "
                f"integer, got {value!r}"
            )
        if value > cap:
            raise ValueError(
                f"{kind} generator parameter {name}={value} exceeds "
                f"{cap}, the paper-scale size"
            )
    if "cluster_size_range" in params:
        params["cluster_size_range"] = tuple(params["cluster_size_range"])
    if kind == "brite":
        return generate_brite(**params).instance
    return generate_planetlab(**params)


class TopologyStore:
    """Fingerprint-keyed store of loaded topologies (bounded, explicit)."""

    def __init__(
        self,
        *,
        max_topologies: int = 4,
        prep_registry: PreparedRegistry | None = None,
    ) -> None:
        if max_topologies < 1:
            raise ValueError(
                f"max_topologies must be >= 1, got {max_topologies}"
            )
        self.max_topologies = max_topologies
        # Sized so every loaded topology keeps its prep warm with room
        # for the occasional ad-hoc correlation structure.
        self.prep_registry = prep_registry or PreparedRegistry(
            capacity=2 * max_topologies
        )
        self._entries: dict[str, TopologyEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def get(self, fingerprint: str) -> TopologyEntry | None:
        return self._entries.get(fingerprint)

    def entries(self) -> list[TopologyEntry]:
        return list(self._entries.values())

    def load(self, instance, *, name, make_batcher) -> tuple[TopologyEntry, bool]:
        """Register *instance*, warming its equation prep.

        Returns ``(entry, created)`` — re-loading an already-present
        fingerprint is an idempotent no-op.  Raises :class:`StoreFull`
        at capacity.
        """
        fingerprint = instance_fingerprint(instance)
        entry = self._entries.get(fingerprint)
        if entry is not None:
            return entry, False
        if len(self._entries) >= self.max_topologies:
            raise StoreFull(
                f"store holds {len(self._entries)} topologies "
                f"(max {self.max_topologies}); evict one first"
            )
        # Warm the measurement-independent prep now so the first query
        # pays nothing but simulation + inference.
        self.prep_registry.get_or_build(
            instance.topology, instance.correlation
        )
        entry = TopologyEntry(
            fingerprint,
            name or fingerprint[:12],
            instance,
            make_batcher(instance),
        )
        self._entries[fingerprint] = entry
        return entry, True

    def evict(self, fingerprint: str) -> TopologyEntry | None:
        entry = self._entries.pop(fingerprint, None)
        if entry is not None:
            self.prep_registry.evict(
                entry.instance.topology, entry.instance.correlation
            )
        return entry
