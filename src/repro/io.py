"""Serialization of tomography instances (JSON).

Generated instances (Brite hierarchies, PlanetLab meshes) are expensive
to rebuild and impossible to reproduce without the exact generator
version and seed; persisting them lets experiments pin their inputs.
The format is deliberately plain JSON — diffable, versioned, and
readable by other tooling:

.. code-block:: json

    {
      "format": "repro-instance",
      "version": 1,
      "links":  [{"name": "e1", "src": "v3", "dst": "v1"}, ...],
      "paths":  [{"name": "P1", "links": ["e3", "e1"]}, ...],
      "correlation_sets": [["e1", "e2"], ["e3"], ["e4"]],
      "metadata": {...}
    }

Node identifiers are serialised with ``repr``-free JSON coercion: strings
and integers round-trip exactly; other hashables are stringified (the
topology semantics only need equality, which stringified ids preserve
within one file).
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.core.correlation import CorrelationStructure
from repro.core.link import Link, Path
from repro.core.topology import Topology
from repro.exceptions import TopologyError
from repro.topogen.instance import TomographyInstance

__all__ = [
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
    "canonical_json",
    "instance_fingerprint",
    "parse_json",
]

_FORMAT = "repro-instance"
_VERSION = 1


def _coerce_node(node) -> "str | int":
    if isinstance(node, (str, int)):
        return node
    return str(node)


def instance_to_dict(instance: TomographyInstance) -> dict:
    """Convert an instance into the JSON-ready dictionary form."""
    topology = instance.topology
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "links": [
            {
                "name": link.name,
                "src": _coerce_node(link.src),
                "dst": _coerce_node(link.dst),
            }
            for link in topology.links
        ],
        "paths": [
            {
                "name": path.name,
                "links": [
                    topology.links[k].name for k in path.link_ids
                ],
            }
            for path in topology.paths
        ],
        "correlation_sets": [
            sorted(topology.links[k].name for k in group)
            for group in instance.correlation.sets
        ],
        "metadata": _jsonable_metadata(instance.metadata),
    }


def _jsonable_metadata(metadata: dict) -> dict:
    """Best-effort metadata coercion: stringify entries JSON cannot
    carry (non-finite floats included, which :func:`parse_json` would
    refuse on the way back)."""
    cleaned = {}
    for key, value in metadata.items():
        try:
            json.dumps(value, allow_nan=False)
        except (TypeError, ValueError):
            cleaned[str(key)] = str(value)
        else:
            cleaned[str(key)] = value
    return cleaned


def instance_from_dict(payload: dict) -> TomographyInstance:
    """Rebuild an instance from its dictionary form.

    Raises :class:`TopologyError` on format mismatches; structural
    violations (duplicate names, non-contiguous paths, non-partition
    correlation sets) surface through the normal constructors.
    """
    if payload.get("format") != _FORMAT:
        raise TopologyError(
            f"not a {_FORMAT} document (format="
            f"{payload.get('format')!r})"
        )
    if payload.get("version") != _VERSION:
        raise TopologyError(
            f"unsupported {_FORMAT} version {payload.get('version')!r}"
        )
    links = [
        Link(
            id=index,
            name=entry["name"],
            src=entry["src"],
            dst=entry["dst"],
        )
        for index, entry in enumerate(payload["links"])
    ]
    name_to_id = {link.name: link.id for link in links}
    paths = [
        Path(
            id=index,
            name=entry["name"],
            link_ids=tuple(
                name_to_id[link_name] for link_name in entry["links"]
            ),
        )
        for index, entry in enumerate(payload["paths"])
    ]
    topology = Topology(links, paths)
    correlation = CorrelationStructure(
        topology,
        [
            [name_to_id[name] for name in group]
            for group in payload["correlation_sets"]
        ],
    )
    return TomographyInstance(
        topology=topology,
        correlation=correlation,
        metadata=dict(payload.get("metadata", {})),
    )


def save_instance(instance: TomographyInstance, path) -> None:
    """Write an instance to a JSON file."""
    path = pathlib.Path(path)
    path.write_text(
        json.dumps(instance_to_dict(instance), indent=2, sort_keys=True)
        + "\n"
    )


def load_instance(path) -> TomographyInstance:
    """Read an instance from a JSON file."""
    path = pathlib.Path(path)
    return instance_from_dict(parse_json(path.read_text()))


def _refuse_constant(name: str):
    raise ValueError(f"non-finite constant {name} is not JSON")


def parse_json(text):
    """Parse JSON that came from outside the program.

    ``NaN`` and ``Infinity`` are not JSON, though Python's parser takes
    them; they are refused.  Nesting deeper than the parser's recursion
    limit is refused too, as a ``ValueError`` rather than a
    ``RecursionError``, so every caller's ``ValueError`` path (a 400, an
    ``error:`` line) answers hostile input.
    """
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _canonical_default(value):
    """Lossless coercion for the non-native types cache keys carry.

    Anything else raises: a lossy fallback (``str`` elides large numpy
    arrays, for example) could hash distinct payloads equal, which for a
    content address is corruption, not convenience.
    """
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a hard dep
        np = None
    if np is not None:
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, np.generic):
            return value.item()
    raise TypeError(
        f"canonical_json cannot encode {type(value).__name__} losslessly"
    )


def canonical_json(payload) -> str:
    """Deterministic, lossless JSON encoding for content addressing.

    Sorted keys, no insignificant whitespace; numpy arrays/scalars
    convert exactly, and any other non-JSON-native value raises rather
    than degrading to a possibly-eliding ``str`` — so equal payloads
    always hash equal and unequal payloads never collide by truncation.
    Tuples serialise as lists, which is fine for hashing: no caller
    round-trips this form back into Python objects.
    """
    return json.dumps(
        payload,
        sort_keys=True,
        separators=(",", ":"),
        default=_canonical_default,
    )


def instance_fingerprint(instance: TomographyInstance) -> str:
    """Stable content hash of an instance (links, paths, correlation).

    Built on :func:`instance_to_dict`, so two instances that serialise
    identically — regardless of how they were generated — share a
    fingerprint.  Generator metadata is included: it records the knobs
    (AS counts, cluster sizes, seeds) that produced the instance, and
    distinct metadata conservatively yields distinct fingerprints.  The
    trial-result cache (:mod:`repro.eval.cache`) uses this as the
    instance component of its keys.
    """
    payload = canonical_json(instance_to_dict(instance))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
