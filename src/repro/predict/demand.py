"""Demand matrices: named flows mapped onto topology paths.

A demand matrix is the projected-traffic half of a what-if question:
named flows with offered rates, each bound to a set of candidate paths —
either an explicit ECMP split set (path names or ids) or an
``src``/``dst`` endpoint pair resolved against the topology's routed
paths.  Under ECMP each flow lands on exactly one of its candidates,
chosen uniformly and independently; the congestion model in
:mod:`repro.predict.model` turns that uncertainty into per-link
exceedance probabilities.

Payloads are plain JSON dicts (the shape the CLI reads from
``--demand`` files and the service accepts in ``/whatif`` queries), and
:meth:`DemandMatrix.fingerprint` is the content hash that keys cached
predictions — any rate, split, capacity, or shift perturbation changes
it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import TopologyError
from repro.io import canonical_json

__all__ = [
    "Flow",
    "DemandShift",
    "DemandMatrix",
    "ResolvedDemand",
]


def _check_rate(value, label: str) -> float:
    try:
        rate = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{label} must be a number, got {value!r}") from None
    if not np.isfinite(rate) or rate < 0:
        raise ValueError(f"{label} must be finite and >= 0, got {rate!r}")
    return rate


@dataclass(frozen=True, slots=True)
class Flow:
    """One named traffic flow.

    Attributes:
        name: Unique flow label (referenced by shift overrides).
        rate: Offered load in capacity units.
        src: Source node label (endpoint binding; ``None`` when the
            flow names explicit paths).
        dst: Destination node label.
        paths: Explicit ECMP split set — path names (str) or dense path
            ids (int); ``None`` when the flow binds by endpoints.
    """

    name: str
    rate: float
    src: str | None = None
    dst: str | None = None
    paths: tuple[str | int, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"flow name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "rate", _check_rate(self.rate, f"flow {self.name!r} rate"))
        by_endpoints = self.src is not None or self.dst is not None
        by_paths = self.paths is not None
        if by_endpoints and by_paths:
            raise ValueError(
                f"flow {self.name!r} must bind by endpoints or by explicit "
                "paths, not both"
            )
        if by_endpoints and (self.src is None or self.dst is None):
            raise ValueError(f"flow {self.name!r} needs both 'src' and 'dst'")
        if by_paths and not self.paths:
            raise ValueError(f"flow {self.name!r} has an empty path split set")
        if not by_endpoints and not by_paths:
            raise ValueError(
                f"flow {self.name!r} must name either src/dst endpoints or "
                "an explicit 'paths' split set"
            )

    @classmethod
    def from_payload(cls, payload: dict) -> "Flow":
        if not isinstance(payload, dict):
            raise ValueError(f"flow must be an object, got {type(payload).__name__}")
        unknown = sorted(set(payload) - {"name", "rate", "src", "dst", "paths"})
        if unknown:
            raise ValueError(f"unknown flow field(s) {unknown}")
        paths = payload.get("paths")
        if paths is not None:
            if not isinstance(paths, (list, tuple)):
                raise ValueError(
                    f"flow {payload.get('name')!r}: 'paths' must be a list"
                )
            for entry in paths:
                if not isinstance(entry, (str, int)) or isinstance(entry, bool):
                    raise ValueError(
                        f"flow {payload.get('name')!r}: path references must "
                        f"be names or integer ids, got {entry!r}"
                    )
            paths = tuple(paths)
        return cls(
            name=payload.get("name", ""),
            rate=payload.get("rate"),
            src=payload.get("src"),
            dst=payload.get("dst"),
            paths=paths,
        )

    def to_payload(self) -> dict:
        payload: dict = {"name": self.name, "rate": self.rate}
        if self.paths is not None:
            payload["paths"] = list(self.paths)
        else:
            payload["src"] = self.src
            payload["dst"] = self.dst
        return payload


@dataclass(frozen=True, slots=True)
class DemandShift:
    """A named multiplicative perturbation of the demand.

    ``scale`` multiplies every flow; ``flow_scales`` adds per-flow
    multipliers on top (``(flow name, factor)`` pairs).  The identity
    shift (scale 1.0, no overrides) is the baseline prediction.
    """

    name: str
    scale: float = 1.0
    flow_scales: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"shift name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "scale", _check_rate(self.scale, f"shift {self.name!r} scale"))
        seen = set()
        for flow_name, factor in self.flow_scales:
            if flow_name in seen:
                raise ValueError(f"shift {self.name!r} scales flow {flow_name!r} twice")
            seen.add(flow_name)
            _check_rate(factor, f"shift {self.name!r} factor for {flow_name!r}")

    @classmethod
    def from_payload(cls, payload: dict) -> "DemandShift":
        if not isinstance(payload, dict):
            raise ValueError(f"shift must be an object, got {type(payload).__name__}")
        unknown = sorted(set(payload) - {"name", "scale", "flows"})
        if unknown:
            raise ValueError(f"unknown shift field(s) {unknown}")
        flows = payload.get("flows") or {}
        if not isinstance(flows, dict):
            raise ValueError(
                f"shift {payload.get('name')!r}: 'flows' must map flow "
                "names to factors"
            )
        return cls(
            name=payload.get("name", ""),
            scale=payload.get("scale", 1.0),
            flow_scales=tuple(
                (str(flow), float(factor)) for flow, factor in sorted(flows.items())
            ),
        )

    def to_payload(self) -> dict:
        payload: dict = {"name": self.name, "scale": self.scale}
        if self.flow_scales:
            payload["flows"] = dict(self.flow_scales)
        return payload

    def factor(self, flow_name: str) -> float:
        return self.scale * dict(self.flow_scales).get(flow_name, 1.0)


@dataclass(frozen=True, slots=True)
class DemandMatrix:
    """Flows + link capacities + optional named shifts.

    ``capacities`` maps link names to capacity; links not named fall
    back to ``default_capacity``.  Flow order is significant — it fixes
    the Monte Carlo sampling order — so two matrices with the same flows
    in different order fingerprint differently on purpose.
    """

    flows: tuple[Flow, ...]
    default_capacity: float = 1.0
    capacities: tuple[tuple[str, float], ...] = ()
    shifts: tuple[DemandShift, ...] = ()

    def __post_init__(self) -> None:
        if not self.flows:
            raise ValueError("demand matrix needs at least one flow")
        names = [flow.name for flow in self.flows]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate flow name(s) {dupes}")
        capacity = _check_rate(self.default_capacity, "default capacity")
        if capacity <= 0:
            raise ValueError(f"default capacity must be > 0, got {capacity}")
        object.__setattr__(self, "default_capacity", capacity)
        seen = set()
        for link_name, value in self.capacities:
            if link_name in seen:
                raise ValueError(f"capacity for link {link_name!r} given twice")
            seen.add(link_name)
            if _check_rate(value, f"capacity of link {link_name!r}") <= 0:
                raise ValueError(f"capacity of link {link_name!r} must be > 0")
        shift_names = [shift.name for shift in self.shifts]
        if len(set(shift_names)) != len(shift_names):
            raise ValueError(f"duplicate shift name(s) in {shift_names}")

    @classmethod
    def from_payload(cls, payload: dict) -> "DemandMatrix":
        if not isinstance(payload, dict):
            raise ValueError(
                f"demand matrix must be an object, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - {"flows", "capacities", "shifts"})
        if unknown:
            raise ValueError(f"unknown demand field(s) {unknown}")
        flows_payload = payload.get("flows")
        if not isinstance(flows_payload, list) or not flows_payload:
            raise ValueError("'flows' must be a non-empty list of flow objects")
        capacities = payload.get("capacities") or {}
        if not isinstance(capacities, dict):
            raise ValueError("'capacities' must be an object")
        cap_unknown = sorted(set(capacities) - {"default", "links"})
        if cap_unknown:
            raise ValueError(f"unknown capacities field(s) {cap_unknown}")
        links = capacities.get("links") or {}
        if not isinstance(links, dict):
            raise ValueError("'capacities.links' must map link names to numbers")
        shifts_payload = payload.get("shifts") or []
        if not isinstance(shifts_payload, list):
            raise ValueError("'shifts' must be a list of shift objects")
        return cls(
            flows=tuple(Flow.from_payload(flow) for flow in flows_payload),
            default_capacity=capacities.get("default", 1.0),
            capacities=tuple(
                (str(name), float(value)) for name, value in sorted(links.items())
            ),
            shifts=tuple(
                DemandShift.from_payload(shift) for shift in shifts_payload
            ),
        )

    def to_payload(self) -> dict:
        payload: dict = {
            "flows": [flow.to_payload() for flow in self.flows],
            "capacities": {"default": self.default_capacity},
        }
        if self.capacities:
            payload["capacities"]["links"] = dict(self.capacities)
        if self.shifts:
            payload["shifts"] = [shift.to_payload() for shift in self.shifts]
        return payload

    def fingerprint(self) -> str:
        """Content hash over the canonical payload.

        Any perturbation — a rate, a split set, a capacity, a shift —
        produces a different fingerprint, which is what keys cached
        predictions apart.
        """
        digest = hashlib.sha256(canonical_json(self.to_payload()).encode())
        return digest.hexdigest()

    def shift(self, name: str) -> DemandShift:
        for shift in self.shifts:
            if shift.name == name:
                return shift
        raise KeyError(f"no shift named {name!r}")

    def resolve(self, topology) -> "ResolvedDemand":
        """Bind every flow to concrete path ids on ``topology``.

        Explicit path references resolve by name or dense id; endpoint
        pairs resolve to *all* routed paths between the endpoints (the
        ECMP split set).  Unknown paths, out-of-range ids, and endpoint
        pairs with no routed path all fail loudly.
        """
        n_paths = topology.n_paths
        candidates: list[tuple[int, ...]] = []
        for flow in self.flows:
            if flow.paths is not None:
                ids = []
                for ref in flow.paths:
                    if isinstance(ref, int):
                        if not 0 <= ref < n_paths:
                            raise ValueError(
                                f"flow {flow.name!r}: path id {ref} outside "
                                f"0..{n_paths - 1}"
                            )
                        ids.append(ref)
                    else:
                        try:
                            ids.append(topology.path(ref).id)
                        except KeyError:
                            raise ValueError(
                                f"flow {flow.name!r}: no path named {ref!r}"
                            ) from None
                resolved = tuple(sorted(set(ids)))
            else:
                resolved = tuple(
                    path_id
                    for path_id, (src, dst) in enumerate(
                        topology.path_endpoints
                    )
                    if str(src) == str(flow.src) and str(dst) == str(flow.dst)
                )
                if not resolved:
                    raise ValueError(
                        f"flow {flow.name!r}: no routed path from "
                        f"{flow.src!r} to {flow.dst!r}"
                    )
            candidates.append(resolved)

        n_links = topology.n_links
        incidences = []
        for split in candidates:
            incidence = np.zeros((len(split), n_links), dtype=np.float64)
            for row, path_id in enumerate(split):
                incidence[row, list(topology.paths[path_id].link_ids)] = 1.0
            incidence.flags.writeable = False
            incidences.append(incidence)

        capacities = np.full(n_links, self.default_capacity, dtype=np.float64)
        unknown_links = []
        for name, capacity in self.capacities:
            try:
                capacities[topology.link(name).id] = capacity
            except TopologyError:
                unknown_links.append(name)
        if unknown_links:
            raise ValueError(
                f"capacities name unknown link(s) {sorted(unknown_links)}"
            )
        capacities.flags.writeable = False
        rates = np.array([flow.rate for flow in self.flows], dtype=np.float64)
        rates.flags.writeable = False
        return ResolvedDemand(
            demand=self,
            candidates=tuple(candidates),
            incidences=tuple(incidences),
            capacities=capacities,
            rates=rates,
        )


@dataclass(frozen=True, slots=True)
class ResolvedDemand:
    """A demand matrix bound to one topology.

    Attributes:
        demand: The source matrix.
        candidates: Per flow, the sorted tuple of candidate path ids.
        incidences: Per flow, the ``(n_candidates, n_links)`` 0/1
            path→link incidence (read-only float64).
        capacities: Per-link capacity vector.
        rates: Baseline per-flow rate vector.
    """

    demand: DemandMatrix
    candidates: tuple[tuple[int, ...], ...]
    incidences: tuple[np.ndarray, ...]
    capacities: np.ndarray
    rates: np.ndarray = field(repr=False)

    @property
    def n_flows(self) -> int:
        return len(self.candidates)

    @property
    def n_links(self) -> int:
        return int(self.capacities.size)

    def rates_under(self, shift: DemandShift) -> np.ndarray:
        """Per-flow rates after applying ``shift``."""
        return np.array(
            [
                flow.rate * shift.factor(flow.name)
                for flow in self.demand.flows
            ],
            dtype=np.float64,
        )

    def membership(self) -> np.ndarray:
        """``(n_flows, n_links)`` probability that a flow crosses a link.

        Under uniform ECMP this is the fraction of the flow's candidate
        paths using the link — exactly 0.0 / 1.0 for links off / on
        every candidate.
        """
        return np.stack(
            [incidence.mean(axis=0) for incidence in self.incidences]
        )

    def key_payload(self, rates: np.ndarray) -> dict:
        """The JSON content that identifies one prediction input.

        Everything the congestion model's answer depends on: the split
        sets, each candidate path's link ids (the same path ids cross
        different links on another topology), the (possibly shifted)
        rates, and the capacities.  Used by
        :meth:`repro.predict.model.CongestionModel.predict` to key the
        trial cache.
        """
        return {
            "candidates": [list(split) for split in self.candidates],
            "links": [
                [np.flatnonzero(row).tolist() for row in incidence]
                for incidence in self.incidences
            ],
            "rates": [float(rate) for rate in rates],
            "capacities": [float(cap) for cap in self.capacities],
        }
