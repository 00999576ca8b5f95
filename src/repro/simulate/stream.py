"""Streaming simulation: probe windows over a scripted link-state timeline.

The paper's simulator produces one complete batch of snapshots; continuous
monitoring consumes the same rounds as a *stream* of windows.
:class:`SnapshotStream` emits :class:`ProbeWindow` batches, one round per
snapshot (paper Section 5): draw a network state, assign loss rates
(``LossModel.sample_loss_rates``), probe every path and threshold its
measured loss (``PathProber.measure``) — the two calls the batch driver
:func:`repro.simulate.experiment.run_experiment` makes per batch.

On top of the stationary congestion model, a :class:`LinkStateTimeline`
scripts non-stationary behaviour by snapshot index:

* ``onset`` — from ``at`` onward the event's links are forced congested
  (with per-snapshot ``probability``, so onsets can be noisy);
* ``clear`` — the links are forced good;
* ``flap`` — the links alternate between the onset and clear behaviours
  every ``period`` snapshots.

Events override the base model (later events override earlier ones), so a
scripted onset is visible regardless of the stationary marginals — the
scenario family behind detection-latency measurements: how many windows
does the streaming estimator need before a scripted onset shows up in its
verdicts?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.model.loss import LossModel
from repro.model.network import NetworkCongestionModel
from repro.simulate.probes import PathProber
from repro.utils.rng import as_generator

__all__ = [
    "StreamEvent",
    "LinkStateTimeline",
    "ProbeWindow",
    "SnapshotStream",
]

_EVENT_KINDS = ("onset", "clear", "flap")


@dataclass(frozen=True)
class StreamEvent:
    """One scripted link-state change, active from snapshot ``at``.

    Attributes:
        kind: ``"onset"`` (force congested), ``"clear"`` (force good) or
            ``"flap"`` (alternate between the two every ``period``
            snapshots).
        at: First snapshot index (0-based, global) the event affects.
        links: Link ids the event controls.
        probability: Per-snapshot probability that an onset actually
            congests each link (1.0 = deterministic onset).
        until: Exclusive end snapshot; ``None`` keeps the event active
            forever.
        period: Flap half-period in snapshots.
    """

    kind: str
    at: int
    links: tuple[int, ...]
    probability: float = 1.0
    until: int | None = None
    period: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _EVENT_KINDS:
            raise SimulationError(
                f"unknown event kind {self.kind!r}; expected one of "
                f"{_EVENT_KINDS}"
            )
        if self.at < 0:
            raise SimulationError(f"event at={self.at} must be >= 0")
        if not self.links:
            raise SimulationError("event must name at least one link")
        if not 0.0 <= self.probability <= 1.0:
            raise SimulationError(
                f"event probability {self.probability} outside [0, 1]"
            )
        if self.until is not None and self.until <= self.at:
            raise SimulationError(
                f"event until={self.until} must exceed at={self.at}"
            )
        if self.period < 1:
            raise SimulationError(f"flap period must be >= 1, got {self.period}")
        object.__setattr__(self, "links", tuple(int(k) for k in self.links))

    @classmethod
    def from_dict(cls, spec: dict) -> "StreamEvent":
        """Build from a JSON-style dict (the CLI/service wire shape);
        any malformed spec is a :class:`SimulationError`."""
        if not isinstance(spec, dict):
            raise SimulationError(
                f"event spec must be an object, got {type(spec).__name__}"
            )
        known = {"kind", "at", "links", "probability", "until", "period"}
        unknown = set(spec) - known
        if unknown:
            raise SimulationError(
                f"unknown event fields {sorted(unknown)}; expected a "
                f"subset of {sorted(known)}"
            )
        try:
            kwargs = dict(spec)
            kwargs["kind"] = str(kwargs["kind"])
            kwargs["at"] = int(kwargs["at"])
            kwargs["links"] = tuple(int(k) for k in kwargs["links"])
            return cls(**kwargs)
        except KeyError as error:
            raise SimulationError(
                f"event spec missing required field {error}"
            ) from None
        except (TypeError, ValueError) as error:
            raise SimulationError(f"malformed event spec: {error}") from None

    def active(self, index: int) -> bool:
        """Whether the event affects snapshot ``index`` at all."""
        if index < self.at:
            return False
        return self.until is None or index < self.until

    def congesting(self, index: int) -> bool:
        """Whether the event is in its congesting phase at ``index``.

        ``onset`` always congests while active; ``clear`` never does;
        ``flap`` congests on even half-periods since ``at``.
        """
        if self.kind == "onset":
            return True
        if self.kind == "clear":
            return False
        return ((index - self.at) // self.period) % 2 == 0


class LinkStateTimeline:
    """An ordered script of :class:`StreamEvent` overrides.

    Later events take precedence on links they share with earlier ones.
    """

    def __init__(self, events: Sequence[StreamEvent]) -> None:
        self._events = tuple(events)

    @property
    def events(self) -> tuple[StreamEvent, ...]:
        return self._events

    @classmethod
    def from_specs(cls, specs: Sequence[dict]) -> "LinkStateTimeline":
        return cls([StreamEvent.from_dict(spec) for spec in specs])

    def check_links(self, n_links: int) -> None:
        for event in self._events:
            bad = [k for k in event.links if not 0 <= k < n_links]
            if bad:
                raise SimulationError(
                    f"event links {bad} out of range 0..{n_links - 1}"
                )

    def apply(
        self,
        link_states: np.ndarray,
        index: int,
        rng: np.random.Generator,
    ) -> None:
        """Overwrite one snapshot's link states per the active events."""
        for event in self._events:
            if not event.active(index):
                continue
            links = list(event.links)
            if event.congesting(index):
                if event.probability >= 1.0:
                    link_states[links] = True
                else:
                    hits = rng.random(len(links)) < event.probability
                    link_states[links] = hits
            else:
                link_states[links] = False

    def congested_now(self, index: int, n_links: int) -> np.ndarray:
        """Links a deterministic event forces congested at ``index``
        (the ground-truth targets for detection-latency scoring)."""
        forced = np.zeros(n_links, dtype=bool)
        for event in self._events:
            if not event.active(index):
                continue
            links = list(event.links)
            forced[links] = event.congesting(index)
        return forced


@dataclass(frozen=True)
class ProbeWindow:
    """One emitted window of consecutive simulation rounds.

    Attributes:
        index: Window sequence number (0-based).
        start: Global snapshot index of the window's first row.
        link_states: Ground-truth snapshot × link congestion matrix.
        path_states: Snapshot × path congestion verdicts — the rows fed
            to :meth:`PathObservations.append_window`.
    """

    index: int
    start: int
    link_states: np.ndarray
    path_states: np.ndarray

    @property
    def n_snapshots(self) -> int:
        return self.path_states.shape[0]

    @property
    def stop(self) -> int:
        """Exclusive global snapshot index past the window."""
        return self.start + self.n_snapshots


@dataclass
class SnapshotStream:
    """A resumable stream of simulation windows.

    Iterating (or calling :meth:`next_window`) advances a single RNG
    through full simulation rounds, one snapshot at a time (state,
    timeline, loss rates, probes), so consuming the stream in windows of
    any size yields the identical snapshot sequence.

    Attributes:
        network_model: Stationary congestion model sampled per snapshot.
        loss_model: Per-link loss-rate model.
        prober: Path measurement front-end.
        window_size: Default snapshots per emitted window.
        timeline: Optional scripted overrides by snapshot index.
        rng: Random source (or a seed; anything ``as_generator`` takes).
    """

    network_model: NetworkCongestionModel
    loss_model: LossModel
    prober: PathProber
    window_size: int = 50
    timeline: LinkStateTimeline | None = None
    rng: np.random.Generator | int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise SimulationError(
                f"window_size must be >= 1, got {self.window_size}"
            )
        self.rng = as_generator(self.rng)
        if self.timeline is not None:
            self.timeline.check_links(self.network_model.n_links)
        self._cursor = 0
        self._window_index = 0

    @property
    def cursor(self) -> int:
        """Global index of the next snapshot to be simulated."""
        return self._cursor

    def next_window(self, size: int | None = None) -> ProbeWindow:
        """Simulate and emit the next window of rounds."""
        size = self.window_size if size is None else size
        if size < 1:
            raise SimulationError(f"window size must be >= 1, got {size}")
        n_links = self.network_model.n_links
        n_paths = len(self.prober.path_thresholds)
        link_states = np.zeros((size, n_links), dtype=bool)
        path_states = np.zeros((size, n_paths), dtype=bool)
        for row in range(size):
            states = self.network_model.sample_indicator(self.rng)
            if self.timeline is not None:
                self.timeline.apply(states, self._cursor + row, self.rng)
            link_states[row] = states
            path_states[row] = self.prober.measure(
                self.loss_model.sample_loss_rates(states, self.rng), self.rng
            )
        window = ProbeWindow(
            index=self._window_index,
            start=self._cursor,
            link_states=link_states,
            path_states=path_states,
        )
        self._cursor += size
        self._window_index += 1
        return window

    def windows(self, count: int) -> Iterator[ProbeWindow]:
        """Emit exactly ``count`` windows of the default size."""
        for _ in range(count):
            yield self.next_window()

    def __iter__(self) -> Iterator[ProbeWindow]:
        while True:
            yield self.next_window()
