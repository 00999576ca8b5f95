"""Streaming sessions for the ``/stream`` endpoint.

One :class:`StreamSession` holds the per-connection estimator state — an
appendable :class:`~repro.simulate.observations.PathObservations` plus a
:class:`~repro.core.streaming.StreamingTomography` whose equation
structure is cached against the service's shared prepared registry.  The
HTTP handler submits each uploaded window through the topology's
:class:`~repro.serve.batching.QueryBatcher` (sharing the single-flight
ordering and backpressure of ordinary queries) and relays the returned
verdict delta as one chunk of the chunked response.

Wire shapes (JSON):

* upload — ``{"windows": [[[0|1, ...], ...], ...], "threshold": 0.5,
  "max_window": null, "localize_last": false}``;
* per-window delta — ``{"window", "timestamp", "n_snapshots",
  "onsets", "clears", "changed", "n_congested"}``;
* final line — ``{"final": {... encoded float64 vectors ...}}`` with the
  full-history probabilities, bit-identical to a batch
  :func:`~repro.core.correlation_algorithm.infer_congestion` over the
  concatenated windows.
"""

from __future__ import annotations

import numpy as np

from repro.core.streaming import StreamingTomography, WindowVerdict
from repro.serve.queries import encode_vectors
from repro.simulate.observations import PathObservations

__all__ = ["StepFailure", "StreamSession", "decode_window", "verdict_delta"]


class StepFailure:
    """A stream step's exception, carried as a batch *result*.

    The batcher fails every job in a batch when ``run_batch`` raises, so
    stream-job errors are returned as values and re-raised only on the
    submitting side.
    """

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


def decode_window(rows, n_paths: int) -> np.ndarray:
    """Validate one uploaded window into a snapshot × path bool matrix.

    Each verdict must be ``0``/``1`` or ``true``/``false``; anything
    else (strings, floats, other integers) is refused, never coerced.
    """
    states = np.asarray(rows)
    if states.ndim != 2 or states.dtype == object:
        raise ValueError(
            "window must be a rectangular list of snapshot rows"
        )
    if states.shape[0] < 1:
        raise ValueError("window must contain at least one snapshot")
    if states.shape[1] != n_paths:
        raise ValueError(
            f"window rows have {states.shape[1]} paths, topology has "
            f"{n_paths}"
        )
    if states.dtype.kind not in "biu" or (
        states.dtype != bool and ((states != 0) & (states != 1)).any()
    ):
        raise ValueError("window verdicts must be 0/1 or true/false")
    return states.astype(bool)


def verdict_delta(verdict: WindowVerdict) -> dict:
    """The JSON-ready per-window delta (verdict diff + event time)."""
    delta = {
        "window": verdict.window_index,
        "timestamp": verdict.timestamp,
        "n_snapshots": verdict.n_snapshots,
        "onsets": list(verdict.onsets),
        "clears": list(verdict.clears),
        "changed": verdict.changed,
        "n_congested": int(verdict.congested.sum()),
    }
    if verdict.localization is not None:
        delta["localized_links"] = sorted(
            int(k) for k in verdict.localization.congested_links
        )
    return delta


class StreamSession:
    """Estimator state for one ``/stream`` request.

    ``step`` runs on the batcher's worker thread; the handler submits
    windows strictly in order and awaits each result, so the session is
    never touched concurrently.
    """

    def __init__(
        self,
        instance,
        *,
        options=None,
        registry=None,
        threshold: float = 0.5,
        max_window: int | None = None,
        localize_last: bool = False,
    ) -> None:
        self._n_paths = instance.topology.n_paths
        self._max_window = max_window
        self._observations: PathObservations | None = None
        self._last: WindowVerdict | None = None
        self._engine = StreamingTomography(
            instance.topology,
            instance.correlation,
            options=options,
            threshold=threshold,
            localize_last=localize_last,
            registry=registry,
        )

    def step(self, rows) -> dict:
        """Append one uploaded window and return its verdict delta."""
        states = decode_window(rows, self._n_paths)
        if self._observations is None:
            self._observations = PathObservations(
                states, max_window=self._max_window
            )
        else:
            self._observations.append_window(states)
        self._last = self._engine.update(self._observations)
        return verdict_delta(self._last)

    def final(self) -> dict:
        """The full-history estimates after the last window.

        The last window's verdict already holds them: its update
        inferred over exactly the retained observations.
        """
        if self._last is None:
            raise ValueError("no windows were streamed")
        result = self._last.result
        return {
            "n_snapshots": int(self._observations.n_snapshots),
            "n_evicted": int(self._observations.n_evicted),
            "result": encode_vectors(
                {
                    "probabilities": result.congestion_probabilities,
                    "log_good": result.log_good,
                }
            ),
        }
