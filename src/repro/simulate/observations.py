"""Empirical estimators over observed path states.

:class:`PathObservations` wraps the snapshot × path boolean matrix of path
congestion verdicts and implements both measurement protocols:

* :class:`~repro.core.interfaces.PathGoodProvider` — ``log P(Y_i = 0)``
  and ``log P(Y_i = 0, Y_j = 0)`` as empirical frequencies, feeding the
  practical algorithm;
* :class:`~repro.core.interfaces.PathStateProvider` — empirical
  frequencies of exact congested-path sets, feeding the theorem algorithm.

Zero-count smoothing: an event never observed in ``N`` snapshots gets
frequency ``1/(2N)`` instead of 0, keeping logarithms finite.  This is the
usual "half a count" continuity correction; its effect vanishes as ``N``
grows.

Every estimator is backed by a *batch kernel* — one NumPy operation over
all paths (or all requested pairs) at once:

* single-path good counts come from one column sum;
* joint good counts come from the cached Gram matrix ``good.T @ good``
  (or an indexed gather for small queries), never a per-pair Python loop;
* exact congested-set counts come from packing each snapshot row into
  bytes (:func:`numpy.packbits`) and running one ``np.unique`` over the
  packed rows.

The scalar accessors (``p_good``, ``log_good_pair``, ...) are thin
wrappers over those kernels, so existing callers keep working while bulk
consumers (the equation builder, the theorem algorithm) use the batch
APIs directly.

Streaming
---------

The estimator state is *appendable*: :meth:`PathObservations.append_window`
admits a new window of snapshot rows, updating every materialised cache
incrementally — the joint-good Gram accumulates ``good_w.T @ good_w``, the
pair-count cache (the joint good counts of the last small pairs array
:meth:`~PathObservations.joint_good_counts` was asked for) gains the new
rows' counts, the packed-row/mask-count caches gain exactly the new rows,
and the per-path log cache is invalidated (it is O(paths) to rebuild).
A bounded sliding window (``max_window=``, or explicit
:meth:`evict_oldest`) drops the oldest rows by *subtracting* their
Gram/pair-count/count contributions; because every count is an exact
integer, the subtracted state is bit-identical to a
from-scratch rebuild over the surviving rows — asserted under
``__debug__`` on the first eviction (and on every eviction when the
``REPRO_STREAM_VERIFY`` environment variable is set), with a full
recompute as the fallback whenever a cache was never materialised.

Input freezing: the constructor and :meth:`append_window` adopt boolean
input arrays *without copying* and set ``flags.writeable = False`` on
them.  Every cache here assumes rows never change after admission; an
in-place mutation of the input would silently desynchronise
``log_good_all``/``joint_good_gram`` from the raw rows.  Freezing turns
that hazard into an immediate ``ValueError`` at the mutation site.  Pass
``array.copy()`` if you need to keep a writable copy on the caller side.
(Non-boolean inputs are converted, which copies — the caller's array is
then untouched and stays writable.)
"""

from __future__ import annotations

import os

import numpy as np

from repro.exceptions import MeasurementError

__all__ = ["PathObservations"]

#: Below this many requested pairs a direct column gather beats building
#: (and caching) the full path × path Gram matrix.
_GRAM_QUERY_THRESHOLD = 64


def _window_gram(good_w: np.ndarray) -> np.ndarray:
    """Exact int64 Gram contribution of one window of good indicators.

    float32 matmul is exact for sums below 2^24 and twice as fast; any
    realistic window is far below that.
    """
    dtype = np.float32 if good_w.shape[0] < 2**24 else np.float64
    good = good_w.astype(dtype)
    return (good.T @ good).astype(np.int64)


def _pair_window_counts(good_w: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Rows of ``good_w`` in which both paths of each pair are good."""
    both = good_w[:, pairs[:, 0]] & good_w[:, pairs[:, 1]]
    return both.sum(axis=0).astype(np.int64)


class PathObservations:
    """Observed path congestion verdicts for one experiment.

    Args:
        path_states: Boolean matrix, ``path_states[t, i]`` true when path
            ``P_i`` was congested during snapshot ``t``.  Boolean arrays
            are adopted without copying and frozen
            (``flags.writeable = False``); see the module docstring.
        max_window: Optional sliding-window bound.  When set, appends
            evict the oldest rows so at most this many snapshots are
            retained.  ``None`` (the default) keeps the full history.
    """

    def __init__(
        self, path_states: np.ndarray, *, max_window: int | None = None
    ) -> None:
        states = self._adopt(path_states)
        if states.shape[0] < 1:
            raise MeasurementError("need at least one snapshot")
        if max_window is not None and max_window < 1:
            raise MeasurementError(
                f"max_window must be positive, got {max_window}"
            )
        self._max_window = max_window
        # Valid rows live at ``_buf[_start:_stop]``.  The initial buffer
        # is the (frozen) input itself — the batch-only path never pays a
        # copy; the first append reallocates into a private buffer.
        self._buf = states
        self._good_buf = ~states
        self._good_buf.flags.writeable = False
        self._start = 0
        self._stop = states.shape[0]
        self._n_paths = states.shape[1]
        self._n_evicted = 0
        self._verified_eviction = False
        self._good_counts = self._good_buf.sum(axis=0).astype(np.int64)
        self._mask_counts: dict[int, int] | None = None
        self._log_good_all: np.ndarray | None = None
        self._joint_gram: np.ndarray | None = None
        self._packed_rows: np.ndarray | None = None
        # (pairs, counts) of the last small pair query; see
        # joint_good_counts.
        self._pair_counts: tuple[np.ndarray, np.ndarray] | None = None
        self._refresh_views()
        if max_window is not None and self.n_snapshots > max_window:
            self.evict_oldest(self.n_snapshots - max_window)

    @staticmethod
    def _adopt(path_states) -> np.ndarray:
        states = np.asarray(path_states)
        if states.ndim != 2:
            raise MeasurementError(
                f"path_states must be 2-D (snapshot × path), got shape "
                f"{states.shape}"
            )
        if states.dtype != bool:
            states = states.astype(bool)
        # Freeze the adopted rows: the incremental caches assume they
        # never change (module docstring, "Input freezing").
        states.flags.writeable = False
        return states

    def _refresh_views(self) -> None:
        self._states = self._buf[self._start : self._stop]
        self._good = self._good_buf[self._start : self._stop]

    # ------------------------------------------------------------------
    @property
    def n_snapshots(self) -> int:
        return self._stop - self._start

    @property
    def _n_snapshots(self) -> int:
        return self._stop - self._start

    @property
    def n_paths(self) -> int:
        return self._n_paths

    @property
    def n_evicted(self) -> int:
        """Snapshots dropped so far by the sliding window."""
        return self._n_evicted

    @property
    def max_window(self) -> int | None:
        """The sliding-window bound (``None`` = unbounded)."""
        return self._max_window

    @property
    def path_states(self) -> np.ndarray:
        """The raw snapshot × path boolean matrix (read-only view)."""
        view = self._states.view()
        view.flags.writeable = False
        return view

    def congestion_frequency(self, path_id: int) -> float:
        """Observed fraction of snapshots with the path congested."""
        self._check_path(path_id)
        return 1.0 - self._good_counts[path_id] / self._n_snapshots

    # ------------------------------------------------------------------
    # Streaming: append / evict
    # ------------------------------------------------------------------
    def append_window(self, path_states: np.ndarray) -> None:
        """Admit a window of new snapshot rows (incremental update).

        Every materialised cache is extended in place: good counts and
        the joint-good Gram accumulate the window's contribution, packed
        rows and mask counts gain exactly the new rows, and the per-path
        log cache is invalidated.  The resulting state is bit-identical
        to constructing :class:`PathObservations` over the concatenated
        rows.  With ``max_window`` set, the oldest rows are evicted to
        honour the bound.  The input is adopted frozen (see the module
        docstring).
        """
        window = self._adopt(path_states)
        rows = window.shape[0]
        if rows == 0:
            return
        if window.shape[1] != self._n_paths:
            raise MeasurementError(
                f"window has {window.shape[1]} paths, expected "
                f"{self._n_paths}"
            )
        self._reserve(rows)
        stop = self._stop + rows
        self._buf[self._stop : stop] = window
        good_w = self._good_buf[self._stop : stop]
        np.logical_not(window, out=good_w)
        self._stop = stop
        self._refresh_views()
        self._good_counts += good_w.sum(axis=0).astype(np.int64)
        self._log_good_all = None
        if self._joint_gram is not None:
            self._joint_gram += _window_gram(good_w)
        if self._pair_counts is not None:
            pairs, counts = self._pair_counts
            counts += _pair_window_counts(good_w, pairs)
        if self._packed_rows is not None:
            packed_w = np.packbits(window, axis=1, bitorder="little")
            self._packed_rows = np.concatenate([self._packed_rows, packed_w])
            if self._mask_counts is not None:
                for row in packed_w:
                    mask = int.from_bytes(row.tobytes(), "little")
                    self._mask_counts[mask] = (
                        self._mask_counts.get(mask, 0) + 1
                    )
        if (
            self._max_window is not None
            and self.n_snapshots > self._max_window
        ):
            self.evict_oldest(self.n_snapshots - self._max_window)

    def evict_oldest(self, count: int) -> None:
        """Drop the ``count`` oldest snapshots (sliding-window eviction).

        Materialised caches are updated by *subtracting* the evicted
        rows' contributions; caches that were never materialised stay
        unmaterialised and recompute lazily over the surviving rows (the
        recompute fallback).  At least one snapshot must survive.
        """
        if count <= 0:
            return
        if count >= self.n_snapshots:
            raise MeasurementError(
                f"cannot evict {count} of {self.n_snapshots} snapshots; "
                "at least one must remain"
            )
        old_good = self._good_buf[self._start : self._start + count]
        self._good_counts -= old_good.sum(axis=0).astype(np.int64)
        self._log_good_all = None
        if self._joint_gram is not None:
            self._joint_gram -= _window_gram(old_good)
        if self._pair_counts is not None:
            pairs, counts = self._pair_counts
            counts -= _pair_window_counts(old_good, pairs)
        if self._packed_rows is not None:
            evicted_packed = self._packed_rows[:count]
            if self._mask_counts is not None:
                for row in evicted_packed:
                    mask = int.from_bytes(row.tobytes(), "little")
                    remaining = self._mask_counts[mask] - 1
                    if remaining:
                        self._mask_counts[mask] = remaining
                    else:
                        del self._mask_counts[mask]
            self._packed_rows = self._packed_rows[count:].copy()
        self._start += count
        self._n_evicted += count
        self._refresh_views()
        if __debug__ and (
            not self._verified_eviction
            or os.environ.get("REPRO_STREAM_VERIFY")
        ):
            self._verified_eviction = True
            self._assert_matches_recompute()

    def _reserve(self, rows: int) -> None:
        """Ensure the row buffers can hold ``rows`` more snapshots.

        When the write cursor reaches the buffer end, the live rows move
        to the front of a fresh buffer: of the same capacity when they
        and the incoming rows fit in half of it (a sliding window whose
        evictions keep the live rows bounded), otherwise of twice their
        size (amortised growth of an unbounded history).  Either way the
        capacity stays at most ``2 * (live + rows)``.  The old buffer is
        left untouched, so views handed out earlier stay valid.
        """
        capacity = self._buf.shape[0]
        writeable = self._buf.flags.writeable
        if self._stop + rows <= capacity and writeable:
            return
        valid = self.n_snapshots
        needed = valid + rows
        if writeable and 2 * needed <= capacity:
            new_capacity = capacity
        else:
            new_capacity = max(2 * needed, 16)
        buf = np.empty((new_capacity, self._n_paths), dtype=bool)
        good_buf = np.empty((new_capacity, self._n_paths), dtype=bool)
        buf[:valid] = self._buf[self._start : self._stop]
        good_buf[:valid] = self._good_buf[self._start : self._stop]
        self._buf = buf
        self._good_buf = good_buf
        self._start = 0
        self._stop = valid
        self._refresh_views()

    def _assert_matches_recompute(self) -> None:
        """Equivalence contract: incremental state == from-scratch state.

        Compares every materialised cache against a fresh
        :class:`PathObservations` over the surviving rows.  Called under
        ``__debug__`` after the first eviction (and every eviction when
        ``REPRO_STREAM_VERIFY`` is set) — integer subtraction is exact,
        so any mismatch is a genuine bookkeeping bug, not float noise.
        """
        fresh = PathObservations(self._states.copy())
        assert np.array_equal(self._good_counts, fresh._good_counts), (
            "incremental good counts diverged from recompute"
        )
        if self._joint_gram is not None:
            assert np.array_equal(
                self._joint_gram, fresh.joint_good_gram()
            ), "incremental Gram diverged from recompute"
        if self._pair_counts is not None:
            pairs, counts = self._pair_counts
            assert np.array_equal(
                counts, fresh.joint_good_counts(pairs)
            ), "incremental pair counts diverged from recompute"
        if self._packed_rows is not None:
            assert np.array_equal(
                self._packed_rows, fresh._ensure_packed_rows()
            ), "incremental packed rows diverged from recompute"
        if self._mask_counts is not None:
            assert self._mask_counts == fresh._ensure_mask_counts(), (
                "incremental mask counts diverged from recompute"
            )

    # ------------------------------------------------------------------
    # Batch kernels
    # ------------------------------------------------------------------
    def _smooth_counts(self, counts: np.ndarray) -> np.ndarray:
        """Vectorised half-count smoothing of event counts."""
        n = self._n_snapshots
        return np.where(
            counts <= 0,
            0.5 / n,
            np.where(counts >= n, 1.0 - 0.5 / n, counts / n),
        )

    def p_good_all(self) -> np.ndarray:
        """Smoothed ``P(Y_i = 0)`` for every path, in one shot."""
        return self._smooth_counts(self._good_counts)

    def log_good_all(self) -> np.ndarray:
        """``y_i = log P(Y_i = 0)`` for every path (cached)."""
        if self._log_good_all is None:
            self._log_good_all = np.log(self.p_good_all())
            self._log_good_all.flags.writeable = False
        return self._log_good_all

    def joint_good_gram(self) -> np.ndarray:
        """``G[i, j]`` = number of snapshots with paths i and j both good.

        Computed once as ``good.T @ good``, cached, and thereafter
        maintained incrementally across :meth:`append_window` /
        :meth:`evict_oldest`; the float accumulation is exact because
        counts are bounded by the snapshot count.
        """
        if self._joint_gram is None:
            self._joint_gram = _window_gram(self._good)
        view = self._joint_gram.view()
        view.flags.writeable = False
        return view

    def _check_pairs(self, pairs) -> np.ndarray:
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise MeasurementError(
                f"pairs must have shape (m, 2), got {pairs.shape}"
            )
        if pairs.size and (
            pairs.min() < 0 or pairs.max() >= self._n_paths
        ):
            raise MeasurementError(
                f"pair path ids out of range 0..{self._n_paths - 1}"
            )
        return pairs

    def joint_good_counts(self, pairs) -> np.ndarray:
        """Joint good counts for an ``(m, 2)`` array of path-id pairs.

        Below :data:`_GRAM_QUERY_THRESHOLD` pairs (and with no Gram
        materialised) the counts are gathered from the columns, and the
        counts of the last pairs array asked for are kept and maintained
        across appends and evictions, so a stream asking for the same
        pairs every window pays only for the rows that changed.
        """
        pairs = self._check_pairs(pairs)
        if pairs.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        if (
            self._joint_gram is None
            and pairs.shape[0] < _GRAM_QUERY_THRESHOLD
        ):
            cached = self._pair_counts
            if cached is None or not np.array_equal(cached[0], pairs):
                counts = _pair_window_counts(self._good, pairs)
                cached = (pairs.copy(), counts)
                self._pair_counts = cached
            return cached[1].copy()
        gram = self.joint_good_gram()
        return gram[pairs[:, 0], pairs[:, 1]]

    def p_good_pairs(self, pairs) -> np.ndarray:
        """Smoothed ``P(Y_i = 0, Y_j = 0)`` for many pairs at once."""
        return self._smooth_counts(self.joint_good_counts(pairs))

    def log_good_pairs(self, pairs) -> np.ndarray:
        """``y_ij`` (paper Eq. 10 left-hand side) for many pairs at once."""
        return np.log(self.p_good_pairs(pairs))

    # ------------------------------------------------------------------
    # PathGoodProvider protocol (scalar wrappers over the batch kernels)
    # ------------------------------------------------------------------
    def _smooth(self, count: int) -> float:
        if count <= 0:
            return 0.5 / self._n_snapshots
        if count >= self._n_snapshots:
            return 1.0 - 0.5 / self._n_snapshots
        return count / self._n_snapshots

    def p_good(self, path_id: int) -> float:
        """Smoothed ``P(Y_i = 0)`` estimate."""
        self._check_path(path_id)
        return self._smooth(int(self._good_counts[path_id]))

    def log_good(self, path_id: int) -> float:
        """``y_i = log P(Y_i = 0)`` (paper Eq. 9 left-hand side)."""
        self._check_path(path_id)
        return float(self.log_good_all()[path_id])

    def p_good_pair(self, path_a: int, path_b: int) -> float:
        """Smoothed ``P(Y_i = 0, Y_j = 0)`` estimate."""
        self._check_path(path_a)
        self._check_path(path_b)
        return float(self.p_good_pairs([[path_a, path_b]])[0])

    def log_good_pair(self, path_a: int, path_b: int) -> float:
        """``y_ij`` (paper Eq. 10 left-hand side)."""
        self._check_path(path_a)
        self._check_path(path_b)
        return float(self.log_good_pairs([[path_a, path_b]])[0])

    # ------------------------------------------------------------------
    # PathStateProvider protocol
    # ------------------------------------------------------------------
    def _ensure_packed_rows(self) -> np.ndarray:
        """Each snapshot row packed into bytes, little-endian bit order,
        so byte ``k`` bit ``j`` is path ``8k + j`` — the byte sequence of
        the row *is* the congested-path bitmask."""
        if self._packed_rows is None:
            self._packed_rows = np.packbits(
                self._states, axis=1, bitorder="little"
            )
        return self._packed_rows

    def _ensure_mask_counts(self) -> dict[int, int]:
        if self._mask_counts is None:
            packed = self._ensure_packed_rows()
            unique, counts = np.unique(packed, axis=0, return_counts=True)
            self._mask_counts = {
                int.from_bytes(row.tobytes(), "little"): int(count)
                for row, count in zip(unique, counts)
            }
        return self._mask_counts

    def p_congested_mask(self, mask: int) -> float:
        """Empirical ``P(ψ(S) = F)`` for the exact path set ``F``.

        Unlike the good-probability estimators this is *not* smoothed: the
        theorem algorithm sums these over disjoint events, and smoothing
        every mask would inflate total probability mass.  A never-observed
        state simply has empirical probability 0.
        """
        return self._ensure_mask_counts().get(mask, 0) / self._n_snapshots

    def observed_masks(self) -> dict[int, int]:
        """``{congested-path mask: count}`` over all snapshots."""
        return dict(self._ensure_mask_counts())

    # ------------------------------------------------------------------
    def congested_mask_of_snapshot(self, snapshot: int) -> int:
        """Bitmask of congested paths during one snapshot (for the
        localization extension).  Index 0 is the oldest *surviving*
        snapshot when a sliding window has evicted history."""
        if not 0 <= snapshot < self._n_snapshots:
            raise MeasurementError(
                f"snapshot {snapshot} out of range 0..{self._n_snapshots - 1}"
            )
        row = self._ensure_packed_rows()[snapshot]
        return int.from_bytes(row.tobytes(), "little")

    def _check_path(self, path_id: int) -> None:
        if not 0 <= path_id < self._n_paths:
            raise MeasurementError(
                f"path id {path_id} out of range 0..{self._n_paths - 1}"
            )

    def __repr__(self) -> str:
        return (
            f"PathObservations(n_snapshots={self._n_snapshots}, "
            f"n_paths={self._n_paths})"
        )
