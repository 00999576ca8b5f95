"""Measurement-independent prepared state per (topology, correlation).

Everything the Section-4 equation builder can compute *before* seeing a
single measurement — the correlation-free path set, the single-path
Gaussian elimination, the shared-link pair candidates with their
eligibility verdicts, and the batch dependence mask — depends only on
the topology and the correlation structure.  A sweep re-infers against
the same pair for every trial, and a resident service answers thousands
of queries against one loaded topology, so this state is worth keeping
warm and sharing.

:class:`PreparedTopology` is that state as a first-class object.
:class:`PreparedRegistry` is an explicit, bounded, content-keyed LRU of
prepared topologies guarded by a lock, replacing the historical
single-slot ``_BUILDER_PREP`` module global (which keyed on the
correlation object's *identity*, thrashed whenever two topologies
alternated in one process, and raced on the shared mutable
``dependent_mask`` slot under threads).

Callers can pass a registry explicitly, install one for a dynamic scope
with :func:`use_registry`, or rely on the process-wide
:data:`DEFAULT_REGISTRY`.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from repro.core.correlation import CorrelationStructure
from repro.core.topology import Topology

__all__ = [
    "PreparedTopology",
    "PreparedRegistry",
    "DEFAULT_REGISTRY",
    "active_registry",
    "use_registry",
    "get_prepared",
]


class _RankTracker:
    """Incremental Gaussian elimination over accepted rows.

    Stored rows are kept *fully* reduced (reduced row-echelon form): each
    is normalised at its pivot and has zeros at every other stored pivot.
    Reducing a candidate therefore needs a single gather of its pivot
    coefficients plus one small matrix product over the rows with nonzero
    coefficient — no Python loop over the stored rows.
    """

    def __init__(self, n_cols: int, tol: float = 1e-9) -> None:
        self._n_cols = n_cols
        self._tol = tol
        self._rows = np.empty((min(n_cols, 64), n_cols), dtype=np.float64)
        self._pivots = np.empty(n_cols, dtype=np.int64)
        self._rank = 0

    @property
    def rank(self) -> int:
        return self._rank

    def residual(self, row: np.ndarray) -> np.ndarray:
        reduced = row.astype(np.float64, copy=True)
        if self._rank:
            pivots = self._pivots[: self._rank]
            coefficients = reduced[pivots]
            nonzero = np.flatnonzero(coefficients)
            if nonzero.size:
                reduced -= coefficients[nonzero] @ self._rows[nonzero]
        return reduced

    def batch_dependent(self, rows) -> np.ndarray:
        """True for rows already inside the tracked row space.

        A residual that vanishes at rank ``r`` stays zero as the space
        only grows, so such rows can never be accepted later — callers
        use this to discard hopeless candidates in one sparse product
        instead of examining them one by one.
        """
        n_rows = rows.shape[0]
        if self._rank == 0 or n_rows == 0:
            return np.zeros(n_rows, dtype=bool)
        stored = self._rows[: self._rank]
        pivots = self._pivots[: self._rank]
        dependent = np.empty(n_rows, dtype=bool)
        # Chunked so the dense residual block stays bounded regardless
        # of how many candidates the caller throws at us.
        chunk = max(1, 8 * 1024 * 1024 // (8 * max(1, self._n_cols)))
        for start in range(0, n_rows, chunk):
            block = rows[start : start + chunk]
            residual = block[:, pivots] @ stored
            np.negative(residual, out=residual)
            # Add the sparse candidate entries without densifying them;
            # CSR entries are unique, so a fancy-indexed add suffices.
            coo = block.tocoo()
            residual[coo.row, coo.col] += coo.data
            dependent[start : start + chunk] = (
                np.abs(residual).max(axis=1) <= self._tol
            )
        return dependent

    def clone(self) -> "_RankTracker":
        """Independent copy of the current elimination state.

        Lets measurement-independent prefixes of the elimination (the
        single-path phase, which depends only on topology + correlation)
        be computed once and reused across measurement batches.
        """
        other = _RankTracker.__new__(_RankTracker)
        other._n_cols = self._n_cols
        other._tol = self._tol
        other._rows = self._rows[: self._rank].copy()
        other._pivots = self._pivots.copy()
        other._rank = self._rank
        return other

    def try_add(self, row: np.ndarray) -> bool:
        """Add ``row`` if it increases the rank; report whether it did."""
        reduced = self.residual(row)
        pivot = int(np.argmax(np.abs(reduced)))
        if abs(reduced[pivot]) <= self._tol:
            return False
        reduced /= reduced[pivot]
        rank = self._rank
        if rank == self._rows.shape[0]:
            grown = np.empty(
                (min(self._n_cols, max(64, 2 * rank)), self._n_cols),
                dtype=np.float64,
            )
            grown[:rank] = self._rows[:rank]
            self._rows = grown
        if rank:
            # Restore RREF: eliminate the new pivot from stored rows.
            column = self._rows[:rank, pivot].copy()
            nonzero = np.flatnonzero(column)
            if nonzero.size:
                self._rows[nonzero] -= column[nonzero, None] * reduced
        self._rows[rank] = reduced
        self._pivots[rank] = pivot
        self._rank = rank + 1
        return True


def _row_vector(link_ids, n_links: int) -> np.ndarray:
    row = np.zeros(n_links, dtype=np.float64)
    row[sorted(link_ids)] = 1.0
    return row


def _shared_link_pair_candidates(
    topology: Topology,
    eligible_mask: np.ndarray,
) -> np.ndarray:
    """Unique eligible-path pairs sharing at least one link, as an
    ``(m, 2)`` array.

    Enumeration order matches the historical generator: scan links in id
    order, emit the pairs of eligible paths through each link in
    lexicographic order, and keep the first occurrence of every pair.
    """
    routing = topology.routing_matrix_sparse().tocsc()
    blocks_a: list[np.ndarray] = []
    blocks_b: list[np.ndarray] = []
    for link_id in range(topology.n_links):
        through = routing.indices[
            routing.indptr[link_id] : routing.indptr[link_id + 1]
        ]
        through = through[eligible_mask[through]]
        if through.size < 2:
            continue
        first, second = np.triu_indices(through.size, k=1)
        blocks_a.append(through[first])
        blocks_b.append(through[second])
    if not blocks_a:
        return np.empty((0, 2), dtype=np.int64)
    pairs = np.stack(
        [
            np.concatenate(blocks_a).astype(np.int64),
            np.concatenate(blocks_b).astype(np.int64),
        ],
        axis=1,
    )
    codes = pairs[:, 0] * np.int64(topology.n_paths) + pairs[:, 1]
    _, first_seen = np.unique(codes, return_index=True)
    return pairs[np.sort(first_seen)]


class PreparedTopology:
    """Everything the equation builder knows before any measurement.

    Instances are immutable after :meth:`build` except for three lazily
    computed, lock-guarded caches (the pair dependence mask, the
    structural fingerprint and the equation templates).  They are
    therefore safe to share across threads and across inference calls.

    Attributes:
        topology: The measurement topology.
        correlation: The correlation structure the prep was built for.
        eligible: Correlation-free path ids, ascending (Eq.-9 domain).
        singles: Per eligible path ``(path_id, link_ids, added)`` where
            ``added`` records whether the single row increased the rank.
        candidates: ``(m, 2)`` shared-link eligible-path pairs in
            generation order (Eq.-10 candidate domain).
        pair_eligible: Boolean verdicts of the correlation-free test for
            each candidate pair.
    """

    __slots__ = (
        "topology",
        "correlation",
        "eligible",
        "singles",
        "candidates",
        "pair_eligible",
        "_tracker",
        "_dependent_mask",
        "_fingerprint",
        "_lock",
        "_templates",
        "_template_lock",
    )

    def __init__(
        self,
        *,
        topology: Topology,
        correlation: CorrelationStructure,
        eligible: tuple[int, ...],
        singles: tuple,
        tracker: _RankTracker,
        candidates: np.ndarray,
        pair_eligible: np.ndarray,
    ) -> None:
        self.topology = topology
        self.correlation = correlation
        self.eligible = eligible
        self.singles = singles
        self.candidates = candidates
        self.pair_eligible = pair_eligible
        self._tracker = tracker
        self._dependent_mask: np.ndarray | None = None
        self._fingerprint: str | None = None
        self._lock = threading.Lock()
        self._templates: dict = {}
        # Separate from ``_lock``: a template build takes that one
        # through ``dependent_mask``.
        self._template_lock = threading.Lock()

    @classmethod
    def build(
        cls, topology: Topology, correlation: CorrelationStructure
    ) -> "PreparedTopology":
        """Run the measurement-independent half of the equation builder."""
        n_links = topology.n_links
        eligible_mask = correlation.path_correlation_free_mask()
        eligible = tuple(
            int(path_id) for path_id in np.flatnonzero(eligible_mask)
        )
        tracker = _RankTracker(n_links)
        singles = []
        for path_id in eligible:
            link_ids = frozenset(topology.paths[path_id].link_ids)
            added = tracker.try_add(_row_vector(link_ids, n_links))
            singles.append((path_id, link_ids, added))
        candidates = _shared_link_pair_candidates(topology, eligible_mask)
        return cls(
            topology=topology,
            correlation=correlation,
            eligible=eligible,
            singles=tuple(singles),
            tracker=tracker,
            candidates=candidates,
            pair_eligible=correlation.pairs_correlation_free(candidates),
        )

    @property
    def rank(self) -> int:
        """Rank reached by the single-path elimination alone."""
        return self._tracker.rank

    def clone_tracker(self) -> _RankTracker:
        """A private elimination state seeded with the single-path rows."""
        return self._tracker.clone()

    def dependent_mask(self) -> np.ndarray:
        """Batch dependence verdicts for the candidate pairs (lazy).

        Candidates whose union row is already spanned by the single-path
        rows can never be accepted; dropping them spares the sequential
        examination.  The mask is order-independent, computed once under
        the lock, and shared by every subsequent build.
        """
        with self._lock:
            if self._dependent_mask is None:
                candidates = self.candidates
                links = self.topology.routing_matrix_sparse()
                union = links[candidates[:, 0]] + links[candidates[:, 1]]
                union.data = np.minimum(union.data, 1.0)
                self._dependent_mask = self._tracker.batch_dependent(union)
            return self._dependent_mask

    def template(self, options):
        """The equation template for ``options`` (lazy, shared).

        One :class:`~repro.core.streaming.EquationTemplate` is built per
        set of options, under a lock so concurrent first calls share one
        build.
        """
        from repro.core.streaming import EquationTemplate

        with self._template_lock:
            template = self._templates.get(options)
            if template is None:
                template = EquationTemplate.build(
                    self.topology,
                    self.correlation,
                    options=options,
                    prepared=self,
                )
                self._templates[options] = template
        return template

    @property
    def fingerprint(self) -> str:
        """Stable structural digest of ``(topology, correlation)``.

        Covers exactly the inputs the prepared state is a function of —
        link count, per-path link-id tuples, and the correlation sets —
        so equal-content pairs produce equal fingerprints across
        processes.  Used as the service registry key.
        """
        with self._lock:
            if self._fingerprint is None:
                payload = json.dumps(
                    {
                        "n_links": self.topology.n_links,
                        "paths": [
                            list(path.link_ids)
                            for path in self.topology.paths
                        ],
                        "sets": sorted(
                            sorted(group) for group in self.correlation.sets
                        ),
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                ).encode("utf-8")
                self._fingerprint = hashlib.sha256(payload).hexdigest()
            return self._fingerprint


class PreparedRegistry:
    """Bounded, content-keyed LRU of :class:`PreparedTopology` objects.

    Keys are ``(topology, correlation)`` pairs compared by *content*
    (both types define value equality and cache their hashes), so two
    structurally identical pairs share one prep no matter how they were
    constructed.  All operations hold one reentrant lock; builds happen
    under it too, which serialises duplicate work instead of duplicating
    it — the common contended case is many threads wanting the *same*
    prep, where every waiter then hits the fresh entry.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[tuple, PreparedTopology]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_build(
        self, topology: Topology, correlation: CorrelationStructure
    ) -> PreparedTopology:
        key = (topology, correlation)
        with self._lock:
            prepared = self._entries.get(key)
            if prepared is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return prepared
            self._misses += 1
            prepared = PreparedTopology.build(topology, correlation)
            self._entries[key] = prepared
            self._shrink()
            return prepared

    def put(self, prepared: PreparedTopology) -> None:
        """Insert an externally built prep (e.g. warmed ahead of time)."""
        key = (prepared.topology, prepared.correlation)
        with self._lock:
            self._entries[key] = prepared
            self._entries.move_to_end(key)
            self._shrink()

    def evict(
        self, topology: Topology, correlation: CorrelationStructure
    ) -> bool:
        with self._lock:
            return self._entries.pop((topology, correlation), None) is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def resize(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        with self._lock:
            self._capacity = capacity
            self._shrink()

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self._capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    def _shrink(self) -> None:
        # Caller holds the lock.
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._evictions += 1


#: Process-wide fallback registry.  Sized for the batch drivers' working
#: set (a figure sweep touches at most a handful of correlation
#: structures per topology); services construct their own registries
#: sized to their topology budget.
DEFAULT_REGISTRY = PreparedRegistry(capacity=8)

_ACTIVE_REGISTRY: "ContextVar[PreparedRegistry | None]" = ContextVar(
    "repro_prepared_registry", default=None
)


def active_registry() -> PreparedRegistry:
    """The registry equation builds resolve against in this context."""
    registry = _ACTIVE_REGISTRY.get()
    return DEFAULT_REGISTRY if registry is None else registry


@contextmanager
def use_registry(registry: PreparedRegistry | None):
    """Install *registry* as the ambient prep registry for the scope.

    ``None`` is a no-op pass-through, so call sites can forward an
    optional parameter unconditionally.  The installation is a
    contextvar, hence scoped per-thread/per-task and safe to nest.
    """
    if registry is None:
        yield
        return
    token = _ACTIVE_REGISTRY.set(registry)
    try:
        yield
    finally:
        _ACTIVE_REGISTRY.reset(token)


def get_prepared(
    topology: Topology,
    correlation: CorrelationStructure,
    *,
    registry: PreparedRegistry | None = None,
    prepared: PreparedTopology | None = None,
) -> PreparedTopology:
    """Resolve the prepared state for ``(topology, correlation)``.

    An explicit ``prepared`` wins (after a consistency check); otherwise
    the explicit ``registry``, the ambient one installed by
    :func:`use_registry`, and finally :data:`DEFAULT_REGISTRY`.
    """
    if prepared is not None:
        if not (
            (
                prepared.topology is topology
                or prepared.topology == topology
            )
            and (
                prepared.correlation is correlation
                or prepared.correlation == correlation
            )
        ):
            raise ValueError(
                "prepared state was built for a different "
                "(topology, correlation) pair"
            )
        return prepared
    if registry is None:
        registry = active_registry()
    return registry.get_or_build(topology, correlation)
