"""The measurement topology: links, paths, and the coverage function ψ.

``Topology`` is the central immutable container of the library.  It owns the
link and path arrays, validates the paper's structural invariants (no loops
in paths, no unused links), and provides the *path coverage* function

    ψ(A) = { P_i ∈ P | P_i ∋ e_k for some e_k ∈ A }      (paper Eq. 1)

as fast bitmask arithmetic: ``Topology.coverage[k]`` is the bitmask of paths
crossing link ``e_k``, and ``Topology.coverage_of(A)`` ORs those masks.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Hashable

import numpy as np

from repro.core.link import Link, Path
from repro.exceptions import TopologyError

__all__ = ["Topology"]


class Topology:
    """An immutable set of links plus the measurement paths over them.

    Args:
        links: The logical links of the network graph.  Ids must be dense
            (``0..len-1``) and match each link's position.
        paths: The measurement paths.  Ids must be dense and match position.
        require_all_links_used: When True (the paper's model), every link
            must appear on at least one path.  Generators that build the
            topology from routed paths always satisfy this; set it to False
            only for intermediate construction states.
    """

    def __init__(
        self,
        links: Sequence[Link],
        paths: Sequence[Path],
        *,
        require_all_links_used: bool = True,
    ) -> None:
        self._links: tuple[Link, ...] = tuple(links)
        self._paths: tuple[Path, ...] = tuple(paths)
        self._validate(require_all_links_used)
        self._link_by_name = {link.name: link for link in self._links}
        self._path_by_name = {path.name: path for path in self._paths}
        # coverage[k] = bitmask over path ids crossing link k  (ψ({e_k}))
        coverage = [0] * len(self._links)
        for path in self._paths:
            bit = 1 << path.id
            for link_id in path.link_ids:
                coverage[link_id] |= bit
        self._coverage: tuple[int, ...] = tuple(coverage)
        self._all_paths_mask = (1 << len(self._paths)) - 1
        self._routing_dense: np.ndarray | None = None
        self._routing_sparse = None
        self._entry_paths: np.ndarray | None = None
        self._path_endpoints: tuple[tuple[Hashable, Hashable], ...] | None = None
        self._hash: int | None = None

    # ------------------------------------------------------------------
    # Construction-time validation
    # ------------------------------------------------------------------
    def _validate(self, require_all_links_used: bool) -> None:
        if not self._links:
            raise TopologyError("a topology needs at least one link")
        if not self._paths:
            raise TopologyError("a topology needs at least one path")
        for position, link in enumerate(self._links):
            if link.id != position:
                raise TopologyError(
                    f"link ids must be dense and ordered; link at position "
                    f"{position} has id {link.id}"
                )
        for position, path in enumerate(self._paths):
            if path.id != position:
                raise TopologyError(
                    f"path ids must be dense and ordered; path at position "
                    f"{position} has id {path.id}"
                )
        names = [link.name for link in self._links]
        if len(set(names)) != len(names):
            raise TopologyError("link names must be unique")
        path_names = [path.name for path in self._paths]
        if len(set(path_names)) != len(path_names):
            raise TopologyError("path names must be unique")
        n_links = len(self._links)
        used: set[int] = set()
        for path in self._paths:
            for link_id in path.link_ids:
                if not 0 <= link_id < n_links:
                    raise TopologyError(
                        f"path {path.name!r} references unknown link id "
                        f"{link_id}"
                    )
            self._check_contiguous(path)
            used.update(path.link_ids)
        if require_all_links_used and len(used) != n_links:
            unused = sorted(set(range(n_links)) - used)
            unused_names = [self._links[k].name for k in unused]
            raise TopologyError(
                "the paper's model forbids unused links; links on no path: "
                f"{unused_names}"
            )

    def _check_contiguous(self, path: Path) -> None:
        """Paths must be node-contiguous: each link starts where the
        previous one ended."""
        for prev_id, next_id in zip(path.link_ids, path.link_ids[1:]):
            prev_link = self._links[prev_id]
            next_link = self._links[next_id]
            if prev_link.dst != next_link.src:
                raise TopologyError(
                    f"path {path.name!r} is not contiguous: link "
                    f"{prev_link} is followed by {next_link}"
                )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def links(self) -> tuple[Link, ...]:
        """All links, indexed by id."""
        return self._links

    @property
    def paths(self) -> tuple[Path, ...]:
        """All paths, indexed by id."""
        return self._paths

    @property
    def n_links(self) -> int:
        return len(self._links)

    @property
    def n_paths(self) -> int:
        return len(self._paths)

    @property
    def nodes(self) -> list[Hashable]:
        """All node identifiers, in first-appearance order."""
        seen: dict[Hashable, None] = {}
        for link in self._links:
            seen.setdefault(link.src)
            seen.setdefault(link.dst)
        return list(seen)

    def link(self, name: str) -> Link:
        """Look a link up by name."""
        try:
            return self._link_by_name[name]
        except KeyError:
            raise TopologyError(f"no link named {name!r}") from None

    def path(self, name: str) -> Path:
        """Look a path up by name."""
        try:
            return self._path_by_name[name]
        except KeyError:
            raise TopologyError(f"no path named {name!r}") from None

    @property
    def path_endpoints(self) -> tuple[tuple[Hashable, Hashable], ...]:
        """``(source node, destination node)`` per path id, built on
        first use."""
        if self._path_endpoints is None:
            self._path_endpoints = tuple(
                (
                    self._links[path.link_ids[0]].src,
                    self._links[path.link_ids[-1]].dst,
                )
                for path in self._paths
            )
        return self._path_endpoints

    def link_ids(self, names: Iterable[str]) -> frozenset[int]:
        """Map link names to a frozenset of ids (convenience for tests)."""
        return frozenset(self.link(name).id for name in names)

    # ------------------------------------------------------------------
    # Coverage function ψ
    # ------------------------------------------------------------------
    @property
    def coverage(self) -> tuple[int, ...]:
        """Per-link coverage masks: ``coverage[k]`` encodes ``ψ({e_k})``."""
        return self._coverage

    @property
    def all_paths_mask(self) -> int:
        """Bitmask with one bit per path (the value of ``ψ(E)``)."""
        return self._all_paths_mask

    def coverage_of(self, link_ids: Iterable[int]) -> int:
        """``ψ(A)`` as a path bitmask, for ``A`` given as link ids."""
        mask = 0
        for link_id in link_ids:
            mask |= self._coverage[link_id]
        return mask

    def covered_paths(self, link_ids: Iterable[int]) -> list[Path]:
        """``ψ(A)`` as a list of :class:`Path` objects (for reports)."""
        mask = self.coverage_of(link_ids)
        return [path for path in self._paths if mask >> path.id & 1]

    def paths_through(self, link_id: int) -> list[Path]:
        """All paths crossing link ``e_k`` (``ψ({e_k})`` expanded)."""
        mask = self._coverage[link_id]
        return [path for path in self._paths if mask >> path.id & 1]

    def links_on_paths(self, paths: np.ndarray) -> np.ndarray:
        """Boolean mask over link ids: the links of the paths that the
        boolean ``paths`` (one entry per path id) selects.

        One gather and one scatter over the routing matrix's entries
        (O(links on all paths)), through the path id of each entry,
        built on first use.
        """
        routing = self.routing_matrix_sparse()
        if self._entry_paths is None:
            self._entry_paths = np.repeat(
                np.arange(self.n_paths), np.diff(routing.indptr)
            )
        selected = np.zeros(self.n_links, dtype=bool)
        selected[routing.indices[paths[self._entry_paths]]] = True
        return selected

    # ------------------------------------------------------------------
    # Linear-algebra view
    # ------------------------------------------------------------------
    def routing_matrix(self) -> np.ndarray:
        """The 0/1 routing matrix ``R`` with ``R[i, k] = 1`` iff ``e_k ∈ P_i``.

        This is the matrix behind the paper's Eq. 9: stacking the rows of
        correlation-free paths gives ``y = R x`` for the log-good
        probabilities ``x_k = log P(X_ek = 0)``.

        The matrix is built once and cached (the topology is immutable);
        the returned array is marked read-only.
        """
        if self._routing_dense is None:
            matrix = np.asarray(
                self.routing_matrix_sparse().todense(), dtype=np.float64
            )
            matrix.flags.writeable = False
            self._routing_dense = matrix
        return self._routing_dense

    def routing_matrix_sparse(self):
        """The routing matrix as a cached ``scipy.sparse.csr_matrix``.

        Hot paths (bulk simulation, the batch equation builder) consume
        this directly instead of densifying ``|P| × |E|`` zeros.
        """
        if self._routing_sparse is None:
            from scipy import sparse

            indptr = np.zeros(self.n_paths + 1, dtype=np.int64)
            indices: list[int] = []
            for path in self._paths:
                link_ids = sorted(path.link_ids)
                indices.extend(link_ids)
                indptr[path.id + 1] = indptr[path.id] + len(link_ids)
            matrix = sparse.csr_matrix(
                (
                    np.ones(len(indices), dtype=np.float64),
                    np.asarray(indices, dtype=np.int64),
                    indptr,
                ),
                shape=(self.n_paths, self.n_links),
            )
            self._routing_sparse = matrix
        return self._routing_sparse

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"Topology(n_links={self.n_links}, n_paths={self.n_paths}, "
            f"n_nodes={len(self.nodes)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return self._links == other._links and self._paths == other._paths

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._links, self._paths))
        return self._hash
