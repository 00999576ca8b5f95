"""Linear-equation construction for the practical algorithm (Section 4).

The practical algorithm forms equations over the unknowns

    x_k = log P(X_ek = 0)

from two kinds of observable events:

* **Single paths** (paper Eq. 9): a path ``P_i`` that "does not involve
  correlated links" (no two of its links share a correlation set) satisfies
  ``y_i = Σ_{k: e_k ∈ P_i} x_k`` where ``y_i = log P(Y_Pi = 0)``.
* **Path pairs** (paper Eq. 10): a pair ``(P_i, P_j)`` whose *union* of
  links has no two distinct links in a common correlation set satisfies
  ``y_ij = Σ_{k: e_k ∈ P_i ∪ P_j} x_k``.

Only pairs that *share at least one link* are enumerated: for a disjoint
eligible pair the union row is the sum of the two single rows, hence never
linearly independent from the singles (both singles are always eligible
when the pair is).  This observation shrinks the candidate space from
``|P|²`` to roughly ``Σ_k |ψ({e_k})|²`` without losing any rank.

Following the paper's description, only rows that increase the rank are
kept, tracked by incremental Gaussian elimination, stopping at full column
rank.

The builder is batch-first: candidate pairs are enumerated with array
operations on the sparse routing matrix, eligibility is decided by
:meth:`~repro.core.correlation.CorrelationStructure.pairs_correlation_free`
in one shot, measured values are fetched through the provider's vectorised
``log_good_all`` / ``log_good_pairs`` APIs, and the accepted system is
assembled as sparse COO triplets — the dense ``|rows| × |E|`` matrix is
only materialised on explicit request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.core.correlation import CorrelationStructure
from repro.core.interfaces import PathGoodProvider, batch_log_good_all
from repro.core.prepared import (
    PreparedRegistry,
    PreparedTopology,
    _row_vector,
    get_prepared,
)
from repro.core.topology import Topology
from repro.exceptions import SolverError
from repro.utils.rng import as_generator

__all__ = ["EquationRow", "EquationSystem", "build_equations"]


@dataclass(frozen=True)
class EquationRow:
    """One linear equation ``value = Σ_{k ∈ link_ids} x_k``.

    Attributes:
        kind: ``"path"`` (Eq. 9) or ``"pair"`` (Eq. 10).
        paths: The observed path ids (one or two).
        link_ids: Links with coefficient 1 in the row.
        value: The measured log-good probability (``y_i`` or ``y_ij``).
    """

    kind: str
    paths: tuple[int, ...]
    link_ids: frozenset[int]
    value: float


@dataclass
class EquationSystem:
    """The assembled system ``R x = y`` plus diagnostics.

    Attributes:
        n_links: Number of unknowns (columns of R).
        rows: The accepted equations in acceptance order.
        n_single: Count of Eq.-9 rows (the paper's ``N1``).
        n_pair: Count of Eq.-10 rows (the paper's ``N2``).
        rank: Numerical rank of R at assembly time.
        eligible_paths: Paths that passed the correlation-free test.
        uncovered_links: Links appearing in no accepted row; their unknowns
            are unconstrained and the solver will leave them at the
            "never congested" default (Section 5 discusses the resulting
            error on unidentifiable links).
    """

    n_links: int
    rows: list[EquationRow] = field(default_factory=list)
    n_single: int = 0
    n_pair: int = 0
    rank: int = 0
    eligible_paths: tuple[int, ...] = ()
    uncovered_links: frozenset[int] = frozenset()

    def sparse_matrix(self) -> tuple[sparse.csr_matrix, np.ndarray]:
        """Assemble ``(R, y)`` with ``R`` as a CSR matrix (COO triplets;
        no dense intermediate)."""
        if not self.rows:
            raise SolverError(
                "no equations could be formed: every path involves "
                "correlated links"
            )
        counts = np.array(
            [len(row.link_ids) for row in self.rows], dtype=np.int64
        )
        row_index = np.repeat(np.arange(len(self.rows)), counts)
        col_index = np.concatenate(
            [sorted(row.link_ids) for row in self.rows]
        ).astype(np.int64)
        matrix = sparse.csr_matrix(
            (
                np.ones(col_index.size, dtype=np.float64),
                (row_index, col_index),
            ),
            shape=(len(self.rows), self.n_links),
        )
        values = np.array([row.value for row in self.rows], dtype=np.float64)
        return matrix, values

    def matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialise ``(R, y)`` as dense numpy arrays."""
        matrix, values = self.sparse_matrix()
        return matrix.toarray(), values

    @property
    def is_fully_determined(self) -> bool:
        """True when ``N1 + N2`` reached ``|E|`` *and* rank is full."""
        return self.rank >= self.n_links


def _single_values(
    measurements: PathGoodProvider | None,
    path_ids: list[int],
    n_paths: int,
) -> np.ndarray:
    """``y_i`` for the eligible paths (zeros without a provider)."""
    if measurements is None:
        return np.zeros(len(path_ids), dtype=np.float64)
    all_values = batch_log_good_all(measurements, n_paths)
    return all_values[np.asarray(path_ids, dtype=np.int64)]


def _pair_values(
    measurements: PathGoodProvider | None,
    pairs: np.ndarray,
) -> np.ndarray:
    """``y_ij`` for candidate pairs in one batch call (zeros without a
    provider or without pairs)."""
    if measurements is None or not pairs.size:
        return np.zeros(pairs.shape[0], dtype=np.float64)
    return np.asarray(measurements.log_good_pairs(pairs), dtype=np.float64)


def build_equations(
    topology: Topology,
    correlation: CorrelationStructure,
    measurements: PathGoodProvider | None,
    *,
    max_pair_candidates: int = 200_000,
    pair_order_seed=0,
    prepared: PreparedTopology | None = None,
    registry: PreparedRegistry | None = None,
) -> EquationSystem:
    """Assemble the Section-4 equation system.

    Args:
        topology: The measurement topology.
        correlation: Known correlation structure (pass the trivial
            structure to obtain the independence baseline's system).
        measurements: Provider of the measured ``y`` values; ``None``
            builds the structure alone, every value 0.0 (row acceptance
            never reads the values).
        max_pair_candidates: Bound on examined shared-link pairs; beyond it
            the system is returned as-is (rank possibly deficient — the
            L1 solve then picks the minimum-error solution, Section 4).
        pair_order_seed: Seed for shuffling pair candidates so truncation
            is not biased toward low-id links; ``None`` keeps generation
            order.
        prepared: Pre-built measurement-independent state for this
            ``(topology, correlation)`` pair; skips the registry lookup.
        registry: Registry to resolve/cache the prepared state in;
            defaults to the ambient registry (see
            :func:`repro.core.prepared.use_registry`).
    """
    n_links = topology.n_links
    system = EquationSystem(n_links=n_links)
    prep = get_prepared(
        topology, correlation, registry=registry, prepared=prepared
    )
    tracker = prep.clone_tracker()
    system.eligible_paths = prep.eligible

    # --- Single-path rows (Eq. 9) -------------------------------------
    single_values = _single_values(
        measurements, list(prep.eligible), topology.n_paths
    )
    for (path_id, link_ids, added), value in zip(
        prep.singles, single_values
    ):
        if added:
            system.rows.append(
                EquationRow(
                    kind="path",
                    paths=(path_id,),
                    link_ids=link_ids,
                    value=float(value),
                )
            )
            system.n_single += 1

    # --- Pair rows (Eq. 10) -------------------------------------------
    if tracker.rank < n_links:
        candidates = prep.candidates
        pair_eligible = prep.pair_eligible
        # Prefilter is skipped when the candidate cap binds (dropped
        # rows would otherwise still count as "examined").
        use_prefilter = 0 < candidates.shape[0] <= max_pair_candidates
        keep = ~prep.dependent_mask() if use_prefilter else None
        if pair_order_seed is not None:
            # Permute the FULL candidate list — identical RNG use and
            # examination order to the historical builder — and only
            # then drop the provably dependent rows (skipping them does
            # not change the tracker, so acceptance is preserved).
            order = as_generator(pair_order_seed).permutation(
                candidates.shape[0]
            )
            candidates = candidates[order]
            pair_eligible = pair_eligible[order]
            if keep is not None:
                keep = keep[order]
        if keep is not None:
            candidates = candidates[keep]
            pair_eligible = pair_eligible[keep]
        pair_values = _pair_values(measurements, candidates)
        examined = 0
        for index in range(candidates.shape[0]):
            if examined >= max_pair_candidates:
                break
            if tracker.rank >= n_links:
                break
            examined += 1
            if not pair_eligible[index]:
                continue
            path_a, path_b = (
                int(candidates[index, 0]),
                int(candidates[index, 1]),
            )
            link_ids = frozenset(
                topology.paths[path_a].link_ids
            ) | frozenset(topology.paths[path_b].link_ids)
            row = _row_vector(link_ids, n_links)
            if tracker.try_add(row):
                system.rows.append(
                    EquationRow(
                        kind="pair",
                        paths=(path_a, path_b),
                        link_ids=link_ids,
                        value=float(pair_values[index]),
                    )
                )
                system.n_pair += 1

    system.rank = tracker.rank
    covered: set[int] = set()
    for row in system.rows:
        covered.update(row.link_ids)
    system.uncovered_links = frozenset(range(n_links)) - frozenset(covered)
    return system
