"""Inference-result container shared by all algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.topology import Topology

__all__ = ["InferenceResult"]


@dataclass(frozen=True)
class InferenceResult:
    """Per-link congestion probabilities plus provenance.

    Attributes:
        algorithm: ``"correlation"``, ``"independence"``, or
            ``"nguyen_thiran"``.
        congestion_probabilities: ``P(X_ek = 1)`` per link id, clipped to
            [0, 1].
        log_good: The raw solution vector ``x_k = log P(X_ek = 0)``.
        uncovered_links: Links constrained by no equation; their
            probability defaults to 0 ("never congested") and should be
            treated as unknown by consumers.
        n_single_equations: The paper's ``N1``.
        n_pair_equations: The paper's ``N2``.
        rank: Rank of the assembled system.
        solver: The estimator that produced ``log_good``: ``"l1"`` (the
            paper's program) or ``"min_norm"`` (the independence
            baseline).
        diagnostics: Free-form extras (eligible path counts, timings...).
    """

    algorithm: str
    congestion_probabilities: np.ndarray
    log_good: np.ndarray
    uncovered_links: frozenset[int]
    n_single_equations: int
    n_pair_equations: int
    rank: int
    solver: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_links(self) -> int:
        return int(self.congestion_probabilities.shape[0])

    @property
    def n_equations(self) -> int:
        """``N1 + N2`` — the paper compares this against ``|E|``."""
        return self.n_single_equations + self.n_pair_equations

    def probability(self, link_id: int) -> float:
        """``P(X_ek = 1)`` for one link id."""
        return float(self.congestion_probabilities[link_id])

    def probability_by_name(self, topology: Topology, name: str) -> float:
        """``P(X_ek = 1)`` looked up by link name."""
        return self.probability(topology.link(name).id)

    def absolute_errors(self, truth: np.ndarray) -> np.ndarray:
        """``|estimated − true|`` per link (the paper's error metric)."""
        truth = np.asarray(truth, dtype=np.float64)
        if truth.shape != self.congestion_probabilities.shape:
            raise ValueError(
                f"truth has shape {truth.shape}, expected "
                f"{self.congestion_probabilities.shape}"
            )
        return np.abs(self.congestion_probabilities - truth)

    def as_dict(self, topology: Topology) -> dict[str, float]:
        """``{link name: probability}`` for reports."""
        return {
            link.name: self.probability(link.id) for link in topology.links
        }
