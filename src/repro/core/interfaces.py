"""Measurement-side protocols consumed by the inference algorithms.

The algorithms never touch raw packets; they consume *probabilities of
observable path events*.  Two protocols capture exactly what each algorithm
needs:

* :class:`PathGoodProvider` — what the practical algorithm (Section 4)
  needs: ``log P(Y_Pi = 0)`` for single paths and ``log P(Y_Pi = 0,
  Y_Pj = 0)`` for path pairs.
* :class:`PathStateProvider` — what the theorem algorithm (Appendix A)
  needs: the probability that the set of congested paths is *exactly* a
  given set, ``P(ψ(S) = F)``, including ``F = ∅``.

Both are implemented by the empirical estimator
(:class:`repro.simulate.observations.PathObservations`) and by the exact
oracle (:class:`repro.simulate.oracle.ExactPathStateDistribution`), so every
algorithm can run on noisy measurements or on ground truth unchanged.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["PathGoodProvider", "PathStateProvider", "batch_log_good_all"]


def batch_log_good_all(measurements, n_paths: int) -> np.ndarray:
    """All ``log P(Y_i = 0)`` through the provider's ``log_good_all``.

    Batch consumers (the equation builder, the independence baseline)
    read the values here, so the handling of a provider returning the
    wrong shape (always a loud ``ValueError``) lives in exactly one
    place.
    """
    values = np.asarray(measurements.log_good_all(), dtype=np.float64)
    if values.shape != (n_paths,):
        raise ValueError(
            f"log_good_all returned shape {values.shape}, expected "
            f"({n_paths},)"
        )
    return values


@runtime_checkable
class PathGoodProvider(Protocol):
    """Log-probabilities of single and pairwise path-good events."""

    def log_good(self, path_id: int) -> float:
        """``log P(Y_Pi = 0)`` — the paper's ``y_i``."""
        ...

    def log_good_pair(self, path_a: int, path_b: int) -> float:
        """``log P(Y_Pi = 0, Y_Pj = 0)`` — the paper's ``y_ij``."""
        ...

    def log_good_all(self) -> np.ndarray:
        """Every path's ``y_i``, indexed by path id — what the
        inference algorithms read."""
        ...

    def log_good_pairs(self, pairs) -> np.ndarray:
        """``y_ij`` for each row ``(i, j)`` of an ``(m, 2)`` array."""
        ...


@runtime_checkable
class PathStateProvider(Protocol):
    """Exact-congested-path-set probabilities."""

    def p_congested_mask(self, mask: int) -> float:
        """``P(ψ(S) = F)`` for the path set encoded by ``mask``.

        ``mask = 0`` is the all-paths-good event ``P(ψ(S) = ∅)``.
        """
        ...
