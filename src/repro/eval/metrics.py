"""Evaluation metrics (paper Section 5, "Metrics").

The paper scores algorithms by the absolute error between a link's actual
congestion probability and the inferred one, over the *potentially
congested links* — links that participate in at least one congested path
— and reports three views: the CDF of the absolute error, its 90th
percentile, and its mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.topology import Topology
from repro.simulate.observations import PathObservations

__all__ = [
    "potentially_congested_links",
    "ErrorStats",
    "absolute_error_stats",
    "error_cdf",
    "DEFAULT_CDF_GRID",
]

#: Error levels at which the textual reports sample the CDF curves.
DEFAULT_CDF_GRID = (0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0)


def potentially_congested_links(
    topology: Topology, observations: PathObservations
) -> np.ndarray:
    """Link ids participating in at least one observed congested path."""
    congested_paths = observations.path_states.any(axis=0)
    return np.flatnonzero(topology.links_on_paths(congested_paths)).astype(
        np.int64, copy=False
    )


@dataclass(frozen=True)
class ErrorStats:
    """Summary statistics of per-link absolute errors.

    Attributes:
        mean: Mean absolute error (Figure 3(a)'s y-axis).
        p90: 90th percentile (Figure 3(b)'s y-axis): 90% of the scored
            links have error below this value.
        max: Largest error.
        n_links: Number of scored links.
    """

    mean: float
    p90: float
    max: float
    n_links: int


def absolute_error_stats(errors: np.ndarray) -> ErrorStats:
    """Summarise an error vector (one entry per scored link)."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        return ErrorStats(mean=0.0, p90=0.0, max=0.0, n_links=0)
    return ErrorStats(
        mean=float(errors.mean()),
        p90=float(np.percentile(errors, 90)),
        max=float(errors.max()),
        n_links=int(errors.size),
    )


def error_cdf(
    errors: np.ndarray,
    grid=DEFAULT_CDF_GRID,
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of the absolute error, sampled on ``grid``.

    Returns ``(grid, fractions)`` where ``fractions[i]`` is the fraction
    of links with error ≤ ``grid[i]`` (the paper's y-axis, as a fraction
    rather than percent).  An empty error vector yields all-ones (a
    perfect, vacuous algorithm).
    """
    grid = np.asarray(grid, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        return grid, np.ones_like(grid)
    # One sort + one searchsorted replaces the per-level comparison
    # loop; count-of-(errors <= level) divided by size is bit-identical
    # to the mean of the boolean mask.
    counts = np.searchsorted(np.sort(errors), grid, side="right")
    return grid, counts / errors.size
