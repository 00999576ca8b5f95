"""Packet-loss-rate model (paper Section 5, after Padmanabhan et al. [13]).

Per snapshot, every link gets a packet-loss rate drawn according to its
congestion status:

* good links: uniform in ``(0, t_l]`` — low residual loss;
* congested links: uniform in ``(t_l, 1]`` — anything above the
  congestion threshold.

The link-congestion threshold is ``t_l = 0.01`` (proposed in [10]; the
paper reports it "works well for mesh topologies and introduce[s]
negligible error").  A path of ``d`` links is declared congested when its
measured loss rate exceeds

    t_p = 1 − (1 − t_l)^d

— the loss a path would accumulate if all its links were exactly at the
threshold (Assumption 2, separability, made operational).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_probability

__all__ = ["LossModel", "path_threshold", "DEFAULT_LINK_THRESHOLD"]

#: The paper's link-congestion threshold ``t_l``.
DEFAULT_LINK_THRESHOLD = 0.01


def path_threshold(n_links: int, link_threshold: float = DEFAULT_LINK_THRESHOLD) -> float:
    """``t_p = 1 − (1 − t_l)^d`` for a path of ``d`` links."""
    if n_links < 1:
        raise ValueError(f"a path traverses at least one link, got {n_links}")
    check_probability(link_threshold, "link_threshold")
    return 1.0 - (1.0 - link_threshold) ** n_links


class LossModel:
    """Draws per-link packet-loss rates given congestion indicators.

    Args:
        link_threshold: ``t_l``; loss-rate boundary between good and
            congested links.
    """

    def __init__(self, link_threshold: float = DEFAULT_LINK_THRESHOLD) -> None:
        self._threshold = check_probability(link_threshold, "link_threshold")
        if self._threshold in (0.0, 1.0):
            raise ValueError(
                "link_threshold must be strictly inside (0, 1) so both "
                f"loss regimes are non-empty; got {self._threshold}"
            )

    @property
    def link_threshold(self) -> float:
        """``t_l``."""
        return self._threshold

    def path_threshold(self, n_links: int) -> float:
        """``t_p`` for a path of the given length."""
        return path_threshold(n_links, self._threshold)

    def sample_loss_rates(
        self,
        congested: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Per-link loss rates for a batch of snapshots.

        Args:
            congested: Boolean ``(snapshots, links)`` matrix (True =
                congested that snapshot); a 1-D vector over link ids is
                one snapshot.
            rng: Random source; one uniform per entry, in row order, so
                a ``(b, n)`` call draws exactly what ``b`` one-row calls
                draw.

        Returns:
            Loss rates of ``congested``'s shape: good links in
            ``(0, t_l]``, congested links in ``(t_l, 1]``.
        """
        congested = np.asarray(congested, dtype=bool)
        rates = rng.random(congested.shape)
        # Congested entries are sparse: rewrite only those, then scale
        # the buffer by t_l in place (the same values as the dense
        # ``np.where`` of the two regimes, without its two temporaries).
        congested_rates = self._threshold + rates[congested] * (
            1.0 - self._threshold
        )
        rates *= self._threshold
        rates[congested] = congested_rates
        return rates
