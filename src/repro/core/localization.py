"""Per-snapshot congested-link localization (paper Section 3.3, outlook).

The paper's closing observation: once per-link (or per-subset) congestion
probabilities are known, the classic ill-posed question — *which* links
were congested during a given snapshot — can be answered by explicitly
scoring each feasible explanation, "even in the presence of link
correlations".  The authors defer that algorithm to future work; this
module implements it as an extension, together with the smallest-set
heuristic used by the earlier Boolean-tomography systems [13, 10] as a
baseline.

Feasibility (from Assumption 2, separability): an explanation ``H ⊆ E``
is feasible for an observed congested-path set ``F`` iff

* every link in ``H`` only covers congested paths: ``ψ({e}) ⊆ F`` for all
  ``e ∈ H`` (a congested link on a good path would contradict
  separability), and
* the explanation covers everything: ``ψ(H) = F``.

Scoring: with per-link probabilities ``p_k`` and cross-set independence,
``log P(H) = Σ_{k∈H} log p_k + Σ_{k∉H} log(1−p_k)``; dropping the constant
gives the weight ``w_k = log(p_k / (1−p_k))`` per selected link.  (Within a
correlation set this treats links as independent given the marginals — the
full joint from :class:`repro.core.factors.CongestionFactors` can be
plugged in via ``set_log_score`` when the theorem algorithm supplied it.)
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.core.topology import Topology
from repro.exceptions import MeasurementError
from repro.utils.bitset import bit_count, bools_of

__all__ = [
    "LocalizationResult",
    "feasible_candidate_links",
    "localize_map",
    "localize_smallest_set",
]

#: Probability floor/ceiling guarding the log-odds weights.
_EPSILON = 1e-9


@dataclass(frozen=True)
class LocalizationResult:
    """One snapshot's inferred congested link set.

    Attributes:
        congested_links: The selected explanation ``H``.
        log_likelihood: Score of ``H`` (MAP search) or ``nan`` (heuristic).
        method: ``"map"`` or ``"smallest_set"``.
        exact: True when the search provably examined the optimum.
        noise_paths: Bitmask of observed-congested paths discarded as
            observation noise (non-zero only with
            ``on_infeasible="trim"``).
    """

    congested_links: frozenset[int]
    log_likelihood: float
    method: str
    exact: bool
    noise_paths: int = 0

    def precision_recall(
        self, true_links: frozenset[int]
    ) -> tuple[float, float]:
        """Detection precision/recall against a ground-truth link set."""
        if not self.congested_links:
            precision = 1.0 if not true_links else 0.0
        else:
            hits = len(self.congested_links & true_links)
            precision = hits / len(self.congested_links)
        if not true_links:
            recall = 1.0
        else:
            recall = len(self.congested_links & true_links) / len(true_links)
        return precision, recall


def feasible_candidate_links(
    topology: Topology, congested_mask: int
) -> list[int]:
    """Links allowed in *any* feasible explanation of ``congested_mask``.

    A link qualifies iff it covers at least one path and every path it
    covers is congested: it lies on a congested path and on no good one.
    """
    congested = bools_of(congested_mask, topology.n_paths)
    allowed = topology.links_on_paths(congested)
    allowed &= ~topology.links_on_paths(~congested)
    return np.flatnonzero(allowed).tolist()


def _resolve_infeasible(
    topology: Topology,
    congested_mask: int,
    candidates: list[int],
    on_infeasible: str,
) -> tuple[int, list[int], int]:
    """Handle congested paths no feasible candidate can explain.

    Returns ``(cleaned_mask, candidates, noise_mask)``.  With
    ``on_infeasible="raise"`` an unexplainable observation raises
    :class:`MeasurementError`; with ``"trim"`` the offending paths are
    dropped as observation noise.  A dropped path was covered by no
    feasible candidate, so every surviving candidate's coverage already
    avoids it — the candidate set is unchanged and one pass suffices.
    """
    if on_infeasible not in ("raise", "trim"):
        raise ValueError(
            f"on_infeasible must be 'raise' or 'trim', got "
            f"{on_infeasible!r}"
        )
    reachable = 0
    for link_id in candidates:
        reachable |= topology.coverage[link_id]
    if reachable == congested_mask:
        return congested_mask, candidates, 0
    if on_infeasible == "raise":
        raise MeasurementError(
            "observed congested-path set admits no feasible explanation "
            "(separability violated by the observation — e.g. measurement "
            "noise marked a path congested while all its links' other "
            "paths are good)"
        )
    noise = congested_mask & ~reachable
    return congested_mask & ~noise, candidates, noise


def localize_map(
    topology: Topology,
    congested_mask: int,
    link_probabilities: np.ndarray,
    *,
    max_nodes: int = 200_000,
    on_infeasible: str = "raise",
) -> LocalizationResult:
    """Most-likely explanation via best-first branch and bound.

    Args:
        topology: The measurement topology.
        congested_mask: Bitmask of paths observed congested this snapshot.
        link_probabilities: ``P(X_ek = 1)`` per link id (from either
            inference algorithm).
        max_nodes: Search budget for the whole call: the nodes expanded
            over all components together, with one root charged per
            call, as for a search that never splits the snapshot.  When
            it runs out, the best explanation found is returned with
            ``exact=False`` if every component already has a complete
            cover; otherwise the greedy :func:`localize_smallest_set`
            explanation of the whole snapshot is returned with
            ``log_likelihood=nan``.
        on_infeasible: ``"raise"`` rejects observations that admit no
            feasible explanation; ``"trim"`` drops the unexplainable
            congested paths as observation noise (recorded in
            ``LocalizationResult.noise_paths``).

    The candidate links (after trimming) are ordered by descending
    log-odds, then ascending link id.  They split into components: two
    candidates belong to one component when their coverages share a
    congested path.  The score is a sum over links, and no feasible
    explanation couples two components, so the optimum is the union of
    each component's optimum.  Each component is searched on its own,
    over its candidates in the global order, components taken in the
    order of their first candidate: every search node either includes or
    excludes the next candidate, pruning branches that can no longer
    cover the component's paths or beat its incumbent.
    ``log_likelihood`` sums the chosen links' weights in the global
    order.

    Tie rule: among equal-score explanations of one component, the
    answer is the first complete cover that component's search reaches.
    Nodes leave the heap by highest optimistic bound, then by push order
    (a node's include child is pushed before its exclude child), and a
    later cover replaces the incumbent only with a strictly higher
    score.  Each component's choice therefore depends on that
    component's candidates alone, never on what else is congested.
    """
    if congested_mask == 0:
        return LocalizationResult(
            congested_links=frozenset(),
            log_likelihood=0.0,
            method="map",
            exact=True,
        )
    probabilities = np.clip(
        np.asarray(link_probabilities, dtype=np.float64),
        _EPSILON,
        1.0 - _EPSILON,
    )
    candidates = feasible_candidate_links(topology, congested_mask)
    congested_mask, candidates, noise = _resolve_infeasible(
        topology, congested_mask, candidates, on_infeasible
    )
    if congested_mask == 0:
        return LocalizationResult(
            congested_links=frozenset(),
            log_likelihood=0.0,
            method="map",
            exact=True,
            noise_paths=noise,
        )

    # Per-candidate log-odds: the same IEEE quotients as one scalar at a
    # time, each through math.log.
    chosen_p = probabilities[candidates]
    weights = dict(
        zip(candidates, map(math.log, (chosen_p / (1.0 - chosen_p)).tolist()))
    )
    # Descending weight: likely-congested links first.
    order = sorted(candidates, key=lambda k: -weights[k])
    ordered_weights = [weights[k] for k in order]
    coverages = [topology.coverage[k] for k in order]

    chosen: set[int] = set()
    # One root is charged per call, as for a single search over every
    # candidate: each component's search counts only the nodes below
    # its root.
    budget = max_nodes - 1
    exact = True
    for target, members in _components(coverages):
        found, expanded, exhausted = _best_first(
            members, order, ordered_weights, coverages, target, budget
        )
        if found is None:
            # Budget ran out before this component had a complete cover:
            # fall back to greedy for the whole snapshot.
            fallback = localize_smallest_set(
                topology, congested_mask, tie_break=weights
            )
            return LocalizationResult(
                congested_links=fallback.congested_links,
                log_likelihood=float("nan"),
                method="map",
                exact=False,
                noise_paths=noise,
            )
        chosen.update(found)
        exact = exact and not exhausted
        budget -= expanded
    log_likelihood = 0.0
    for k, weight in zip(order, ordered_weights):
        if k in chosen:
            log_likelihood += weight
    return LocalizationResult(
        congested_links=frozenset(chosen),
        log_likelihood=log_likelihood,
        method="map",
        exact=exact,
        noise_paths=noise,
    )


def _components(coverages: list[int]) -> list[tuple[int, list[int]]]:
    """Group candidate indices that share a congested path.

    Two candidates fall in one component when their coverages meet,
    directly or through other candidates.  Returns ``(paths, indices)``
    per component: the paths its candidates cover and its indices in
    ascending order, components ordered by their first index.  Component
    path masks stay pairwise disjoint, so a new candidate only has to be
    tested against its own coverage.
    """
    groups: list[tuple[int, list[int]]] = []
    for index, coverage in enumerate(coverages):
        paths, members = coverage, [index]
        separate = []
        for group in groups:
            if group[0] & coverage:
                paths |= group[0]
                members.extend(group[1])
            else:
                separate.append(group)
        separate.append((paths, members))
        groups = separate
    return sorted(
        ((paths, sorted(members)) for paths, members in groups),
        key=lambda group: group[1][0],
    )


def _best_first(
    members: list[int],
    order: list[int],
    ordered_weights: list[float],
    coverages: list[int],
    target: int,
    budget: int,
) -> tuple[tuple[int, ...] | None, int, bool]:
    """Best-first branch and bound over one component's candidates.

    ``members`` are the component's indices into the global ``order``,
    ``ordered_weights`` and ``coverages``; ``target`` is its paths.
    Returns ``(chosen, expanded, exhausted)``: the best complete cover of
    ``target`` found (``None`` if none), the nodes expanded below the
    root (the root is free; the caller charges one per call), and
    whether expanding one more than ``budget`` stopped the search.
    """
    n = len(members)
    order = [order[i] for i in members]
    ordered_weights = [ordered_weights[i] for i in members]
    coverages = [coverages[i] for i in members]
    # suffix_cover[i] = what candidates i.. can still cover.
    suffix_cover = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_cover[i] = suffix_cover[i + 1] | coverages[i]
    # Optimistic bound: sum of positive weights from i on.
    suffix_gain = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        gain = max(ordered_weights[i], 0.0)
        suffix_gain[i] = suffix_gain[i + 1] + gain

    best_score = -math.inf
    best_set: tuple[int, ...] | None = None
    exhausted = False
    heappush, heappop = heapq.heappush, heapq.heappop
    # Max-heap on optimistic score (negated for heapq).
    counter = 0
    heap = [(-(suffix_gain[0]), counter, 0, 0, 0.0, ())]
    expanded = -1
    while heap:
        neg_bound, _, index, covered, score, chosen = heappop(heap)
        if -neg_bound <= best_score:
            continue
        expanded += 1
        if expanded > budget:
            exhausted = True
            break
        if covered == target and score > best_score:
            best_score = score
            best_set = chosen
        if index == n:
            continue
        remaining = target & ~covered
        if remaining & ~suffix_cover[index]:
            continue
        next_gain = suffix_gain[index + 1]
        # Branch 1: include candidate `index`.
        include_score = score + ordered_weights[index]
        include_bound = include_score + next_gain
        counter += 1
        if include_bound > best_score:
            heappush(
                heap,
                (
                    -include_bound,
                    counter,
                    index + 1,
                    covered | coverages[index],
                    include_score,
                    chosen + (order[index],),
                ),
            )
        # Branch 2: exclude it.
        exclude_bound = score + next_gain
        counter += 1
        if exclude_bound > best_score and not (
            remaining & ~suffix_cover[index + 1]
        ):
            heappush(
                heap,
                (-exclude_bound, counter, index + 1, covered, score, chosen),
            )
    return best_set, expanded, exhausted


def localize_smallest_set(
    topology: Topology,
    congested_mask: int,
    *,
    tie_break: dict[int, float] | None = None,
    on_infeasible: str = "raise",
) -> LocalizationResult:
    """Greedy smallest-explanation heuristic (after [13, 10]).

    Repeatedly picks the feasible link covering the most still-unexplained
    congested paths; ties broken by the optional per-link score (higher
    first), then by link id for determinism.
    """
    if congested_mask == 0:
        return LocalizationResult(
            congested_links=frozenset(),
            log_likelihood=float("nan"),
            method="smallest_set",
            exact=True,
        )
    candidates = feasible_candidate_links(topology, congested_mask)
    congested_mask, candidates, noise = _resolve_infeasible(
        topology, congested_mask, candidates, on_infeasible
    )
    if congested_mask == 0:
        return LocalizationResult(
            congested_links=frozenset(),
            log_likelihood=float("nan"),
            method="smallest_set",
            exact=True,
            noise_paths=noise,
        )
    chosen: set[int] = set()
    covered = 0
    remaining_candidates = set(candidates)
    while covered != congested_mask:
        def gain(link_id: int) -> tuple:
            new = bit_count(topology.coverage[link_id] & ~covered)
            score = tie_break.get(link_id, 0.0) if tie_break else 0.0
            return (new, score, -link_id)

        best = max(remaining_candidates, key=gain)
        if not topology.coverage[best] & ~covered:
            raise AssertionError(
                "greedy cover stalled despite feasibility pre-check"
            )
        chosen.add(best)
        covered |= topology.coverage[best]
        remaining_candidates.discard(best)
    return LocalizationResult(
        congested_links=frozenset(chosen),
        log_likelihood=float("nan"),
        method="smallest_set",
        exact=True,
        noise_paths=noise,
    )


def congested_mask_from_states(path_states: np.ndarray) -> int:
    """Helper: bitmask of congested paths from a boolean row vector."""
    mask = 0
    for path_id in np.flatnonzero(np.asarray(path_states)):
        mask |= 1 << int(path_id)
    return mask
