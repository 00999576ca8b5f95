"""Per-link congestion probability under ECMP demand uncertainty.

Each flow lands on exactly one of its candidate paths, chosen uniformly
and independently (the ECMP hash).  A link congests when the offered
load across it exceeds ``utilization_threshold × capacity``.  Three
evaluators share that definition:

- :func:`exceedance_exact` — the production path for small flow sets: a
  memoized recursion over the flows crossing each link (the problib
  ``SNonCongestionProbability`` idea re-derived for heterogeneous
  rates).  Per link, flow ``f`` crosses with probability ``p_f`` (the
  fraction of its candidates using the link); the recursion branches
  land/miss per flow, prunes subtrees that can no longer exceed the
  headroom, and memoizes on (flow index, remaining headroom) so equal
  partial loads collapse — the exponential naive enumeration becomes
  near-linear whenever rates repeat.
- :func:`exceedance_naive` — full enumeration of the joint flow→path
  assignment space (problib's ``ExactCongestionProbability`` shape).
  Kept as the benchmark baseline and the oracle the exact path is
  tested against.
- :func:`exceedance_sample` — seeded Monte Carlo over joint
  assignments, the fallback above the configurable flow-count
  threshold or when :func:`exact_state_bound` exceeds
  :data:`EXACT_STATE_BUDGET`.

:class:`CongestionModel` picks the evaluator and memoizes whole
predictions through the existing :class:`repro.eval.cache.TrialCache`,
keyed on the demand content fingerprint (rates, splits, each candidate
path's link ids, capacities, model knobs, and — for Monte Carlo — the
seed fingerprint).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from repro.io import canonical_json
from repro.predict.demand import ResolvedDemand
from repro.utils.rng import as_generator, clone_generator

__all__ = [
    "EXACT_STATE_BUDGET",
    "exact_state_bound",
    "exceedance_exact",
    "exceedance_naive",
    "exceedance_sample",
    "expected_load",
    "Prediction",
    "CongestionModel",
]

#: Cache-key salt; bump when the prediction semantics or the key change.
PREDICT_SALT = "predict-v2"

#: Most memo states the exact recursion may need on one link (see
#: :func:`exact_state_bound`); a forecast whose bound is larger runs on
#: Monte Carlo.  The recursion's time grows with its states: 16 flows of
#: distinct rates, each crossing a link with probability 1/2, bound
#: ~1M states and took ~42 ms for that link on a 2-core x86 host.
EXACT_STATE_BUDGET = 2**16


def _as_inputs(rates, incidences, limits):
    rates = np.asarray(rates, dtype=np.float64)
    limits = np.asarray(limits, dtype=np.float64)
    incidences = [np.asarray(inc, dtype=np.float64) for inc in incidences]
    if rates.ndim != 1 or len(incidences) != rates.size:
        raise ValueError(
            f"need one incidence matrix per rate; got {rates.size} rates "
            f"and {len(incidences)} matrices"
        )
    for index, incidence in enumerate(incidences):
        if incidence.ndim != 2 or incidence.shape[0] < 1:
            raise ValueError(
                f"incidence {index} must be (n_candidates, n_links), "
                f"got shape {incidence.shape}"
            )
        if incidence.shape[1] != limits.size:
            raise ValueError(
                f"incidence {index} covers {incidence.shape[1]} links, "
                f"limits cover {limits.size}"
            )
    return rates, incidences, limits


def _boundary(limits: np.ndarray) -> np.ndarray:
    # Loads exactly at the limit count as *not* congested.  The epsilon
    # absorbs summation-order float noise so the exact recursion, the
    # naive enumeration, and the sampler all agree at the boundary.
    return limits + 1e-9 * (1.0 + np.abs(limits))


def _membership(incidences) -> np.ndarray:
    """``(n_flows, n_links)``: the probability a flow crosses a link."""
    return np.stack(
        [np.asarray(inc, dtype=np.float64).mean(axis=0) for inc in incidences]
    )


def expected_load(rates, incidences) -> np.ndarray:
    """Mean per-link load: ``sum_f rate_f × P(f crosses link)``."""
    return np.asarray(rates, dtype=np.float64) @ _membership(incidences)


def exact_state_bound(rates, membership) -> int:
    """An upper bound on the memo states of the exact recursion on any
    one link, capped at ``EXACT_STATE_BUDGET + 1``.

    On a link, the uncertain flows (crossing with probability strictly
    between 0 and 1, at a non-zero rate) are the recursion's depth, and
    the partial loads it can reach at any depth are sums of at most
    ``m`` flows of each distinct rate that ``m`` uncertain flows share:
    at most the product over those rates of ``m + 1``.
    """
    rates = np.asarray(rates, dtype=np.float64)
    membership = np.asarray(membership, dtype=np.float64)
    uncertain = (membership > 0.0) & (membership < 1.0)
    uncertain &= (rates != 0.0)[:, None]
    cap = EXACT_STATE_BUDGET + 1
    bound = uncertain.sum(axis=0, dtype=np.int64)
    for rate in np.unique(rates[uncertain.any(axis=1)]):
        count = uncertain[rates == rate].sum(axis=0, dtype=np.int64)
        bound = np.minimum(bound * (count + 1), cap)
    return int(bound.max(initial=0))


def _link_exceed(rates: tuple, probs: tuple, headroom: float, memo: dict) -> float:
    """P(sum of independent Bernoulli-weighted rates > headroom).

    ``rates``/``probs`` hold only the genuinely uncertain flows (0 < p
    < 1) for one link, sorted by descending rate so pruning bites
    early.  ``headroom`` already accounts for deterministic flows.
    """
    # Python floats, summed in the order np.cumsum sums: the same bytes,
    # without a NumPy scalar in every comparison below.
    suffix = list(itertools.accumulate(reversed(rates)))[::-1] + [0.0]

    def solve(index: int, headroom: float) -> float:
        if headroom < 0.0:
            return 1.0
        if suffix[index] <= headroom:
            return 0.0
        key = (index, round(headroom, 12))
        cached = memo.get(key)
        if cached is not None:
            return cached
        rate, prob = rates[index], probs[index]
        value = prob * solve(index + 1, headroom - rate) + (1.0 - prob) * solve(
            index + 1, headroom
        )
        memo[key] = value
        return value

    return solve(0, headroom)


def exceedance_exact(
    rates, incidences, limits, *, membership=None
) -> np.ndarray:
    """Exact per-link exceedance probabilities via memoized recursion.

    ``membership``: the incidences' crossing probabilities (see
    :meth:`repro.predict.demand.ResolvedDemand.membership`), when the
    caller already has them.
    """
    rates, incidences, limits = _as_inputs(rates, incidences, limits)
    if membership is None:
        membership = (
            _membership(incidences)
            if incidences
            else np.zeros((0, limits.size))
        )
    rate_list = rates.tolist()
    out = np.empty(limits.size, dtype=np.float64)
    for link, (headroom, column) in enumerate(
        zip(_boundary(limits).tolist(), membership.T.tolist())
    ):
        uncertain = []
        for rate, prob in zip(rate_list, column):
            if prob == 0.0 or rate == 0.0:
                continue
            if prob == 1.0:
                headroom -= rate
            else:
                uncertain.append((rate, prob))
        if headroom < 0.0:
            out[link] = 1.0
            continue
        if not uncertain:
            # A fixed load within the headroom.
            out[link] = 0.0
            continue
        uncertain.sort(key=lambda pair: (-pair[0], pair[1]))
        out[link] = _link_exceed(
            tuple(rate for rate, _ in uncertain),
            tuple(prob for _, prob in uncertain),
            headroom,
            {},
        )
    return out


def exceedance_naive(rates, incidences, limits) -> np.ndarray:
    """Full joint enumeration over every flow→path assignment.

    Cost is ``prod_f n_candidates(f)`` states — the baseline the
    memoized recursion is benchmarked against, and the oracle it is
    tested against.
    """
    rates, incidences, limits = _as_inputs(rates, incidences, limits)
    boundary = _boundary(limits)
    counts = [incidence.shape[0] for incidence in incidences]
    total = int(np.prod(counts)) if counts else 1
    exceeded = np.zeros(limits.size, dtype=np.float64)
    for choice in itertools.product(*[range(count) for count in counts]):
        load = np.zeros(limits.size, dtype=np.float64)
        for flow, candidate in enumerate(choice):
            load += rates[flow] * incidences[flow][candidate]
        exceeded += load > boundary
    return exceeded / total


def exceedance_sample(
    rates, incidences, limits, *, rng, n_samples: int
) -> np.ndarray:
    """Seeded Monte Carlo estimate over joint assignments.

    Draws one uniform candidate index per flow per sample, in flow
    order, from ``rng`` — so a given generator state fixes the
    estimate bit for bit.  Memory is the ``n_samples x n_links`` load
    plus one temporary of that size.
    """
    rates, incidences, limits = _as_inputs(rates, incidences, limits)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = as_generator(rng)
    load = np.zeros((n_samples, limits.size), dtype=np.float64)
    for flow, incidence in enumerate(incidences):
        choices = rng.integers(0, incidence.shape[0], size=n_samples)
        # Scale the few candidate rows, then gather: the same products
        # as scaling the gathered rows, without a second temporary.
        load += (rates[flow] * incidence)[choices]
    return (load > _boundary(limits)).mean(axis=0)


@dataclass(frozen=True, slots=True)
class Prediction:
    """One demand's per-link congestion forecast.

    Attributes:
        probability: P(load exceeds threshold × capacity) per link.
        expected_load: Mean load per link.
        expected_utilization: Mean load / capacity per link.
        method: ``"exact"`` or ``"monte-carlo"``.
        cached: Whether the vectors came from the trial cache.
    """

    probability: np.ndarray
    expected_load: np.ndarray
    expected_utilization: np.ndarray
    method: str
    cached: bool = False


class CongestionModel:
    """Pick an evaluator and memoize predictions through a TrialCache.

    Args:
        utilization_threshold: A link counts as congested when its load
            exceeds this fraction of capacity (0.85 = the proactive
            alert level of the predictor snippets).
        exact_max_flows: Flow sets up to this size use the exact
            memoized recursion, unless its state bound exceeds
            :data:`EXACT_STATE_BUDGET`; larger sets fall back to Monte
            Carlo.
        mc_samples: Sample count for the fallback.
    """

    def __init__(
        self,
        *,
        utilization_threshold: float = 0.85,
        exact_max_flows: int = 16,
        mc_samples: int = 20_000,
    ) -> None:
        if not 0 < utilization_threshold:
            raise ValueError(
                f"utilization_threshold must be > 0, got {utilization_threshold}"
            )
        if exact_max_flows < 0:
            raise ValueError(
                f"exact_max_flows must be >= 0, got {exact_max_flows}"
            )
        if mc_samples < 1:
            raise ValueError(f"mc_samples must be >= 1, got {mc_samples}")
        self.utilization_threshold = float(utilization_threshold)
        self.exact_max_flows = int(exact_max_flows)
        self.mc_samples = int(mc_samples)

    def method_for(self, n_flows: int, states: int = 0) -> str:
        """``"exact"`` for at most :attr:`exact_max_flows` flows whose
        :func:`exact_state_bound` is ``states`` <=
        :data:`EXACT_STATE_BUDGET`; ``"monte-carlo"`` otherwise."""
        if n_flows <= self.exact_max_flows and states <= EXACT_STATE_BUDGET:
            return "exact"
        return "monte-carlo"

    def method(self, resolved: ResolvedDemand, rates, membership=None) -> str:
        """The evaluator :meth:`predict` uses for ``rates`` on
        ``resolved`` (``membership``: its :meth:`ResolvedDemand.membership`,
        when the caller already has it)."""
        if resolved.n_flows > self.exact_max_flows:
            return "monte-carlo"
        if membership is None:
            membership = resolved.membership()
        return self.method_for(
            resolved.n_flows, exact_state_bound(rates, membership)
        )

    def _key(self, resolved: ResolvedDemand, rates, method: str, seed) -> str:
        from repro.eval.cache import seed_fingerprint

        content = {
            "salt": PREDICT_SALT,
            "demand": resolved.key_payload(rates),
            "utilization_threshold": self.utilization_threshold,
            "method": method,
            "mc": (
                {
                    "n_samples": self.mc_samples,
                    "seed": seed_fingerprint(seed),
                }
                if method == "monte-carlo"
                else None
            ),
        }
        return hashlib.sha256(canonical_json(content).encode()).hexdigest()

    def predict(
        self,
        resolved: ResolvedDemand,
        rates=None,
        *,
        seed=0,
        cache=None,
    ) -> Prediction:
        """Per-link congestion probabilities for one (shifted) demand.

        Args:
            resolved: A demand bound to a topology.
            rates: Per-flow rate override (a shift's scaled rates);
                defaults to the matrix's baseline rates.
            seed: Seed-like for the Monte Carlo fallback; part of the
                cache key there, ignored by the exact path.
            cache: Optional :class:`repro.eval.cache.TrialCache`; hits
                skip the enumeration entirely.
        """
        rates = (
            resolved.rates
            if rates is None
            else np.asarray(rates, dtype=np.float64)
        )
        if rates.shape != resolved.rates.shape:
            raise ValueError(
                f"rates must have shape {resolved.rates.shape}, "
                f"got {rates.shape}"
            )
        membership = resolved.membership()
        method = self.method(resolved, rates, membership)
        limits = self.utilization_threshold * resolved.capacities
        key = None
        if cache is not None:
            key = self._key(resolved, rates, method, seed)
            stored = cache.get(key)
            if stored is not None:
                return Prediction(
                    probability=stored["probability"],
                    expected_load=stored["expected_load"],
                    expected_utilization=(
                        stored["expected_load"] / resolved.capacities
                    ),
                    method=method,
                    cached=True,
                )
        if method == "exact":
            probability = exceedance_exact(
                rates, resolved.incidences, limits, membership=membership
            )
        else:
            rng = as_generator(clone_generator(seed))
            probability = exceedance_sample(
                rates,
                resolved.incidences,
                limits,
                rng=rng,
                n_samples=self.mc_samples,
            )
        mean_load = rates @ membership
        if cache is not None:
            cache.put(
                key,
                {"probability": probability, "expected_load": mean_load},
            )
        return Prediction(
            probability=probability,
            expected_load=mean_load,
            expected_utilization=mean_load / resolved.capacities,
            method=method,
            cached=False,
        )
