"""Service queries: normalisation, task construction, and runners.

A query is a plain JSON dict (``kind`` plus parameters).  It is turned
into :class:`repro.eval.parallel.ScenarioTask` records whose ``factory``
is a dotted ``"module:attribute"`` task-runner spec, so the *identical*
code executes whether the query arrives over HTTP (dispatched through
the service's batcher and executor), through the batch CLI's ``localize``
command, or inside a pool/dist worker process.  Seeds are pre-spawned
per task exactly like the figure sweeps, which is what makes service
answers bit-identical to batch answers for the same seed.

Results are ``dict[str, float64 ndarray]`` — the one shape every
executor transport and the trial cache already speak.  Variable-length
set results (per-snapshot congested links) are encoded as a counts
vector plus a flattened ids vector.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.identifiability import (
    check_assumption4,
    unidentifiable_links_structural,
)
from repro.core.localization import localize_map
from repro.eval.parallel import ScenarioTask, scenario_tasks
from repro.eval.runner import run_comparison
from repro.eval.scenario import (
    PER_SET_RANGES,
    make_clustered_scenario,
    resolve_per_set_range,
)
from repro.simulate.experiment import ExperimentConfig
from repro.utils.bitset import bit_count
from repro.utils.rng import clone_generator

__all__ = [
    "LOCALIZATION_RUNNER",
    "IDENTIFIABILITY_RUNNER",
    "WHATIF_RUNNER",
    "QUERY_KINDS",
    "MAX_SNAPSHOTS",
    "MAX_PACKETS_PER_PATH",
    "MAX_NODES",
    "MAX_EXACT_FLOWS",
    "MAX_MC_SAMPLES",
    "MAX_QUERY_CELLS",
    "normalize_query",
    "validate_query",
    "query_tasks",
    "run_query",
    "run_query_tasks",
    "encode_vectors",
    "decode_vectors",
    "run_localization_task",
    "run_identifiability_task",
]

#: Dotted runner specs — resolvable by name in any worker process.
LOCALIZATION_RUNNER = "repro.serve.queries:run_localization_task"
IDENTIFIABILITY_RUNNER = "repro.serve.queries:run_identifiability_task"
WHATIF_RUNNER = "repro.predict.tasks:run_whatif_task"

#: Query kind → (runner spec, parameter defaults).  ``None`` defaults
#: are passed through untouched (e.g. infinite-traffic probing).
QUERY_KINDS: dict[str, tuple[str, dict]] = {
    "localization": (
        LOCALIZATION_RUNNER,
        {
            "congested_fraction": 0.10,
            "per_set_range": "high",
            "n_snapshots": 120,
            "packets_per_path": 400,
            "loc_snapshots": 8,
            "max_nodes": 20_000,
        },
    ),
    "identifiability": (
        IDENTIFIABILITY_RUNNER,
        {"max_subset_size": 2},
    ),
    "whatif": (
        WHATIF_RUNNER,
        {
            "demand": None,  # required — a demand-matrix payload
            "shifts": None,  # default: the matrix's own named shifts
            "utilization_threshold": 0.85,
            "exact_max_flows": 16,
            "mc_samples": 20_000,
            "congested_fraction": 0.10,
            "per_set_range": "high",
            "n_snapshots": 120,
            "packets_per_path": 400,
        },
    ),
}


#: Upper bounds on query parameters, far above every CLI and benchmark
#: default.  ``max_nodes`` bounds the branch-and-bound search of one
#: localization.  ``exact_max_flows`` bounds the exact forecast's
#: recursion to at most ``2**18`` partial loads per link: measured worst
#: case (18 flows of distinct rates, each crossing the link with
#: probability 1/2, headroom at half their total) ~0.16 s and ~72k memo
#: entries per link on a 2-core x86 host, growing ~2x per flow.
MAX_SNAPSHOTS = 100_000
MAX_PACKETS_PER_PATH = 10**9
MAX_NODES = 10_000_000
MAX_EXACT_FLOWS = 18
MAX_MC_SAMPLES = 1_000_000

#: The largest matrices one query may make on its topology, in cells:
#: ``n_snapshots x (links + paths)`` for the simulation window (boolean
#: states and path observations, up to ~8 bytes a cell) and, when the
#: forecast falls back to Monte Carlo, ``mc_samples x links`` (a float64
#: load and one temporary of that size, ~17 bytes a cell).  Checked by
#: :func:`validate_query`, which knows the topology.
MAX_QUERY_CELLS = 2**24


def _check_integer(kwargs: dict, name: str, low: int, high: int) -> None:
    """``kwargs[name]`` must be an integer (not a bool) in ``[low, high]``."""
    value = kwargs[name]
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or not low <= value <= high
    ):
        raise ValueError(
            f"{name} must be an integer in [{low}, {high}], got {value!r}"
        )


def _check_number(
    kwargs: dict, name: str, low: float, high: float = math.inf, *,
    open_low: bool = False,
) -> None:
    """``kwargs[name]`` must be a finite number (not a bool) in range."""
    value = kwargs[name]
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float, np.integer, np.floating))
        or not math.isfinite(value)
        or not (value > low if open_low else value >= low)
        or value > high
    ):
        lower = f"> {low}" if open_low else f">= {low}"
        bound = lower if high == math.inf else f"{lower} and <= {high}"
        raise ValueError(
            f"{name} must be a finite number {bound}, got {value!r}"
        )


def _check_window(kwargs: dict) -> None:
    """The simulation-window parameters shared by both simulating kinds."""
    _check_number(kwargs, "congested_fraction", 0.0, 1.0)
    _check_integer(kwargs, "n_snapshots", 1, MAX_SNAPSHOTS)
    if kwargs["packets_per_path"] is not None:
        _check_integer(kwargs, "packets_per_path", 1, MAX_PACKETS_PER_PATH)
    spec = kwargs["per_set_range"]
    if isinstance(spec, str):
        if spec not in PER_SET_RANGES:
            raise ValueError(
                f"unknown per_set_range preset {spec!r}; expected one of "
                f"{sorted(PER_SET_RANGES)} or a [lo, hi] pair"
            )
    elif not (
        isinstance(spec, (list, tuple))
        and len(spec) == 2
        and all(
            isinstance(bound, (int, np.integer))
            and not isinstance(bound, bool)
            for bound in spec
        )
        and 1 <= spec[0] <= spec[1]
    ):
        raise ValueError(
            f"per_set_range must be 'high', 'loose', or a pair of "
            f"integers 1 <= lo <= hi; got {spec!r}"
        )
    kwargs["per_set_range"] = resolve_per_set_range(spec)


def _normalize_whatif(kwargs: dict):
    """Canonicalise and validate the what-if parameters; returns the
    demand matrix and the shifts a forecast evaluates.

    The demand payload round-trips through :class:`DemandMatrix` so
    equivalent spellings (int vs float rates, missing optional fields)
    produce byte-identical ``factory_kwargs`` — and therefore identical
    cache keys — and malformed payloads fail here with a clear message
    instead of poisoning a service batch at execution time.
    """
    from repro.predict.demand import DemandMatrix, DemandShift
    from repro.predict.scenario import chosen_shifts

    demand = kwargs.get("demand")
    if demand is None:
        raise ValueError("whatif queries require a 'demand' matrix payload")
    matrix = DemandMatrix.from_payload(demand)
    kwargs["demand"] = matrix.to_payload()
    shifts = kwargs.get("shifts")
    if shifts is not None:
        if not isinstance(shifts, list) or not shifts:
            raise ValueError(
                "'shifts' must be a non-empty list of shift objects (or "
                "omitted to use the demand matrix's own)"
            )
        shifts = [DemandShift.from_payload(shift) for shift in shifts]
        kwargs["shifts"] = [shift.to_payload() for shift in shifts]
    _check_number(kwargs, "utilization_threshold", 0.0, open_low=True)
    _check_integer(kwargs, "exact_max_flows", 0, MAX_EXACT_FLOWS)
    _check_integer(kwargs, "mc_samples", 1, MAX_MC_SAMPLES)
    return matrix, chosen_shifts(matrix, shifts)


def normalize_query(query: dict) -> tuple[str, dict, int]:
    """Validate a raw query dict into ``(runner, kwargs, seed)``.

    Unknown kinds and unknown parameters fail loudly (they would
    otherwise silently change the cache key without changing the
    computation, or vice versa).  So does every numeric parameter of
    the simulating kinds that has the wrong type (a bool is not an
    integer), is not finite, or is out of range — the ``MAX_*`` bounds
    above — and a seed that is not an integer >= 0: a bad value fails
    here, not mid-batch with its co-batched queries.  ``per_set_range``
    is resolved to its canonical tuple here so the service, the CLI,
    and round-trips through JSON codecs all produce the same task
    kwargs.
    """
    runner, kwargs, seed, _ = _normalize(query)
    return runner, kwargs, seed


def _normalize(query: dict) -> tuple[str, dict, int, tuple | None]:
    """:func:`normalize_query`, plus a what-if query's ``(demand
    matrix, shifts)`` (``None`` for the other kinds)."""
    if not isinstance(query, dict):
        raise ValueError(f"query must be an object, got {type(query).__name__}")
    query = dict(query)
    kind = query.pop("kind", "localization")
    if kind not in QUERY_KINDS:
        raise ValueError(
            f"unknown query kind {kind!r}; expected one of "
            f"{sorted(QUERY_KINDS)}"
        )
    seed = query.pop("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    runner, defaults = QUERY_KINDS[kind]
    unknown = sorted(set(query) - set(defaults))
    if unknown:
        raise ValueError(
            f"unknown {kind} query parameter(s) {unknown}; "
            f"accepted: {sorted(defaults)} (plus 'kind' and 'seed')"
        )
    kwargs = {**defaults, **query}
    if "per_set_range" in kwargs:
        _check_window(kwargs)
    whatif = None
    if kind == "localization":
        _check_integer(kwargs, "loc_snapshots", 0, MAX_SNAPSHOTS)
        _check_integer(kwargs, "max_nodes", 1, MAX_NODES)
    elif kind == "whatif":
        whatif = _normalize_whatif(kwargs)
    return runner, kwargs, seed, whatif


def validate_query(instance, query: dict) -> list[ScenarioTask]:
    """Full pre-queue validation of one query against its instance;
    returns the query's tasks (see :func:`query_tasks`).

    :func:`normalize_query` checks everything checkable without a
    topology; this additionally binds a what-if query's demand matrix
    to the instance, so unresolvable flows (unknown paths, endpoint
    pairs with no routed path) are rejected as bad requests instead of
    failing — and taking co-batched queries with them — inside the
    engine.  It also bounds the query's matrices on this topology by
    :data:`MAX_QUERY_CELLS`, the Monte Carlo samples only when some
    shift's forecast would draw them.  Raises :class:`ValueError`.
    """
    runner, kwargs, seed, whatif = _normalize(query)
    topology = instance.topology
    if "n_snapshots" in kwargs:
        _check_cells(
            "n_snapshots x (links + paths)",
            kwargs["n_snapshots"] * (topology.n_links + topology.n_paths),
        )
    if whatif is not None:
        from repro.predict.model import CongestionModel

        matrix, shifts = whatif
        resolved = matrix.resolve(topology)
        cells = kwargs["mc_samples"] * topology.n_links
        if cells > MAX_QUERY_CELLS:
            model = CongestionModel(exact_max_flows=kwargs["exact_max_flows"])
            membership = resolved.membership()
            if any(
                model.method(resolved, resolved.rates_under(shift), membership)
                == "monte-carlo"
                for shift in shifts
            ):
                _check_cells("mc_samples x links (Monte Carlo forecast)", cells)
    return scenario_tasks(runner, kwargs, n_trials=1, seed=seed)


def _check_cells(what: str, cells: int) -> None:
    if cells > MAX_QUERY_CELLS:
        raise ValueError(
            f"{what} is {cells} cells on this topology; the limit is "
            f"{MAX_QUERY_CELLS}"
        )


def query_tasks(query: dict, *, group: int = 0) -> list[ScenarioTask]:
    """The (single-element) task list for one query.

    Child-seed layout is the engine's standard ``n_trials=1`` spawn, so
    the task — and therefore its cache key and its result — is a pure
    function of the normalised query.
    """
    runner, kwargs, seed = normalize_query(query)
    return scenario_tasks(runner, kwargs, n_trials=1, seed=seed, group=group)


def run_query(
    instance,
    query: dict,
    *,
    options=None,
    workers=None,
    cache=None,
    executor=None,
    registry=None,
) -> dict[str, np.ndarray]:
    """Execute one query end to end through the scenario engine.

    This is the in-process entry point; the service runs the very same
    tasks, merely coalescing several queries into one engine call.
    """
    return run_query_tasks(
        instance,
        query_tasks(query),
        options=options,
        workers=workers,
        cache=cache,
        executor=executor,
        registry=registry,
    )


def run_query_tasks(
    instance,
    tasks: list[ScenarioTask],
    *,
    options=None,
    workers=None,
    cache=None,
    executor=None,
    registry=None,
) -> dict[str, np.ndarray]:
    """Execute one query's tasks (from :func:`query_tasks` or
    :func:`validate_query`) through the scenario engine: what
    :func:`run_query` does once the query is parsed, and what the
    ``localize`` and ``predict`` CLI commands run after validation."""
    from repro.eval.parallel import run_scenario_tasks

    results = run_scenario_tasks(
        instance,
        tasks,
        config=None,
        options=options,
        workers=workers,
        cache=cache,
        executor=executor,
        registry=registry,
    )
    return results[0]


# ----------------------------------------------------------------------
# JSON transport for float64 result vectors
# ----------------------------------------------------------------------
def encode_vectors(vectors: dict[str, np.ndarray]) -> dict[str, list]:
    """JSON-safe encoding of a result dict.

    Python floats round-trip losslessly through ``repr`` (shortest
    round-trip serialisation), so decoding recovers bit-identical
    float64 vectors.
    """
    return {
        name: np.asarray(vector, dtype=np.float64).ravel().tolist()
        for name, vector in vectors.items()
    }


def decode_vectors(payload: dict) -> dict[str, np.ndarray]:
    """Inverse of :func:`encode_vectors`."""
    return {
        name: np.asarray(values, dtype=np.float64)
        for name, values in payload.items()
    }


# ----------------------------------------------------------------------
# Task runners (executed inside whatever worker the executor picks)
# ----------------------------------------------------------------------
def _flatten_link_sets(
    link_sets: list[frozenset[int]],
) -> tuple[np.ndarray, np.ndarray]:
    counts = np.array([len(links) for links in link_sets], dtype=np.float64)
    flat = np.array(
        [link for links in link_sets for link in sorted(links)],
        dtype=np.float64,
    )
    return counts, flat


def run_localization_task(instance, config, options, task) -> dict:
    """One localization query: simulate, infer, localize, score.

    The simulation window is part of the query (``n_snapshots``,
    ``packets_per_path``), so the context ``config`` is ignored — the
    cache key carries the window through ``factory_kwargs`` instead.

    Returns float64 vectors only (executor-transport requirement):
    inferred probabilities for both algorithms, the standard per-link
    absolute-error vectors, and per-snapshot localization outcomes for
    the first ``loc_snapshots`` snapshots (precision, recall, exactness,
    trimmed noise paths, log-likelihood, and the inferred / true
    congested link sets as counts + flattened ids).
    """
    kwargs = dict(task.factory_kwargs)
    congested_fraction = float(kwargs.pop("congested_fraction"))
    per_set_range = resolve_per_set_range(kwargs.pop("per_set_range"))
    n_snapshots = int(kwargs.pop("n_snapshots"))
    packets = kwargs.pop("packets_per_path")
    packets = None if packets is None else int(packets)
    loc_snapshots = int(kwargs.pop("loc_snapshots"))
    max_nodes = int(kwargs.pop("max_nodes"))
    if kwargs:
        raise ValueError(
            f"unexpected localization task parameters {sorted(kwargs)}"
        )

    scenario = make_clustered_scenario(
        instance,
        congested_fraction=congested_fraction,
        per_set_range=per_set_range,
        seed=clone_generator(task.scenario_seed),
    )
    comparison = run_comparison(
        instance.topology,
        scenario,
        config=ExperimentConfig(
            n_snapshots=n_snapshots, packets_per_path=packets
        ),
        options=options,
        seed=clone_generator(task.run_seed),
    )
    probabilities = comparison.results[
        "correlation"
    ].congestion_probabilities
    run = comparison.run

    window = min(loc_snapshots, run.observations.n_snapshots)
    precision = np.empty(window, dtype=np.float64)
    recall = np.empty(window, dtype=np.float64)
    exact = np.empty(window, dtype=np.float64)
    noise = np.empty(window, dtype=np.float64)
    log_likelihood = np.empty(window, dtype=np.float64)
    found_sets: list[frozenset[int]] = []
    true_sets: list[frozenset[int]] = []
    for snapshot in range(window):
        mask = run.observations.congested_mask_of_snapshot(snapshot)
        true_links = frozenset(
            int(link) for link in np.flatnonzero(run.link_states[snapshot])
        )
        result = localize_map(
            instance.topology,
            mask,
            probabilities,
            max_nodes=max_nodes,
            on_infeasible="trim",
        )
        precision[snapshot], recall[snapshot] = result.precision_recall(
            true_links
        )
        exact[snapshot] = float(result.exact)
        noise[snapshot] = float(bit_count(result.noise_paths))
        log_likelihood[snapshot] = float(result.log_likelihood)
        found_sets.append(result.congested_links)
        true_sets.append(true_links)

    loc_counts, loc_links = _flatten_link_sets(found_sets)
    true_counts, true_links_flat = _flatten_link_sets(true_sets)
    return {
        "probabilities": probabilities.astype(np.float64, copy=False),
        "independence_probabilities": comparison.results[
            "independence"
        ].congestion_probabilities.astype(np.float64, copy=False),
        "err_correlation": comparison.errors["correlation"],
        "err_independence": comparison.errors["independence"],
        "loc_precision": precision,
        "loc_recall": recall,
        "loc_exact": exact,
        "loc_noise_paths": noise,
        "loc_log_likelihood": log_likelihood,
        "loc_link_counts": loc_counts,
        "loc_links": loc_links,
        "true_link_counts": true_counts,
        "true_links": true_links_flat,
    }


def run_identifiability_task(instance, config, options, task) -> dict:
    """One identifiability query: Assumption-4 check + structural holes.

    Deterministic — the task seeds are ignored.  Encoded as float64
    scalars/vectors so the result rides the same transports (and cache)
    as every other trial.
    """
    kwargs = dict(task.factory_kwargs)
    max_subset_size = kwargs.pop("max_subset_size")
    max_subset_size = (
        None if max_subset_size is None else int(max_subset_size)
    )
    if kwargs:
        raise ValueError(
            f"unexpected identifiability task parameters {sorted(kwargs)}"
        )
    report = check_assumption4(
        instance.correlation, max_subset_size=max_subset_size
    )
    structural = unidentifiable_links_structural(
        instance.topology, instance.correlation
    )
    return {
        "holds": np.array([float(report.holds)]),
        "exhaustive": np.array([float(report.exhaustive)]),
        "n_collisions": np.array([float(len(report.collisions))]),
        "unidentifiable_links": np.array(
            sorted(report.unidentifiable_links), dtype=np.float64
        ),
        "structural_unidentifiable_links": np.array(
            sorted(structural), dtype=np.float64
        ),
    }
