"""Per-figure experiment drivers (paper Section 5, Figures 3–5).

Each driver regenerates the data series behind one paper figure:

* :func:`figure3_sweep` — mean and 90th-percentile absolute error versus
  the fraction of congested links (Figures 3(a) and 3(b));
* :func:`figure3_cdf` — error CDF at a fixed congestion level, under
  high or loose correlation (Figures 3(c) and 3(d));
* :func:`figure4_cdf` — error CDF with 25%/50% of the congested links
  unidentifiable, on Brite or PlanetLab instances (Figure 4);
* :func:`figure5_cdf` — error CDF with 25%/50% of the congested links
  mislabeled by an unknown correlation pattern (Figure 5).

``scale="small"`` (default) runs laptop-size instances in seconds;
``scale="medium"`` and ``scale="paper"`` approach the paper's 1500-path
setups.  The *shape* of the results — the correlation algorithm beating
the independence algorithm, errors growing with congestion for the
baseline only — is preserved across scales.

Every driver accepts ``workers``: trials (and, for the sweep, whole
x-axis points) fan out through the scenario engine in
:mod:`repro.eval.parallel`.  Child seeds are spawned before dispatch, so
any worker count reproduces the serial results exactly.  ``executor``
overrides the backend outright — pass a
:class:`repro.eval.dist.RemoteExecutor` to fan the same task list out
across hosts, still bit-identical to the serial run.

Every driver also accepts ``cache`` (a
:class:`repro.eval.cache.TrialCache`): trials whose inputs are already
stored load from disk instead of executing, making repeated figure
regenerations and overlapping sweeps incremental.  Cached and
recomputed runs are bit-identical at a fixed seed.

``registry`` (a :class:`repro.core.prepared.PreparedRegistry`) scopes
where the measurement-independent equation prep is cached for
in-process execution — resident callers (the service layer) pass their
own registry so batch sweeps and service queries share warmed prep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.correlation_algorithm import AlgorithmOptions
from repro.core.prepared import PreparedRegistry
from repro.eval.metrics import (
    DEFAULT_CDF_GRID,
    ErrorStats,
    absolute_error_stats,
    error_cdf,
)
from repro.eval.parallel import (
    pool_errors,
    run_scenario_tasks,
    scenario_tasks,
)
from repro.eval.scenario import (
    HIGH_CORRELATION_RANGE,
    LOOSE_CORRELATION_RANGE,
)
from repro.simulate.experiment import ExperimentConfig
from repro.topogen.brite import generate_brite
from repro.topogen.instance import TomographyInstance
from repro.topogen.planetlab import generate_planetlab
from repro.utils.rng import spawn_children

__all__ = [
    "SCALES",
    "default_instance",
    "default_config",
    "SweepPoint",
    "SweepResult",
    "CdfResult",
    "figure3_sweep",
    "figure3_sweep_tasks",
    "figure3_cdf",
    "figure4_cdf",
    "figure5_cdf",
]

#: Instance/simulation sizes.  "paper" matches the reported 1500 paths
#: (Brite) and ~2000 links / 1500 paths (PlanetLab).
SCALES: dict[str, dict] = {
    "small": {
        "brite": dict(n_ases=150, routers_per_as=5, n_paths=400),
        "planetlab": dict(n_routers=200, n_vantages=50, n_paths=600),
        "n_snapshots": 1200,
        "packets_per_path": 800,
    },
    "medium": {
        "brite": dict(n_ases=250, routers_per_as=6, n_paths=800),
        "planetlab": dict(n_routers=400, n_vantages=60, n_paths=1000),
        "n_snapshots": 2000,
        "packets_per_path": 1000,
    },
    "paper": {
        "brite": dict(n_ases=500, routers_per_as=8, n_paths=1500),
        "planetlab": dict(n_routers=900, n_vantages=80, n_paths=1500),
        "n_snapshots": 2000,
        "packets_per_path": 1000,
    },
}


def default_instance(
    topology: str = "brite",
    *,
    scale: str = "small",
    seed=0,
) -> TomographyInstance:
    """Generate the standard evaluation instance for a figure."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; pick from {sorted(SCALES)}")
    params = SCALES[scale]
    if topology == "brite":
        return generate_brite(seed=seed, **params["brite"]).instance
    if topology == "planetlab":
        return generate_planetlab(seed=seed, **params["planetlab"])
    raise ValueError(
        f"topology must be 'brite' or 'planetlab', got {topology!r}"
    )


def default_config(scale: str = "small") -> ExperimentConfig:
    """Simulation parameters matching a scale preset."""
    params = SCALES[scale]
    return ExperimentConfig(
        n_snapshots=params["n_snapshots"],
        packets_per_path=params["packets_per_path"],
    )


# ----------------------------------------------------------------------
# Result containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One x-axis point of Figures 3(a,b)."""

    congested_fraction: float
    correlation: ErrorStats
    independence: ErrorStats


@dataclass(frozen=True)
class SweepResult:
    """The Figure 3(a,b) series."""

    points: tuple[SweepPoint, ...]
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CdfResult:
    """One CDF panel (Figures 3(c,d), 4(a–d), 5(a–d))."""

    label: str
    grid: np.ndarray
    curves: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def _pooled_errors(
    instance: TomographyInstance,
    factory: str,
    factory_kwargs: dict,
    *,
    config: ExperimentConfig,
    options: AlgorithmOptions | None,
    n_trials: int,
    seed,
    workers: int | None = None,
    cache=None,
    executor=None,
    journal=None,
    registry: PreparedRegistry | None = None,
) -> dict[str, np.ndarray]:
    """Run ``n_trials`` experiments, pooling per-link errors."""
    tasks = scenario_tasks(
        factory, factory_kwargs, n_trials=n_trials, seed=seed
    )
    results = run_scenario_tasks(
        instance,
        tasks,
        config=config,
        options=options,
        workers=workers,
        cache=cache,
        executor=executor,
        journal=journal,
        registry=registry,
    )
    return pool_errors(tasks, results, 1)[0]


def _cdf_curves(
    errors: dict[str, np.ndarray], grid: np.ndarray
) -> dict[str, np.ndarray]:
    """Per-algorithm CDF values on the grid, vectorised.

    Delegates to :func:`repro.eval.metrics.error_cdf` (sort +
    ``searchsorted``), avoiding the ``grid × errors`` broadcast
    temporary of the historical form while producing identical values.
    """
    return {name: error_cdf(e, grid)[1] for name, e in errors.items()}


def figure3_sweep_tasks(
    fractions,
    per_set_range,
    n_trials: int,
    seed,
) -> list:
    """The figure-3 sweep's task list: one group per congested fraction.

    Shared by :func:`figure3_sweep` and the benchmarks that must replay
    the *exact* same workload (spawn layout, kwargs, grouping) through
    alternative execution paths.
    """
    sweep_rngs = spawn_children(seed, len(fractions))
    tasks = []
    for group, (fraction, rng) in enumerate(zip(fractions, sweep_rngs)):
        tasks.extend(
            scenario_tasks(
                "clustered",
                dict(
                    congested_fraction=fraction,
                    per_set_range=per_set_range,
                ),
                n_trials=n_trials,
                seed=rng,
                group=group,
            )
        )
    return tasks


def figure3_sweep(
    instance: TomographyInstance | None = None,
    *,
    fractions=(0.05, 0.10, 0.15, 0.20, 0.25),
    per_set_range=HIGH_CORRELATION_RANGE,
    scale: str = "small",
    n_trials: int = 1,
    config: ExperimentConfig | None = None,
    options: AlgorithmOptions | None = None,
    seed=0,
    workers: int | None = None,
    cache=None,
    executor=None,
    journal=None,
    registry: PreparedRegistry | None = None,
) -> SweepResult:
    """Figures 3(a) and 3(b): error statistics vs congested fraction.

    The whole sweep — every ``(fraction, trial)`` pair — is flattened
    into one task list before dispatch, so parallelism spans x-axis
    points as well as trials.  ``journal`` (a
    :class:`repro.eval.dist.journal.SweepJournal`) makes settled chunks
    crash-durable and resumable.
    """
    instance = instance or default_instance("brite", scale=scale, seed=seed)
    config = config or default_config(scale)
    tasks = figure3_sweep_tasks(fractions, per_set_range, n_trials, seed)
    results = run_scenario_tasks(
        instance,
        tasks,
        config=config,
        options=options,
        workers=workers,
        cache=cache,
        executor=executor,
        journal=journal,
        registry=registry,
    )
    pooled = pool_errors(tasks, results, len(fractions))
    points = [
        SweepPoint(
            congested_fraction=fraction,
            correlation=absolute_error_stats(errors["correlation"]),
            independence=absolute_error_stats(errors["independence"]),
        )
        for fraction, errors in zip(fractions, pooled)
    ]
    return SweepResult(
        points=tuple(points),
        metadata={
            "per_set_range": per_set_range,
            "scale": scale,
            "n_trials": n_trials,
            "n_links": instance.n_links,
            "n_paths": instance.n_paths,
        },
    )


def figure3_cdf(
    instance: TomographyInstance | None = None,
    *,
    correlation_level: str = "high",
    congested_fraction: float = 0.10,
    scale: str = "small",
    n_trials: int = 1,
    config: ExperimentConfig | None = None,
    options: AlgorithmOptions | None = None,
    grid=DEFAULT_CDF_GRID,
    seed=0,
    workers: int | None = None,
    cache=None,
    executor=None,
    journal=None,
    registry: PreparedRegistry | None = None,
) -> CdfResult:
    """Figure 3(c) (``correlation_level="high"``) / 3(d) (``"loose"``)."""
    if correlation_level == "high":
        per_set_range = HIGH_CORRELATION_RANGE
    elif correlation_level == "loose":
        per_set_range = LOOSE_CORRELATION_RANGE
    else:
        raise ValueError(
            f"correlation_level must be 'high' or 'loose', got "
            f"{correlation_level!r}"
        )
    instance = instance or default_instance("brite", scale=scale, seed=seed)
    config = config or default_config(scale)
    errors = _pooled_errors(
        instance,
        "clustered",
        dict(
            congested_fraction=congested_fraction,
            per_set_range=per_set_range,
        ),
        config=config,
        options=options,
        n_trials=n_trials,
        seed=seed,
        workers=workers,
        cache=cache,
        executor=executor,
        journal=journal,
        registry=registry,
    )
    grid = np.asarray(grid, dtype=np.float64)
    curves = _cdf_curves(errors, grid)
    return CdfResult(
        label=f"fig3-{correlation_level}",
        grid=grid,
        curves=curves,
        metadata={
            "correlation_level": correlation_level,
            "congested_fraction": congested_fraction,
            "scale": scale,
            "n_trials": n_trials,
            "n_scored": {k: int(v.size) for k, v in errors.items()},
        },
    )


def figure4_cdf(
    instance: TomographyInstance | None = None,
    *,
    topology: str = "brite",
    unidentifiable_fraction: float = 0.25,
    congested_fraction: float = 0.10,
    scale: str = "small",
    n_trials: int = 1,
    config: ExperimentConfig | None = None,
    options: AlgorithmOptions | None = None,
    grid=DEFAULT_CDF_GRID,
    seed=0,
    workers: int | None = None,
    cache=None,
    executor=None,
    journal=None,
    registry: PreparedRegistry | None = None,
) -> CdfResult:
    """Figure 4: CDFs with a fraction of congested links unidentifiable."""
    instance = instance or default_instance(topology, scale=scale, seed=seed)
    config = config or default_config(scale)
    errors = _pooled_errors(
        instance,
        "unidentifiable",
        dict(
            congested_fraction=congested_fraction,
            unidentifiable_fraction=unidentifiable_fraction,
        ),
        config=config,
        options=options,
        n_trials=n_trials,
        seed=seed,
        workers=workers,
        cache=cache,
        executor=executor,
        journal=journal,
        registry=registry,
    )
    grid = np.asarray(grid, dtype=np.float64)
    curves = _cdf_curves(errors, grid)
    return CdfResult(
        label=f"fig4-{topology}-{unidentifiable_fraction:.0%}",
        grid=grid,
        curves=curves,
        metadata={
            "topology": topology,
            "unidentifiable_fraction": unidentifiable_fraction,
            "congested_fraction": congested_fraction,
            "scale": scale,
            "n_trials": n_trials,
        },
    )


def figure5_cdf(
    instance: TomographyInstance | None = None,
    *,
    topology: str = "brite",
    mislabeled_fraction: float = 0.25,
    congested_fraction: float = 0.10,
    scale: str = "small",
    n_trials: int = 1,
    config: ExperimentConfig | None = None,
    options: AlgorithmOptions | None = None,
    grid=DEFAULT_CDF_GRID,
    seed=0,
    workers: int | None = None,
    cache=None,
    executor=None,
    journal=None,
    registry: PreparedRegistry | None = None,
) -> CdfResult:
    """Figure 5: CDFs with a fraction of congested links mislabeled."""
    instance = instance or default_instance(topology, scale=scale, seed=seed)
    config = config or default_config(scale)
    errors = _pooled_errors(
        instance,
        "mislabeled",
        dict(
            congested_fraction=congested_fraction,
            mislabeled_fraction=mislabeled_fraction,
        ),
        config=config,
        options=options,
        n_trials=n_trials,
        seed=seed,
        workers=workers,
        cache=cache,
        executor=executor,
        journal=journal,
        registry=registry,
    )
    grid = np.asarray(grid, dtype=np.float64)
    curves = _cdf_curves(errors, grid)
    return CdfResult(
        label=f"fig5-{topology}-{mislabeled_fraction:.0%}",
        grid=grid,
        curves=curves,
        metadata={
            "topology": topology,
            "mislabeled_fraction": mislabeled_fraction,
            "congested_fraction": congested_fraction,
            "scale": scale,
            "n_trials": n_trials,
        },
    )
