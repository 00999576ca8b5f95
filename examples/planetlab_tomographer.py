#!/usr/bin/env python3
"""The paper's "Ongoing Work": the PlanetLab tomographer, emulated.

The paper planned to run a tomographer between PlanetLab nodes twice —
(i) assuming all links uncorrelated and (ii) assuming all links in the
same AS correlated — and compare the runs via the indirect validation
method of Padmanabhan et al. [13] (inferred link probabilities are scored
by how well they predict *held-out* path-level behaviour, since real
per-link ground truth is unobservable).

PlanetLab is not reachable from an offline reproduction, so the mesh is
synthetic (see :mod:`repro.topogen.planetlab`), but the protocol is the
planned one:
train on one measurement window, validate on another, compare variants.

Run:  python examples/planetlab_tomographer.py
"""

import numpy as np

from repro.eval import make_clustered_scenario, run_tomographer
from repro.simulate import ExperimentConfig, run_experiment
from repro.topogen import generate_planetlab
from repro.utils.tables import format_table


def main() -> None:
    instance = generate_planetlab(
        n_routers=220, n_vantages=45, n_paths=500, seed=11
    )
    print(
        f"traceroute mesh: {instance.n_links} links, "
        f"{instance.n_paths} paths, "
        f"{instance.correlation.n_sets} correlation clusters"
    )

    scenario = make_clustered_scenario(
        instance, congested_fraction=0.10, seed=12
    )
    config = ExperimentConfig(n_snapshots=1500, packets_per_path=800)
    training = run_experiment(
        instance.topology, scenario.truth_model, config=config, seed=13
    )
    holdout = run_experiment(
        instance.topology,
        scenario.truth_model,
        config=ExperimentConfig(n_snapshots=1000, packets_per_path=800),
        seed=14,
    )

    comparison = run_tomographer(
        instance.topology,
        instance.correlation,
        training.observations,
        holdout.observations,
    )

    rows = []
    for label, validation in (
        ("(i) all links uncorrelated", comparison.uncorrelated_validation),
        ("(ii) cluster-correlated", comparison.correlated_validation),
    ):
        rows.append(
            [
                label,
                validation.mean_error,
                validation.p90_error,
                validation.mean_error_correlation_free,
            ]
        )
    print(
        format_table(
            [
                "tomographer variant",
                "mean path err",
                "p90 path err",
                "mean err (corr-free paths)",
            ],
            rows,
            title=(
                "Indirect validation on "
                f"{comparison.metadata['n_holdout_snapshots']} held-out "
                "snapshots"
            ),
        )
    )

    # We also have what the real tomographer never gets: ground truth.
    truth = scenario.truth_model.link_marginals()
    rows = []
    for label, result in (
        ("(i) all links uncorrelated", comparison.uncorrelated_result),
        ("(ii) cluster-correlated", comparison.correlated_result),
    ):
        errors = np.abs(result.congestion_probabilities - truth)
        rows.append([label, float(errors.mean()), float(errors.max())])
    print(
        format_table(
            ["tomographer variant", "mean link err", "max link err"],
            rows,
            title="Ground-truth link errors (simulation-only luxury)",
        )
    )
    winner = "(ii)" if comparison.correlated_wins else "(i)"
    print(
        f"\nindirect validation prefers variant {winner} — the paper's "
        "hypothesis was that accounting for correlation helps."
    )


if __name__ == "__main__":
    main()
