"""Incremental per-window update vs full recompute (the PR-9 headline).

Measures the thing the streaming engine exists for: once a window
stream is flowing, updating the estimate for one new window costs an
O(window) Gram accumulation, a y-vector gather over the cached equation
structure, and one solve — while a full recompute rebuilds the
observation caches (Gram, packed rows, log tables) over the *entire*
history and re-runs equation selection before the same solve.  The gap
therefore widens with history length; the gate is taken at >= 20
windows of history, per the streaming engine's contract.

Two legs over the same simulated window stream (scripted scenario,
fixed seeds):

* **incremental** — ``PathObservations.append_window`` +
  ``StreamingTomography.update`` per window, equation structure and
  prepared state warm;
* **recompute** — ``PathObservations`` over the concatenated history +
  ``build_equations`` over it (equation selection and every candidate
  value re-derived) + the same solve per window, against the same warm
  prepared registry (so the comparison isolates the streaming
  machinery, not prep caching).  ``infer_congestion`` would not do:
  it solves on the prepared topology's cached template.

Bit-identity is always enforced: after the last window, the streaming
engine's full-history answer must equal the last recompute (a full
rebuild over the same snapshots) byte for byte.

The headline gate::

    python benchmarks/bench_stream.py --require-speedup 5

asserts ``recompute mean / incremental mean >= 5`` over the gated
windows.  ``--quick`` is the CI smoke mode (shorter windows, gate 2x by
default).  Every run appends a record to ``BENCH_stream.json`` (see
``benchmarks/bench_util.py``).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

from bench_util import write_bench_json

PROFILES = {
    "quick": {
        "generator": {
            "kind": "brite",
            "n_ases": 20,
            "routers_per_as": 3,
            "n_paths": 60,
            "seed": 7,
        },
        "n_windows": 24,
        "window_size": 1500,
        "history_windows": 20,
        "packets_per_path": 400,
        "default_gate": 2.0,
    },
    "full": {
        "generator": {
            "kind": "brite",
            "n_ases": 20,
            "routers_per_as": 3,
            "n_paths": 60,
            "seed": 7,
        },
        "n_windows": 30,
        "window_size": 5000,
        "history_windows": 20,
        "packets_per_path": 400,
        "default_gate": 5.0,
    },
}

SCENARIO_SEED = 11


def _simulate_windows(instance, profile):
    from repro.eval.scenario import make_clustered_scenario
    from repro.model.loss import LossModel
    from repro.simulate.probes import PathProber, ProbeConfig
    from repro.simulate.stream import SnapshotStream
    from repro.utils.rng import spawn_children

    scenario_seed, stream_seed = spawn_children(SCENARIO_SEED, 2)
    scenario = make_clustered_scenario(instance, seed=scenario_seed)
    stream = SnapshotStream(
        scenario.truth_model,
        LossModel(),
        PathProber(
            instance.topology,
            ProbeConfig(packets_per_path=profile["packets_per_path"]),
        ),
        window_size=profile["window_size"],
        rng=stream_seed,
    )
    return [
        window.path_states
        for window in stream.windows(profile["n_windows"])
    ]


def run_benchmark(profile):
    from repro.core.prepared import PreparedRegistry
    from repro.core.equations import build_equations
    from repro.core.solvers import solve
    from repro.core.streaming import StreamingTomography
    from repro.serve.registry import instance_from_payload
    from repro.simulate.observations import PathObservations

    instance = instance_from_payload(
        {"generator": profile["generator"]}
    )
    print(
        f"simulating {profile['n_windows']} windows x "
        f"{profile['window_size']} snapshots "
        f"({instance.topology.n_paths} paths) ...",
        flush=True,
    )
    windows = _simulate_windows(instance, profile)
    history = profile["history_windows"]

    # Both legs share one warm prepared registry: the comparison is
    # streaming machinery vs observation/equation rebuild, not prep.
    registry = PreparedRegistry()
    engine = StreamingTomography(
        instance.topology, instance.correlation, registry=registry
    )

    incremental_s = []
    observations = None
    for index, window in enumerate(windows):
        start = time.perf_counter()
        if observations is None:
            observations = PathObservations(window)
        else:
            observations.append_window(window)
        engine.update(observations)
        elapsed = time.perf_counter() - start
        if index >= history:
            incremental_s.append(elapsed)

    recompute_s = []
    for index in range(history, len(windows)):
        start = time.perf_counter()
        full = PathObservations(
            np.concatenate(windows[: index + 1], axis=0)
        )
        system = build_equations(
            instance.topology, instance.correlation, full, registry=registry
        )
        solution, _ = solve(*system.sparse_matrix())
        recompute_s.append(time.perf_counter() - start)

    # Bit-identity: the streaming engine's full-history answer must be
    # byte-equal to the last recompute, a full rebuild over the same
    # snapshots.
    streamed = engine.template().infer(observations)
    rebuilt = np.minimum(solution, 0.0)
    if streamed.log_good.tobytes() != rebuilt.tobytes():
        raise SystemExit(
            "FAIL: streaming full-history answer differs from the "
            "full rebuild — the incremental state has diverged"
        )
    print("bit-identity: streaming final == full rebuild (byte-equal)")

    return {
        "incremental_mean_s": statistics.mean(incremental_s),
        "incremental_p50_s": statistics.median(incremental_s),
        "recompute_mean_s": statistics.mean(recompute_s),
        "recompute_p50_s": statistics.median(recompute_s),
        "gated_windows": len(incremental_s),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "benchmark the incremental windowed engine against full "
            "per-window recompute"
        )
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: shorter windows, default gate 2x",
    )
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=None,
        metavar="X",
        help=(
            "fail unless recompute mean / incremental mean >= X "
            "(default: 5 full, 2 --quick)"
        ),
    )
    args = parser.parse_args(argv)
    name = "quick" if args.quick else "full"
    profile = PROFILES[name]
    gate = (
        args.require_speedup
        if args.require_speedup is not None
        else profile["default_gate"]
    )

    measured = run_benchmark(profile)
    speedup = (
        measured["recompute_mean_s"] / measured["incremental_mean_s"]
    )
    print(
        f"incremental per-window update: "
        f"{measured['incremental_mean_s'] * 1000:.2f} ms mean "
        f"(p50 {measured['incremental_p50_s'] * 1000:.2f} ms) over "
        f"{measured['gated_windows']} windows at >= "
        f"{profile['history_windows']}-window history"
    )
    print(
        f"full recompute:                "
        f"{measured['recompute_mean_s'] * 1000:.2f} ms mean "
        f"(p50 {measured['recompute_p50_s'] * 1000:.2f} ms)"
    )
    print(f"speedup: {speedup:.1f}x (gate: >= {gate:.1f}x)")

    gated_windows = measured.pop("gated_windows")
    path = write_bench_json(
        "stream",
        params={
            "profile": name,
            "generator": profile["generator"],
            "n_windows": profile["n_windows"],
            "window_size": profile["window_size"],
            "history_windows": profile["history_windows"],
            "gated_windows": gated_windows,
            "gate": gate,
        },
        timings_s=measured,
        ratios={"incremental_speedup": speedup},
    )
    print(f"recorded -> {path}")

    if speedup < gate:
        print(
            f"FAIL: incremental speedup {speedup:.1f}x below the "
            f"{gate:.1f}x gate",
            file=sys.stderr,
        )
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
