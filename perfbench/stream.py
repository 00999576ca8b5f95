"""Workload ``stream_sliding``: the streaming engine on a sliding window.

``StreamingTomography.update`` over pre-generated 200-snapshot windows
on the small BRITE instance, with ``PathObservations(max_window=4000)``.
Set-up fills the 20-window history, so every timed window's
``append_window`` also evicts the oldest 200 snapshots.  The harness
simulates ``N_DISTINCT`` windows from the seed before anything is timed
(under a second with the batch simulator, so nothing is cached between
runs) and the program cycles through them.

One operation is ``append_window`` (with its eviction) plus ``update``.
Correctness: the last window's probabilities must be byte-equal to
``infer_congestion`` over ``PathObservations`` built from the retained
snapshots.
"""

from __future__ import annotations

import time

from common import (
    CHILDREN,
    Outcome,
    digest,
    median,
    peak_rss_kb,
    run_children,
    run_program,
    timed_ops,
    work_dir,
)

WINDOW = 200
MAX_WINDOW = 4000
HISTORY = MAX_WINDOW // WINDOW
N_DISTINCT = 50
#: Op list length; far more windows than any run reaches.
MAX_OPS = 20_000
CONGESTED_FRACTION = 0.10


def window_index(op: int) -> int:
    """Which distinct window the op-th window (0-based, fill included) is."""
    return op % N_DISTINCT


# ----------------------------------------------------------------------
# Program side (runs in a fresh interpreter via program.py)
# ----------------------------------------------------------------------
def _stream(spec: dict, tracer=None):
    """Shared by both legs: set up, fill the history, return the state."""
    import numpy as np

    from repro.core.prepared import PreparedRegistry
    from repro.core.streaming import StreamingTomography
    from repro.eval.figures import default_instance
    from repro.simulate.observations import PathObservations

    windows = np.load(spec["windows_path"])
    if tracer is None:
        instance = default_instance("brite", scale="small")
    else:
        with tracer.span("topogen.generate"):
            instance = default_instance("brite", scale="small")
    engine = StreamingTomography(
        instance.topology, instance.correlation, registry=PreparedRegistry()
    )
    engine.prepare()
    if tracer is None:
        engine.template()
    else:
        with tracer.span("core.template_build"):
            engine.template()
    observations = PathObservations(windows[0], max_window=MAX_WINDOW)
    engine.update(observations)
    for op in range(1, HISTORY):
        observations.append_window(windows[window_index(op)])
        engine.update(observations)
    return windows, engine, observations


def program(spec: dict) -> dict:
    """Untraced: set up, then time windows until the deadline."""
    import repro.cli  # noqa: F401  (start-up cost belongs to set-up)

    windows, engine, observations = _stream(spec)
    first_op = time.monotonic()

    def step(index, op):
        observations.append_window(windows[window_index(op)])
        return engine.update(observations).probabilities

    ops = range(HISTORY, MAX_OPS)
    latencies, outputs, failures, wall = timed_ops(
        ops, step, seconds=spec["seconds"]
    )
    final = next((p for p in reversed(outputs) if p is not None), None)
    return {
        "first_op": first_op,
        "latencies": latencies,
        "wall_s": wall,
        "failures": failures,
        "digests": [digest(p) for p in outputs],
        "final_probabilities": "" if final is None else final.tobytes().hex(),
        "n_windows": HISTORY + len(outputs),
        "peak_rss_kb": peak_rss_kb(),
    }


def traced(spec: dict) -> dict:
    """Traced replay of the untraced run's first ``n_ops`` windows."""
    from tracing import Tracer, install

    tracer = Tracer()
    with tracer.span("startup.import"):
        import repro.cli  # noqa: F401
    install(tracer)
    windows, engine, observations = _stream(spec, tracer)

    def step(index, op):
        tracer.op = index
        with tracer.span("stream.window"):
            observations.append_window(windows[window_index(op)])
            return engine.update(observations).probabilities

    latencies, outputs, failures, _ = timed_ops(
        range(HISTORY, MAX_OPS), step, count=spec["n_ops"]
    )
    tracer.write(spec["spans_path"])
    return {
        "latencies": latencies,
        "failures": failures,
        "digests": [digest(p) for p in outputs],
    }


# ----------------------------------------------------------------------
# Harness side
# ----------------------------------------------------------------------
def generate_windows(seed: int, path) -> None:
    """Simulate the seeded window stream (excluded from every timing)."""
    import numpy as np

    from repro.eval.figures import default_instance
    from repro.eval.scenario import make_clustered_scenario
    from repro.simulate.experiment import ExperimentConfig, run_experiment
    from repro.utils.rng import spawn_children

    instance = default_instance("brite", scale="small")
    scenario_seed, run_seed = spawn_children(seed, 2)
    scenario = make_clustered_scenario(
        instance, congested_fraction=CONGESTED_FRACTION, seed=scenario_seed
    )
    run = run_experiment(
        instance.topology,
        scenario.truth_model,
        config=ExperimentConfig(
            n_snapshots=N_DISTINCT * WINDOW, packets_per_path=800
        ),
        seed=run_seed,
    )
    states = np.ascontiguousarray(run.observations.path_states)
    np.save(path, states.reshape(N_DISTINCT, WINDOW, -1))


def check_final(outcome: Outcome, result: dict, windows_path, wrong: bool) -> None:
    """Final window vs batch inference over the retained snapshots."""
    import numpy as np

    from repro.core.correlation_algorithm import infer_congestion
    from repro.eval.figures import default_instance
    from repro.simulate.observations import PathObservations

    windows = np.load(windows_path)
    n_windows = result["n_windows"]
    retained = np.concatenate(
        [
            windows[window_index(op)]
            for op in range(n_windows - HISTORY, n_windows)
        ]
    )
    instance = default_instance("brite", scale="small")
    batch = infer_congestion(
        instance.topology, instance.correlation, PathObservations(retained)
    ).congestion_probabilities
    streamed = bytes.fromhex(result["final_probabilities"])
    if wrong:  # self-test: corrupt the program's answer
        streamed = bytes([streamed[0] ^ 1]) + streamed[1:]
    if streamed != batch.tobytes():
        outcome.fail("final window differs from batch inference over the retained snapshots")


def _check(outcome, result, windows_path, wrong) -> None:
    outcome.attempted += len(result["latencies"])
    for failure in result["failures"]:
        outcome.fail(failure)
    check_final(outcome, result, windows_path, wrong)


def run(args) -> Outcome:
    directory = work_dir("stream")
    windows_path = directory / "windows.npy"
    generate_windows(args.seed, windows_path)
    outcome = Outcome()
    spec = {"module": "stream", "entry": "program", "windows_path": str(windows_path)}
    if args.trace:
        return _run_traced(args, spec, directory, windows_path, outcome)
    results, setup_s = run_children(spec, directory, args.seconds, CHILDREN)
    for block, result in enumerate(results):
        _check(outcome, result, windows_path, args.inject_wrong_answer and block == 0)
    outcome.add_end_to_end(
        setup_s,
        max(result["peak_rss_kb"] for result in results),
        [latency for result in results for latency in result["latencies"]],
        sum(result["wall_s"] for result in results),
    )
    return outcome


def _run_traced(args, spec, directory, windows_path, outcome: Outcome) -> Outcome:
    from tracing import durations, layer_metrics, read_spans

    result, _ = run_program(
        dict(spec, seconds=args.seconds / 2.0), directory, "untraced"
    )
    _check(outcome, result, windows_path, args.inject_wrong_answer)
    spans_path = directory.parent / f"spans-stream_sliding-seed{args.seed}.jsonl"
    replay, _ = run_program(
        dict(
            spec,
            entry="traced",
            n_ops=len(result["latencies"]),
            spans_path=str(spans_path),
        ),
        directory,
        "traced",
    )
    if replay["digests"] != result["digests"]:
        outcome.fail("traced replay is not byte-identical to the untraced run")
    spans = read_spans(spans_path)
    metrics = layer_metrics(spans)
    traced_ops = list(durations(spans, "stream.window").values())
    metrics["trace.overhead_pct"] = (
        (median(traced_ops) / median(result["latencies"]) - 1.0) * 100.0,
        len(traced_ops),
    )
    outcome.layers = metrics
    outcome.spans_path = spans_path
    return outcome
