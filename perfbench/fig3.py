"""Workload ``fig3_sweep``: the paper's headline figure-3 sweep.

Serial, in-process trials of ``figure3_sweep`` on the small BRITE
instance (450 links, 400 paths, 1200 snapshots, 800 packets per path,
congested fractions 0.05-0.25, high correlation), one worker, no trial
cache.  The task list is the one ``figure3_sweep`` builds for the seed,
interleaved by trial so that every prefix covers all five fractions;
each operation is one ``run_scenario_tasks`` call on one task (exactly
what the serial executor does per chunk), and the errors are pooled per
fraction afterwards as ``figure3_sweep`` pools them.

Correctness: per fraction, each algorithm's mean error must lie within
``sigmas * trial_sd / sqrt(n) + floor`` of ``fig3_reference.json``.

Regenerate the reference (only when the estimator's answers change on
purpose): ``PYTHONPATH=src python3 perfbench/fig3.py --write-reference``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import time

from common import (
    BENCH_DIR,
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

FRACTIONS = (0.05, 0.10, 0.15, 0.20, 0.25)
#: Tasks per child program: 40 trials of each fraction, far more than
#: one child reaches.  A multiple of len(FRACTIONS), so task ``i`` of
#: the whole list is always fraction ``i % len(FRACTIONS)``.
BLOCK = 200
REFERENCE_PATH = BENCH_DIR / "fig3_reference.json"
TIMED_RUNNER = "perfbench-timed-trial"


# ----------------------------------------------------------------------
# Program side (runs in a fresh interpreter via program.py)
# ----------------------------------------------------------------------
def _op_tasks(seed: int, trials: int = CHILDREN * BLOCK // len(FRACTIONS)) -> list:
    from repro.eval.figures import figure3_sweep_tasks
    from repro.eval.scenario import HIGH_CORRELATION_RANGE

    tasks = figure3_sweep_tasks(FRACTIONS, HIGH_CORRELATION_RANGE, trials, seed)
    groups = len(FRACTIONS)
    return [tasks[g * trials + t] for t in range(trials) for g in range(groups)]


def _block_tasks(spec: dict) -> list:
    start = spec["block"] * BLOCK
    return _op_tasks(spec["seed"])[start : start + BLOCK]


def _save_errors(path: str, outputs: list, offset: int) -> None:
    """Each trial's error vectors, keyed by the trial's index in the
    whole task list."""
    import numpy as np

    arrays = {
        f"{offset + index}:{name}": vector
        for index, errors in enumerate(outputs)
        if errors is not None
        for name, vector in errors.items()
    }
    np.savez(path, **arrays)


def program(spec: dict) -> dict:
    """Untraced: set up, warm up, then time trials until the deadline."""
    import repro.cli  # noqa: F401  (start-up cost belongs to set-up)
    from repro.core.prepared import PreparedRegistry
    from repro.eval.figures import default_config, default_instance
    from repro.eval.parallel import run_scenario_tasks

    instance = default_instance("brite", scale="small")
    config = default_config("small")
    registry = PreparedRegistry()
    tasks = _block_tasks(spec)

    def run(index, task):
        return run_scenario_tasks(
            instance, [task], config=config, workers=1, registry=registry
        )[0]

    run(None, tasks[0])  # warm-up: prep build and the baseline's SVD
    first_op = time.monotonic()
    latencies, outputs, failures, wall = timed_ops(
        tasks, run, seconds=spec["seconds"]
    )
    errors_path = spec["result_path"] + ".errors.npz"
    _save_errors(errors_path, outputs, spec["block"] * BLOCK)
    return {
        "first_op": first_op,
        "errors_path": errors_path,
        "latencies": latencies,
        "wall_s": wall,
        "failures": failures,
        "digests": [digest(errors) for errors in outputs],
        "peak_rss_kb": peak_rss_kb(),
    }


def _timed_trial(tracer, instance, config, options, task):
    """The engine's clustered trial, spelled through public calls."""
    from repro.eval import parallel, runner
    from repro.utils.rng import clone_generator

    with tracer.span("eval.trial"):
        scenario = parallel.SCENARIO_FACTORIES["clustered"](
            instance,
            seed=clone_generator(task.scenario_seed),
            **task.factory_kwargs,
        )
        return runner.run_comparison(
            instance.topology,
            scenario,
            config=config,
            options=options,
            seed=clone_generator(task.run_seed),
        ).errors


def traced(spec: dict) -> dict:
    """Traced replay of the untraced run's first ``n_ops`` trials."""
    from tracing import Tracer, install

    tracer = Tracer()
    with tracer.span("startup.import"):
        import repro.cli  # noqa: F401
    from repro.core.prepared import PreparedRegistry
    from repro.eval.figures import default_config, default_instance
    from repro.eval.parallel import (
        pool_errors,
        register_task_runner,
        run_scenario_tasks,
    )

    install(tracer)
    with tracer.span("topogen.generate"):
        instance = default_instance("brite", scale="small")
    config = default_config("small")
    registry = PreparedRegistry()
    registry.get_or_build(instance.topology, instance.correlation)
    register_task_runner(TIMED_RUNNER, functools.partial(_timed_trial, tracer))
    tasks = [
        dataclasses.replace(task, factory=TIMED_RUNNER)
        for task in _block_tasks(spec)
    ]

    def run(index, task):
        tracer.op = index
        with tracer.span("eval.engine"):
            return run_scenario_tasks(
                instance, [task], config=config, workers=1, registry=registry
            )[0]

    run("setup", tasks[0])
    latencies, outputs, failures, _ = timed_ops(
        tasks, run, count=spec["n_ops"]
    )
    tracer.op = "final"
    with tracer.span("eval.score"):
        pool_errors(tasks[: len(outputs)], outputs, len(FRACTIONS))
    tracer.write(spec["spans_path"])
    return {
        "latencies": latencies,
        "failures": failures,
        "digests": [digest(errors) for errors in outputs],
    }


# ----------------------------------------------------------------------
# Harness side
# ----------------------------------------------------------------------
def _load_errors(results: list) -> dict:
    import numpy as np

    per_op: dict[int, dict] = {}
    for result in results:
        with np.load(result["errors_path"]) as archive:
            for key in archive.files:
                index, name = key.split(":", 1)
                per_op.setdefault(int(index), {})[name] = archive[key]
    return per_op


def check_against_reference(outcome: Outcome, per_op: dict) -> None:
    """Per fraction and algorithm: pooled mean error vs the reference."""
    import numpy as np

    reference = json.loads(REFERENCE_PATH.read_text())
    sigmas = reference["tolerance"]["sigmas"]
    floor = reference["tolerance"]["floor"]
    for group, point in enumerate(reference["fractions"]):
        ops = sorted(i for i in per_op if i % len(FRACTIONS) == group)
        if not ops:
            continue
        for algorithm, expected in point["algorithms"].items():
            pooled = np.concatenate([per_op[i][algorithm] for i in ops])
            mean = float(pooled.mean())
            tolerance = sigmas * expected["trial_sd"] / math.sqrt(len(ops)) + floor
            if abs(mean - expected["mean"]) > tolerance:
                outcome.fail(
                    f"fraction {point['fraction']}: {algorithm} mean error "
                    f"{mean:.4f} outside {expected['mean']:.4f} "
                    f"+/- {tolerance:.4f} over {len(ops)} trials",
                    count=len(ops),
                )


def _check(outcome: Outcome, results: list, wrong: bool) -> None:
    per_op = _load_errors(results)
    for result in results:
        outcome.attempted += len(result["latencies"])
        for failure in result["failures"]:
            outcome.fail(failure)
    if wrong:  # self-test: corrupt the program's first answer
        first = min(per_op)
        per_op[first] = {name: v + 0.5 for name, v in per_op[first].items()}
    check_against_reference(outcome, per_op)


def run(args) -> Outcome:
    directory = work_dir("fig3")
    outcome = Outcome()
    if args.trace:
        return _run_traced(args, directory, outcome)
    spec = {"module": "fig3", "entry": "program", "seed": args.seed}
    results, setup_s = run_children(spec, directory, args.seconds, CHILDREN)
    _check(outcome, results, args.inject_wrong_answer)
    outcome.add_end_to_end(
        setup_s,
        max(result["peak_rss_kb"] for result in results),
        [latency for result in results for latency in result["latencies"]],
        sum(result["wall_s"] for result in results),
    )
    return outcome


def _run_traced(args, directory, outcome: Outcome) -> Outcome:
    from tracing import durations, layer_metrics, read_spans

    spec = {"module": "fig3", "seed": args.seed, "block": 0}
    result, _ = run_program(
        dict(spec, entry="program", seconds=args.seconds / 2.0),
        directory,
        "untraced",
    )
    _check(outcome, [result], args.inject_wrong_answer)
    spans_path = directory.parent / f"spans-fig3_sweep-seed{args.seed}.jsonl"
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
    traced_ops = list(durations(spans, "eval.engine").values())
    metrics["trace.overhead_pct"] = (
        (median(traced_ops) / median(result["latencies"]) - 1.0) * 100.0,
        len(traced_ops),
    )
    outcome.layers = metrics
    outcome.spans_path = spans_path
    return outcome


# ----------------------------------------------------------------------
# Reference generation
# ----------------------------------------------------------------------
def write_reference(seeds=(101, 102, 103), trials: int = 8) -> None:
    """Per-fraction mean error and per-trial spread of both algorithms."""
    import statistics

    from repro.core.prepared import PreparedRegistry
    from repro.eval.figures import default_config, default_instance
    from repro.eval.parallel import run_scenario_tasks

    instance = default_instance("brite", scale="small")
    config = default_config("small")
    registry = PreparedRegistry()
    trial_means: dict = {}
    for seed in seeds:
        tasks = _op_tasks(seed, trials)
        results = run_scenario_tasks(
            instance, tasks, config=config, workers=1, registry=registry
        )
        for task, errors in zip(tasks, results):
            for name, vector in errors.items():
                trial_means.setdefault((task.group, name), []).append(
                    float(vector.mean())
                )
    fractions = []
    for group, fraction in enumerate(FRACTIONS):
        fractions.append(
            {
                "fraction": fraction,
                "algorithms": {
                    name: {
                        "mean": statistics.mean(trial_means[(group, name)]),
                        "trial_sd": statistics.stdev(trial_means[(group, name)]),
                    }
                    for name in ("correlation", "independence")
                },
            }
        )
    reference = {
        "about": (
            "figure-3 sweep, small BRITE instance, high correlation: "
            f"{trials} trials per fraction for each of seeds {list(seeds)}"
        ),
        "tolerance": {"sigmas": 5.0, "floor": 0.004},
        "fractions": fractions,
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        sys.exit("usage: PYTHONPATH=src python3 perfbench/fig3.py --write-reference")
    write_reference()
