"""perfbench: the repository's benchmark (see perfbench/README.md).

Usage::

    python3 perfbench/run.py --workload {fig3_sweep,serve_mixed,stream_sliding}
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced leg and reports the per-layer metrics.
A summary (every metric with its unit and sample count, the error rate
and the host fingerprint) goes to stderr and to
``perfbench/out/<workload>-seed<N>-trace<T>.json``; the last line of
stdout is the result object.  The exit code is 0 when every output was
correct, 1 when a correctness check failed, 2 when the benchmark could
not run at all (for example, no program sources next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from common import OUT_DIR, ROOT, SRC_DIR, host_fingerprint, scrub_own_environment

WORKLOADS = {
    "fig3_sweep": "fig3",
    "serve_mixed": "serve_mixed",
    "stream_sliding": "stream",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-wrong-answer",
        action="store_true",
        help="self-test: corrupt one program answer before checking it",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics() -> dict:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in config["end_to_end"]},
        1: {m["name"]: m["unit"] for m in config["per_layer"]},
    }


def result_metrics(outcome, trace: int, declared: dict) -> dict:
    """The result line's metrics, exactly the names BENCHMARK.json lists.

    In the traced leg, a layer the workload never reaches reads 0 with
    0 samples (the layer's predicted-flat case).
    """
    names = declared[trace]
    if trace:
        measured = {
            name: {"value": float(value), "unit": names[name], "samples": samples}
            for name, (value, samples) in outcome.layers.items()
        }
        for name in names:
            measured.setdefault(name, {"value": 0.0, "unit": names[name], "samples": 0})
    else:
        measured = {
            name: {"value": m.value, "unit": m.unit, "samples": m.samples}
            for name, m in outcome.metrics.items()
        }
    if set(measured) != set(names):
        raise RuntimeError(
            f"metrics {sorted(set(measured) ^ set(names))} disagree with BENCHMARK.json"
        )
    return {name: measured[name] for name in names}


def report(args, outcome, metrics: dict) -> None:
    extra = {
        name: {"value": m.value, "unit": m.unit, "samples": m.samples}
        for name, m in outcome.extra.items()
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "error_rate": outcome.error_rate,
        "problems": outcome.problems[:20],
        "metrics": metrics,
        "workload_metrics": extra,
        "spans": None if outcome.spans_path is None else str(outcome.spans_path),
    }
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}"]
    for name, metric in {**metrics, **extra}.items():
        lines.append(
            f"  {name:32s} {metric['value']:14.6f} {metric['unit']:6s} "
            f"n={metric['samples']}"
        )
    lines.append(
        f"  {'error_rate':32s} {outcome.error_rate:14.6f} {'':6s} "
        f"n={outcome.attempted}"
    )
    if args.trace and "trace.overhead_pct" in metrics:
        lines.append(
            f"  tracing overhead: {metrics['trace.overhead_pct']['value']:+.2f}% "
            "(traced vs untraced median operation)"
        )
    for problem in outcome.problems[:20]:
        lines.append(f"  FAILED: {problem}")
    lines.append(f"  host: {json.dumps(record['host'])}")
    lines.append(f"  record: {path}")
    print("\n".join(lines), file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "repro" / "cli.py").is_file():
        print(f"perfbench: no program sources under {SRC_DIR}", file=sys.stderr)
        return 2
    scrub_own_environment()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    declared = declared_metrics()
    module = __import__(WORKLOADS[args.workload])
    try:
        outcome = module.run(args)
    finally:
        for work in OUT_DIR.glob(f"work-*-{os.getpid()}"):
            shutil.rmtree(work, ignore_errors=True)
    metrics = result_metrics(outcome, args.trace, declared)
    report(args, outcome, metrics)
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()
                },
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
