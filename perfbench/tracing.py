"""In-memory spans around the calls into each layer of the program.

The traced leg of a workload installs :func:`install` in a fresh
interpreter: it replaces the public functions each layer exposes, at the
module attributes its callers resolve them through, with wrappers that
record one span per call.  The program's own code path runs unchanged,
so the traced replay produces the same bytes as the untraced run, and a
function a later change stops calling simply stops producing spans.

A span is ``{id, parent, name, op, start, end}``; ``op`` is the id of
the trial, query or window that caused it (``"setup"`` before the first
timed operation).  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

#: (module, attribute, span name).  Module-level functions are patched
#: where their callers look them up; methods are patched on the class.
PATCHES = (
    ("repro.eval.runner", "run_experiment", "simulate.run_experiment"),
    ("repro.predict.tasks", "run_experiment", "simulate.run_experiment"),
    ("repro.serve.queries", "make_clustered_scenario", "eval.scenario"),
    ("repro.predict.tasks", "make_clustered_scenario", "eval.scenario"),
    ("repro.eval.runner", "infer_congestion", "core.infer"),
    ("repro.predict.scenario", "infer_congestion", "core.infer"),
    ("repro.core.correlation_algorithm", "build_equations", "core.build_equations"),
    ("repro.core.streaming", "build_equations", "core.build_equations"),
    ("repro.core.correlation_algorithm", "solve", "core.solve"),
    ("repro.core.streaming", "solve", "core.solve"),
    ("repro.eval.runner", "infer_congestion_independent", "core.independence"),
    ("repro.serve.queries", "localize_map", "core.localize_map"),
    ("repro.core.prepared:PreparedRegistry", "get_or_build", "core.prepare"),
    ("repro.core.streaming:EquationTemplate", "values", "core.template_values"),
    ("repro.core.streaming:EquationTemplate", "infer", "core.template_infer"),
    ("repro.core.streaming:StreamingTomography", "update", "core.update"),
    ("repro.simulate.observations:PathObservations", "append_window", "simulate.append_window"),
    ("repro.simulate.observations:PathObservations", "evict_oldest", "simulate.evict"),
    ("repro.core.results:InferenceResult", "absolute_errors", "eval.score"),
    ("repro.predict.demand:DemandMatrix", "resolve", "predict.resolve"),
    ("repro.predict.model:CongestionModel", "predict", "predict.exceedance"),
)


def _equation_counts(system) -> dict:
    return {
        "rows": system.n_single + system.n_pair,
        "nnz": sum(len(row.link_ids) for row in system.rows),
    }


class Tracer:
    """Records nested spans on one thread (the traced legs are serial)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "op": self.op,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter() - self._origin
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def wrap(self, name: str, function, on_result=None):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = function(*args, **kwargs)
            if on_result is not None:
                record.update(on_result(result))
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every entry in :data:`PATCHES` (call once per process)."""
    for target, attribute, name in PATCHES:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        on_result = (
            _equation_counts if name == "core.build_equations" else None
        )
        setattr(
            owner,
            attribute,
            tracer.wrap(name, getattr(owner, attribute), on_result),
        )
    # The figure sweeps reach the clustered factory through the engine's
    # registry dict rather than a module attribute.
    parallel = importlib.import_module("repro.eval.parallel")
    factories = parallel.SCENARIO_FACTORIES
    factories["clustered"] = tracer.wrap("eval.scenario", factories["clustered"])


# ----------------------------------------------------------------------
# Reading a span file
# ----------------------------------------------------------------------
def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle if line.strip()]
    children = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    for span in spans:
        span["self"] = span["end"] - span["start"] - children[span["id"]]
    return spans


def per_op_self(spans: list[dict], name: str) -> dict:
    """Self time of *name* summed per operation (timed ops only)."""
    totals: dict = defaultdict(float)
    for span in spans:
        if span["name"] == name and isinstance(span["op"], int):
            totals[span["op"]] += span["self"]
    return totals


def first(spans: list[dict], name: str) -> dict | None:
    return next((span for span in spans if span["name"] == name), None)


def durations(spans: list[dict], name: str) -> dict:
    """Duration of the (one) root span *name* per timed operation."""
    return {
        span["op"]: span["end"] - span["start"]
        for span in spans
        if span["name"] == name and isinstance(span["op"], int)
    }


#: Per-operation layer metrics: the median, over the timed operations
#: that reach the layer, of the layer's summed self time in that
#: operation.  Self time excludes the layer's traced callees, so
#: ``core.verdict_ms`` (``update``) excludes the template inference and
#: ``eval.engine_overhead_ms`` excludes the trial itself.
PER_OP_METRICS = {
    "core.build_equations_ms": "core.build_equations",
    "core.solve_ms": "core.solve",
    "core.template_values_ms": "core.template_values",
    "core.verdict_ms": "core.update",
    "core.independence_ms": "core.independence",
    "core.localize_map_ms": "core.localize_map",
    "simulate.run_experiment_ms": "simulate.run_experiment",
    "simulate.append_window_ms": "simulate.append_window",
    "simulate.evict_ms": "simulate.evict",
    "eval.scenario_ms": "eval.scenario",
    "eval.score_ms": "eval.score",
    "eval.engine_overhead_ms": "eval.engine",
    "predict.resolve_ms": "predict.resolve",
    "predict.exceedance_ms": "predict.exceedance",
}

#: One-off set-up costs: the whole duration of the first such span.
FIRST_SPAN_METRICS = {
    "startup.import_s": "startup.import",
    "topogen.generate_s": "topogen.generate",
    "core.prepare_s": "core.prepare",
    "core.baseline_svd_s": "core.independence",
    "core.template_build_s": "core.template_build",
}


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, int]]:
    """Per-layer metrics as ``name -> (value, samples)``.

    A layer the workload never reaches is absent; the caller reports it
    as zero with zero samples.  Spans of op ``"final"`` (once-per-run
    work such as pooling a sweep) are spread evenly over the timed ops.
    """
    n_ops = len({span["op"] for span in spans if isinstance(span["op"], int)})
    final = defaultdict(float)
    for span in spans:
        if span["op"] == "final":
            final[span["name"]] += span["self"]
    metrics: dict[str, tuple[float, int]] = {}
    for metric, name in PER_OP_METRICS.items():
        totals = per_op_self(spans, name)
        if totals:
            value = statistics.median(totals.values()) + final[name] / n_ops
            metrics[metric] = (value * 1e3, len(totals))
    for metric, name in FIRST_SPAN_METRICS.items():
        span = first(spans, name)
        if span is not None:
            metrics[metric] = (span["end"] - span["start"], 1)
    builds = [span for span in spans if span["name"] == "core.build_equations"]
    if builds:
        metrics["core.equation_rows"] = (builds[0]["rows"], len(builds))
        metrics["core.equation_nnz"] = (builds[0]["nnz"], len(builds))
        if any(
            (span["rows"], span["nnz"]) != (builds[0]["rows"], builds[0]["nnz"])
            for span in builds
        ):
            raise ValueError("equation row/nnz counts differ between calls")
    return metrics
