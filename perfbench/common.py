"""Plumbing shared by every perfbench workload.

Paths, the scrubbed environment the program runs under, child-process
launch, order statistics, the host fingerprint, and the result record.
Nothing here imports ``repro``: the harness imports the program only
where a workload needs it, after its own set-up clock has stopped.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"
SRC_DIR = ROOT / "src"

#: Seconds a child program may run beyond its measuring time.
CHILD_GRACE_S = 90.0
#: Fresh interpreters per untraced run; each sets up (so ``setup_s`` is
#: a median of this many) and measures its share of ``--seconds``.
CHILDREN = 5


def program_env() -> dict:
    """The environment the program runs under.

    Every ``REPRO_*`` knob (cache dir, worker count, dist hosts, chaos
    injection, stream verification) is removed, and so are the variables
    that change interpreter flags: the program always runs with default
    flags, never ``-O``, so its debug-mode checks stay on.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
        and key not in ("PYTHONOPTIMIZE", "PYTHONDEVMODE", "PYTHONINSPECT")
    }
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


def scrub_own_environment() -> None:
    """Drop the ``REPRO_*`` knobs here too, and make ``src`` importable:
    the harness imports the program to generate inputs and reference
    answers."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def work_dir(tag: str) -> Path:
    path = OUT_DIR / f"work-{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_program(spec: dict, directory: Path, name: str) -> tuple[dict, float]:
    """Run ``program.py`` on *spec* in a fresh interpreter.

    Returns the program's result and the monotonic time just before the
    launch (``time.monotonic`` is system-wide, so the child's stamps
    subtract from it directly).
    """
    spec_path = directory / f"{name}.spec.json"
    result_path = directory / f"{name}.result.json"
    spec = dict(spec, result_path=str(result_path))
    spec_path.write_text(json.dumps(spec))
    timeout = spec.get("seconds", 0) + CHILD_GRACE_S
    launched = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "program.py"), str(spec_path)],
        cwd=ROOT,
        env=program_env(),
        stdout=subprocess.DEVNULL,
    )
    try:
        code = process.wait(timeout=timeout)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0:
        raise RuntimeError(f"program child {name} exited with code {code}")
    return json.loads(result_path.read_text()), launched


def run_children(spec: dict, directory: Path, seconds: float, children: int):
    """Run the program in *children* fresh interpreters, one after the
    other, each setting up and then measuring ``seconds / children``.

    Splitting one run's measuring time across several processes
    averages out per-process effects (memory layout, a noisy neighbour
    during one start-up).  Child ``block`` gets its own slice of the
    inputs.  Returns the results and each child's set-up seconds.
    """
    results, setup_s = [], []
    for block in range(children):
        result, launched = run_program(
            dict(spec, block=block, seconds=seconds / children),
            directory,
            f"child{block}",
        )
        results.append(result)
        setup_s.append(result["first_op"] - launched)
    return results, setup_s


def timed_ops(items, call, *, seconds=None, count=None):
    """Run ``call(index, item)`` over *items* until *seconds* pass or
    *count* items ran, timing each call.

    Returns ``(latencies_s, outputs, failures, wall_s)``; a call that
    raises is a failure (its output is ``None``), never an abort.
    """
    deadline = None if seconds is None else time.monotonic() + seconds
    latencies, outputs, failures = [], [], []
    wall_start = time.perf_counter()
    for index, item in enumerate(items):
        if count is not None and index >= count:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        start = time.perf_counter()
        try:
            output = call(index, item)
        except Exception as exc:  # a failed operation, counted not fatal
            output = None
            failures.append(f"op {index}: {exc!r}")
        latencies.append(time.perf_counter() - start)
        outputs.append(output)
    return latencies, outputs, failures, time.perf_counter() - wall_start


def digest(vectors) -> str:
    """SHA-256 over a dict of arrays (names and raw bytes, in order) or
    over one array; ``None`` (a failed operation) digests to ``""``."""
    if vectors is None:
        return ""
    hasher = hashlib.sha256()
    items = vectors.items() if isinstance(vectors, dict) else [("", vectors)]
    for name, array in items:
        hasher.update(name.encode())
        hasher.update(array.dtype.str.encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def peak_rss_kb() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile: always one of the measured values."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over the program's sources; identifies the code measured
    when the checkout carries no git metadata."""
    hasher = hashlib.sha256()
    for path in sorted(SRC_DIR.rglob("*.py")):
        hasher.update(str(path.relative_to(SRC_DIR)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def host_fingerprint() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": _git_rev(),
        "source_sha256": _source_digest(),
    }


# ----------------------------------------------------------------------
# The result of one run
# ----------------------------------------------------------------------
@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, Metric] = field(default_factory=dict)
    #: Reported in the summary and the record, not in the result line.
    extra: dict[str, Metric] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    #: Traced leg only: per-layer metric -> (value, samples), and where
    #: the spans were written.
    layers: dict[str, tuple[float, int]] = field(default_factory=dict)
    spans_path: Path | None = None

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples))

    def note(self, name: str, value: float, unit: str, samples: int) -> None:
        self.extra[name] = Metric(float(value), unit, int(samples))

    def add_end_to_end(self, setup_s, rss_kb, latencies, wall_s) -> None:
        """The end-to-end metrics every workload reports."""
        n = len(latencies)
        self.add("setup_s", median(setup_s), "s", len(setup_s))
        self.add("peak_rss_mb", rss_kb / 1024.0, "MB", 1)
        self.add("ops_per_s", n / wall_s, "1/s", n)
        self.add("op_p50_ms", median(latencies) * 1e3, "ms", n)
        self.add("op_p99_ms", percentile(latencies, 99) * 1e3, "ms", n)

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
