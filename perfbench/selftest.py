"""The benchmark's own tests: ``python3 -m pytest -q perfbench/selftest.py``.

Not collected by the repository's test suite (the file name does not
match ``test_*.py``): each workload pass spawns the program several
times and takes a few seconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from tracing import layer_metrics, read_spans  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONFIG["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload: str, *extra: str, cwd: Path = ROOT, seconds: str = "1.5"):
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", seconds, *extra,
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
        check=False,
    )
    lines = completed.stdout.strip().splitlines()
    return completed.returncode, (json.loads(lines[-1]) if lines else None), completed


def test_benchmark_json_follows_the_contract():
    assert set(CONFIG) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert CONFIG["paths"] == ["perfbench"]
    assert 1 <= CONFIG["run_seconds"] <= 60
    assert 2 <= len(CONFIG["workloads"]) <= 8
    names = [w["name"] for w in CONFIG["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in CONFIG[group]]
        for metric in CONFIG[group]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    for metric in CONFIG["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in CONFIG["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONFIG["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_reports_the_declared_metrics(workload, trace):
    code, result, completed = bench(workload, "--trace", trace)
    assert code == 0, completed.stderr[-3000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = CONFIG["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        if trace == "0":
            assert reported["value"] > 0, metric["name"]
    if trace == "1":
        assert "tracing overhead:" in completed.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_answer_fails_the_run(workload):
    code, result, completed = bench(workload, "--trace", "0", "--inject-wrong-answer")
    assert code == 1, completed.stderr[-3000:]
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "FAILED:" in completed.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    code, result, _ = bench(WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert code not in (0, None)
    assert result is None


def test_self_time_excludes_child_spans(tmp_path):
    spans = [
        {"id": 0, "parent": None, "name": "eval.engine", "op": 0, "start": 0.0, "end": 1.0},
        {"id": 1, "parent": 0, "name": "core.solve", "op": 0, "start": 0.1, "end": 0.4},
        {"id": 2, "parent": 0, "name": "core.solve", "op": 0, "start": 0.5, "end": 0.6},
        {"id": 3, "parent": None, "name": "eval.engine", "op": 1, "start": 2.0, "end": 2.5},
    ]
    path = tmp_path / "spans.jsonl"
    path.write_text("".join(json.dumps(span) + "\n" for span in spans))
    metrics = layer_metrics(read_spans(path))
    assert metrics["core.solve_ms"] == pytest.approx((400.0, 1))
    # op 0: 1.0 - 0.4 of solves = 0.6 s; op 1: 0.5 s; median 0.55 s
    assert metrics["eval.engine_overhead_ms"] == pytest.approx((550.0, 2))
