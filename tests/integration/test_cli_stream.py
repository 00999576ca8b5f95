"""The ``stream`` subcommand: parsing, sources, and the bit-identity
anchor (incremental final line == batch final line)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import _version_string, build_parser, main
from repro.utils.rng import as_generator

SMALL_GENERATOR = json.dumps(
    {
        "kind": "brite",
        "n_ases": 12,
        "routers_per_as": 3,
        "n_paths": 30,
        "seed": 7,
    }
)


def write_windows(path, n_windows=6, rows=15, n_paths=30, seed=0):
    rng = as_generator(seed)
    with open(path, "w", encoding="utf-8") as handle:
        for _ in range(n_windows):
            window = (rng.random((rows, n_paths)) < 0.3).astype(int)
            handle.write(json.dumps(window.tolist()) + "\n")
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines()


class TestParser:
    def test_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream"])

    def test_sources_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["stream", "--windows", "w.jsonl", "--simulate"]
            )

    def test_defaults(self):
        args = build_parser().parse_args(["stream", "--simulate"])
        assert args.mode == "incremental"
        assert args.threshold == 0.5
        assert args.max_window is None
        assert args.n_windows == 10
        assert args.window_size == 50

    @pytest.mark.parametrize(
        "flags",
        [
            ["--threshold", "1.5"],
            ["--max-window", "0"],
            ["--n-windows", "0"],
            ["--window-size", "-1"],
        ],
    )
    def test_rejects_out_of_range_flags(self, flags):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--simulate"] + flags)

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == _version_string()
        assert "repro-tomography" in out
        assert "wire protocol v" in out
        assert "journal format v" in out


class TestStreamRun:
    def test_batch_rejects_max_window(self, capsys, tmp_path):
        windows = write_windows(tmp_path / "w.jsonl")
        with pytest.raises(SystemExit, match="max-window"):
            main(
                [
                    "stream",
                    "--windows",
                    str(windows),
                    "--mode",
                    "batch",
                    "--max-window",
                    "5",
                    "--generator",
                    SMALL_GENERATOR,
                ]
            )

    def test_rejects_invalid_jsonl(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good_row = json.dumps([[0] * 30])
        path.write_text(f"{good_row}\nnot json\n", encoding="utf-8")
        with pytest.raises(SystemExit, match="line 2"):
            main(
                [
                    "stream",
                    "--windows",
                    str(path),
                    "--generator",
                    SMALL_GENERATOR,
                ]
            )

    def test_rejects_window_with_wrong_path_count(self, tmp_path):
        path = tmp_path / "ragged.jsonl"
        path.write_text("[[0, 1, 1]]\n", encoding="utf-8")
        with pytest.raises(SystemExit, match="window 1"):
            main(
                [
                    "stream",
                    "--windows",
                    str(path),
                    "--generator",
                    SMALL_GENERATOR,
                ]
            )

    @pytest.mark.parametrize("value", ['"a"', "2", "-1", "0.5", "1e300"])
    def test_rejects_verdicts_other_than_0_1(self, tmp_path, value):
        path = tmp_path / "values.jsonl"
        good = json.dumps([[0] * 30])
        bad = "[[" + ", ".join(["1"] * 29 + [value]) + "]]"
        path.write_text(f"{good}\n{bad}\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "stream",
                    "--windows",
                    str(path),
                    "--generator",
                    SMALL_GENERATOR,
                ]
            )
        assert str(excinfo.value.code) == (
            "error: window 2: window verdicts must be 0/1 or true/false"
        )

    def test_rejects_empty_source(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        for mode in ("incremental", "batch"):
            with pytest.raises(SystemExit, match="empty"):
                main(
                    [
                        "stream",
                        "--windows",
                        str(path),
                        "--mode",
                        mode,
                        "--generator",
                        SMALL_GENERATOR,
                    ]
                )

    def test_incremental_final_is_bit_identical_to_batch(
        self, capsys, tmp_path
    ):
        """The PR's correctness anchor, exercised end to end through
        the CLI: the last incremental line equals the batch line,
        byte for byte."""
        windows = write_windows(tmp_path / "w.jsonl", seed=5)
        code, lines = run_cli(
            capsys,
            "stream",
            "--windows",
            str(windows),
            "--generator",
            SMALL_GENERATOR,
        )
        assert code == 0
        assert len(lines) == 7  # 6 deltas + final
        code, batch_lines = run_cli(
            capsys,
            "stream",
            "--windows",
            str(windows),
            "--mode",
            "batch",
            "--generator",
            SMALL_GENERATOR,
        )
        assert code == 0
        assert len(batch_lines) == 1
        assert lines[-1] == batch_lines[0]
        final = json.loads(lines[-1])
        assert final["n_snapshots"] == 90
        assert final["n_evicted"] == 0
        assert len(final["result"]["probabilities"]) > 0

    def test_delta_lines_are_valid_verdicts(self, capsys, tmp_path):
        windows = write_windows(tmp_path / "w.jsonl", n_windows=3)
        code, lines = run_cli(
            capsys,
            "stream",
            "--windows",
            str(windows),
            "--generator",
            SMALL_GENERATOR,
        )
        assert code == 0
        for index, line in enumerate(lines[:-1]):
            delta = json.loads(line)
            assert delta["window"] == index
            assert delta["timestamp"] == 15 * (index + 1)
            assert delta["changed"] == bool(
                delta["onsets"] or delta["clears"]
            )

    def test_quiet_prints_only_the_final_line(self, capsys, tmp_path):
        windows = write_windows(tmp_path / "w.jsonl", n_windows=3)
        code, lines = run_cli(
            capsys,
            "stream",
            "--windows",
            str(windows),
            "--quiet",
            "--generator",
            SMALL_GENERATOR,
        )
        assert code == 0
        assert len(lines) == 1
        assert "n_snapshots" in lines[0]

    def test_max_window_reports_evictions(self, capsys, tmp_path):
        windows = write_windows(tmp_path / "w.jsonl", n_windows=4)
        code, lines = run_cli(
            capsys,
            "stream",
            "--windows",
            str(windows),
            "--max-window",
            "20",
            "--quiet",
            "--generator",
            SMALL_GENERATOR,
        )
        assert code == 0
        final = json.loads(lines[-1])
        assert final["n_snapshots"] == 20
        assert final["n_evicted"] == 40

    def test_simulate_save_then_replay_round_trips(
        self, capsys, tmp_path
    ):
        """--simulate with --save-windows writes a replayable JSONL;
        replaying it reproduces the simulated run's final line."""
        saved = tmp_path / "saved.jsonl"
        code, simulated = run_cli(
            capsys,
            "stream",
            "--simulate",
            "--n-windows",
            "4",
            "--window-size",
            "12",
            "--save-windows",
            str(saved),
            "--quiet",
            "--generator",
            SMALL_GENERATOR,
        )
        assert code == 0
        payloads = [
            json.loads(line)
            for line in saved.read_text().splitlines()
        ]
        assert len(payloads) == 4
        assert all(len(window) == 12 for window in payloads)
        code, replayed = run_cli(
            capsys,
            "stream",
            "--windows",
            str(saved),
            "--quiet",
            "--generator",
            SMALL_GENERATOR,
        )
        assert code == 0
        assert replayed[-1] == simulated[-1]

    def test_simulate_is_deterministic_per_seed(self, capsys):
        argv = (
            "--seed",
            "9",
            "stream",
            "--simulate",
            "--n-windows",
            "3",
            "--window-size",
            "10",
            "--quiet",
            "--generator",
            SMALL_GENERATOR,
        )
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_events_timeline_rejected_when_malformed(self):
        for events in (
            "not json",
            '{"kind": "onset"}',
            "[1]",
            '[{"kind": "meltdown", "at": 0, "links": [0]}]',
            '[{"kind": "onset", "at": 0, "links": [99999]}]',
            '[{"kind": "onset", "at": 0, "links": 3}]',
            '[{"kind": "onset", "at": 0, "links": [0], "probability": "x"}]',
        ):
            with pytest.raises(SystemExit, match="^error: --events: "):
                main(
                    [
                        "stream",
                        "--simulate",
                        "--events",
                        events,
                        "--generator",
                        SMALL_GENERATOR,
                    ]
                )

    def test_events_timeline_drives_onsets(self, capsys):
        """A scripted onset on quiet links shows up in the per-window
        verdict deltas after the onset snapshot."""
        events = json.dumps(
            [{"kind": "onset", "at": 40, "links": [0, 1]}]
        )
        code, lines = run_cli(
            capsys,
            "stream",
            "--simulate",
            "--n-windows",
            "5",
            "--window-size",
            "20",
            "--congested-fraction",
            "0.0",
            "--events",
            events,
            "--generator",
            SMALL_GENERATOR,
        )
        assert code == 0
        deltas = [json.loads(line) for line in lines[:-1]]
        onsets = {k for delta in deltas for k in delta["onsets"]}
        # At least one scripted link becomes detectable (whether both
        # do depends on path coverage of this instance).
        assert onsets & {0, 1}
        # Nothing fires before the onset snapshot (windows 0-1 cover
        # snapshots 0..39).
        assert not deltas[0]["onsets"] and not deltas[1]["onsets"]
