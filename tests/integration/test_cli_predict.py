"""The ``predict`` subcommand: parsing, output formats, bit-identity."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.io import canonical_json
from repro.predict.demand import DemandMatrix
from repro.serve.queries import encode_vectors, run_query
from repro.serve.registry import instance_from_payload

GENERATOR = {
    "kind": "brite",
    "n_ases": 12,
    "routers_per_as": 3,
    "n_paths": 30,
    "seed": 7,
}
DEMAND = {
    "flows": [
        {"name": "f0", "rate": 6.0, "paths": [0, 1]},
        {"name": "f1", "rate": 5.0, "paths": [1, 2]},
        {"name": "f2", "rate": 4.0, "paths": [0, 2]},
    ],
    "capacities": {"default": 10.0},
    "shifts": [{"name": "surge", "scale": 1.6}],
}
WINDOW = ["--n-snapshots", "30", "--packets-per-path", "200"]


@pytest.fixture()
def demand_file(tmp_path):
    path = tmp_path / "demand.json"
    path.write_text(json.dumps(DEMAND), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines()


def predict_argv(demand_file, *extra):
    return [
        "predict",
        "--generator",
        json.dumps(GENERATOR),
        "--demand",
        demand_file,
        "--seed",
        "3",
        *WINDOW,
        *extra,
    ]


class TestParser:
    def test_demand_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict"])

    def test_defaults(self):
        args = build_parser().parse_args(["predict", "--demand", "d.json"])
        assert args.format == "table"
        assert args.utilization_threshold == 0.85
        assert args.exact_max_flows == 16
        assert args.mc_samples == 20_000
        assert args.top == 10

    @pytest.mark.parametrize(
        "flags",
        [
            ["--utilization-threshold", "0"],
            ["--exact-max-flows", "-1"],
            ["--mc-samples", "0"],
            ["--top", "0"],
        ],
    )
    def test_bad_numeric_flags(self, flags):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["predict", "--demand", "d.json", *flags]
            )


class TestJsonOutput:
    def batch_answer(self, *, shifts):
        demand = DemandMatrix.from_payload(DEMAND)
        demand_payload = demand.to_payload()
        demand_payload.pop("shifts", None)
        query = {
            "kind": "whatif",
            "seed": 3,
            "demand": demand_payload,
            "shifts": shifts,
            "utilization_threshold": 0.85,
            "exact_max_flows": 16,
            "mc_samples": 20_000,
            "congested_fraction": 0.10,
            "per_set_range": "high",
            "n_snapshots": 30,
            "packets_per_path": 200,
        }
        instance = instance_from_payload({"generator": GENERATOR})
        return canonical_json(
            {"result": encode_vectors(run_query(instance, query))}
        )

    def test_json_is_byte_identical_to_the_batch_engine(
        self, capsys, demand_file
    ):
        code, lines = run_cli(
            capsys, *predict_argv(demand_file, "--format", "json")
        )
        assert code == 0
        expected = self.batch_answer(
            shifts=[{"name": "surge", "scale": 1.6}]
        )
        assert lines == [expected]

    def test_shift_override_changes_the_answer(self, capsys, demand_file):
        code, base_lines = run_cli(
            capsys, *predict_argv(demand_file, "--format", "json")
        )
        assert code == 0
        code, lines = run_cli(
            capsys,
            *predict_argv(
                demand_file, "--format", "json", "--shift", "surge:2.0"
            ),
        )
        assert code == 0
        assert lines != base_lines
        assert lines == [
            self.batch_answer(shifts=[{"name": "surge", "scale": 2.0}])
        ]
        result = json.loads(lines[0])["result"]
        assert result["shift0_scale"] == [2.0]

    def test_new_shift_is_appended(self, capsys, demand_file):
        code, lines = run_cli(
            capsys,
            *predict_argv(
                demand_file, "--format", "json", "--shift", "extra:1.2"
            ),
        )
        assert code == 0
        result = json.loads(lines[0])["result"]
        assert result["n_shifts"] == [2.0]
        assert result["shift1_scale"] == [1.2]


class TestTableOutput:
    def test_table_smoke(self, capsys, demand_file):
        code, lines = run_cli(
            capsys, *predict_argv(demand_file, "--top", "5")
        )
        assert code == 0
        text = "\n".join(lines)
        assert "What-if 'surge'" in text
        assert "rank" in text and "combined" in text
        # 5 ranked rows: 1..5 in the rank column.
        ranked = [line for line in lines if line.strip().startswith("5")]
        assert ranked


class TestFailures:
    def test_missing_demand_file(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="--demand"):
            main(predict_argv(str(tmp_path / "absent.json")))

    def test_invalid_demand_json(self, tmp_path):
        path = tmp_path / "demand.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SystemExit, match="invalid JSON"):
            main(predict_argv(str(path)))

    def test_malformed_demand_payload(self, tmp_path):
        path = tmp_path / "demand.json"
        path.write_text(json.dumps({"flows": []}), encoding="utf-8")
        with pytest.raises(SystemExit, match="--demand"):
            main(predict_argv(str(path)))

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("predict", ["--n-snapshots", "0"]),
            ("predict", ["--n-snapshots", "1000000000"]),
            ("predict", ["--congested-fraction", "nan"]),
            ("predict", ["--seed", "-3"]),
            ("localize", ["--max-nodes", "-1"]),
            ("localize", ["--congested-fraction", "inf"]),
            ("localize", ["--loc-snapshots", "-1"]),
        ],
    )
    def test_out_of_range_query_exits_2(
        self, capsys, demand_file, command, flags
    ):
        argv = (
            predict_argv(demand_file, *flags)
            if command == "predict"
            else [
                "localize",
                "--generator",
                json.dumps(GENERATOR),
                "--no-cache",
                *WINDOW,
                *flags,
            ]
        )
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert len(error) == 1 and error[0].startswith("error: "), error

    def test_unresolvable_demand(self, tmp_path, capsys):
        path = tmp_path / "demand.json"
        payload = {"flows": [{"name": "f", "rate": 1.0, "paths": [9_999]}]}
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(predict_argv(str(path)))
        assert excinfo.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert len(error) == 1 and error[0].startswith("error: flow 'f'")

    def test_unknown_path_name_exits_2(self, tmp_path, capsys):
        """A flow naming a path the topology does not have is a usage
        error, like an out-of-range path id — not a traceback."""
        path = tmp_path / "demand.json"
        payload = {"flows": [{"name": "f", "rate": 1.0, "paths": ["nope"]}]}
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(predict_argv(str(path)))
        assert excinfo.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()
        assert error == ["error: no path named 'nope'"], error

    @pytest.mark.parametrize(
        "spec", ["no-colon", "surge:abc", "surge:-1", ":2.0"]
    )
    def test_bad_shift_specs(self, demand_file, spec):
        with pytest.raises(SystemExit, match="--shift"):
            main(predict_argv(demand_file, "--shift", spec))
