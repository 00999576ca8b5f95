"""Unit tests for instance serialization."""

import json

import pytest

from repro.exceptions import TopologyError
from repro.io import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    parse_json,
    save_instance,
)


class TestRoundTrip:
    def test_fig1a_round_trips(self, instance_1a):
        rebuilt = instance_from_dict(instance_to_dict(instance_1a))
        assert rebuilt.topology == instance_1a.topology
        assert rebuilt.correlation == instance_1a.correlation

    def test_generated_instance_round_trips(self, planetlab_small):
        rebuilt = instance_from_dict(
            instance_to_dict(planetlab_small)
        )
        assert rebuilt.topology == planetlab_small.topology
        assert rebuilt.correlation == planetlab_small.correlation

    def test_file_round_trip(self, instance_1a, tmp_path):
        target = tmp_path / "instance.json"
        save_instance(instance_1a, target)
        rebuilt = load_instance(target)
        assert rebuilt.topology == instance_1a.topology
        assert rebuilt.correlation == instance_1a.correlation

    def test_file_is_plain_json(self, instance_1a, tmp_path):
        target = tmp_path / "instance.json"
        save_instance(instance_1a, target)
        payload = json.loads(target.read_text())
        assert payload["format"] == "repro-instance"
        assert len(payload["links"]) == 4
        assert payload["correlation_sets"] == [
            ["e1", "e2"],
            ["e3"],
            ["e4"],
        ]

    def test_metadata_preserved(self, instance_1a):
        payload = instance_to_dict(instance_1a)
        rebuilt = instance_from_dict(payload)
        assert rebuilt.metadata["figure"] == "1a"

    def test_unjsonable_metadata_stringified(self, instance_1a):
        from dataclasses import replace

        patched = replace(
            instance_1a, metadata={"odd": {1, 2}}
        )
        payload = instance_to_dict(patched)
        assert isinstance(payload["metadata"]["odd"], str)

    def test_non_finite_metadata_round_trips_as_text(
        self, instance_1a, tmp_path
    ):
        from dataclasses import replace

        patched = replace(instance_1a, metadata={"odd": float("nan")})
        save_instance(patched, tmp_path / "instance.json")
        assert load_instance(tmp_path / "instance.json").metadata == {
            "odd": "nan"
        }


class TestValidation:
    def test_wrong_format_rejected(self):
        with pytest.raises(TopologyError, match="not a"):
            instance_from_dict({"format": "something-else"})

    def test_wrong_version_rejected(self, instance_1a):
        payload = instance_to_dict(instance_1a)
        payload["version"] = 99
        with pytest.raises(TopologyError, match="version"):
            instance_from_dict(payload)

    def test_corrupted_correlation_rejected(self, instance_1a):
        from repro.exceptions import CorrelationError

        payload = instance_to_dict(instance_1a)
        payload["correlation_sets"] = [["e1"]]  # not a partition
        with pytest.raises(CorrelationError):
            instance_from_dict(payload)

    def test_corrupted_paths_rejected(self, instance_1a):
        payload = instance_to_dict(instance_1a)
        payload["paths"][0]["links"] = ["e1", "e4"]  # not contiguous
        with pytest.raises(TopologyError):
            instance_from_dict(payload)


class TestParseJson:
    @pytest.mark.parametrize("text", ["[NaN]", '{"a": Infinity}', "-Infinity"])
    def test_non_finite_constants_refused(self, text):
        with pytest.raises(ValueError, match="non-finite"):
            parse_json(text)

    @pytest.mark.parametrize("opener", ["[", '{"a": '])
    def test_deep_nesting_is_a_value_error(self, opener):
        with pytest.raises(ValueError, match="nested too deeply"):
            parse_json(opener * 200_000)

    def test_plain_json_parses(self):
        assert parse_json(b'{"a": [1, 2.5, true, null]}') == {
            "a": [1, 2.5, True, None]
        }

    def test_instance_file_gets_the_same_refusals(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        with pytest.raises(ValueError, match="nested too deeply"):
            load_instance(path)


class TestInferenceOnReloadedInstance:
    def test_pipeline_runs_after_reload(
        self, instance_1a, model_1a, tmp_path
    ):
        from repro import ExperimentConfig, infer_congestion, run_experiment

        target = tmp_path / "fig1a.json"
        save_instance(instance_1a, target)
        reloaded = load_instance(target)
        run = run_experiment(
            reloaded.topology,
            model_1a,
            config=ExperimentConfig(n_snapshots=500),
            seed=7,
        )
        result = infer_congestion(
            reloaded.topology, reloaded.correlation, run.observations
        )
        assert result.n_links == 4
