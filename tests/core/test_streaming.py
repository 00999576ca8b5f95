"""Streaming engine: cached equation structure, verdict diffs."""

import numpy as np
import pytest

from repro.core.correlation_algorithm import (
    AlgorithmOptions,
    CorrelationTomography,
    infer_congestion,
)
from repro.core.prepared import PreparedRegistry
from repro.core.streaming import EquationTemplate, StreamingTomography
from repro.model.loss import LossModel
from repro.simulate.observations import PathObservations
from repro.simulate.probes import PathProber, ProbeConfig
from repro.simulate.stream import LinkStateTimeline, SnapshotStream
from repro.utils.rng import as_generator


@pytest.fixture(scope="module")
def windows_1a(instance_1a, model_1a):
    stream = SnapshotStream(
        model_1a,
        LossModel(),
        PathProber(instance_1a.topology, ProbeConfig()),
        window_size=30,
        rng=as_generator(17),
    )
    return [window.path_states for window in stream.windows(5)]


SOLVERS = ("l1", "least_squares", "auto")


def assert_matches_rebuild(result, rebuilt):
    """``result`` equals the full-rebuild answer byte for byte."""
    log_good, solver_used, _ = rebuilt
    probabilities = np.clip(1.0 - np.exp(log_good), 0.0, 1.0)
    assert result.log_good.tobytes() == log_good.tobytes()
    assert (
        result.congestion_probabilities.tobytes()
        == probabilities.tobytes()
    )
    assert result.solver == solver_used


class TestEquationTemplate:
    @pytest.mark.parametrize("selection", ["independent", "all"])
    def test_infer_is_bit_identical_to_batch(
        self, instance_1a, windows_1a, rebuilt_log_good, selection
    ):
        """Template and ``infer_congestion`` both equal a full rebuild,
        for every solver."""
        observations = PathObservations(
            np.concatenate(windows_1a, axis=0)
        )
        for solver in SOLVERS:
            options = AlgorithmOptions(selection=selection, solver=solver)
            template = EquationTemplate.build(
                instance_1a.topology,
                instance_1a.correlation,
                options=options,
            )
            rebuilt = rebuilt_log_good(
                instance_1a,
                observations,
                registry=PreparedRegistry(),
                selection=selection,
                solver=solver,
            )
            # Eq.-10 rows are present, so the template's row order
            # matters.
            assert rebuilt[2].n_pair > 0
            assert_matches_rebuild(template.infer(observations), rebuilt)
            assert_matches_rebuild(
                infer_congestion(
                    instance_1a.topology,
                    instance_1a.correlation,
                    observations,
                    options=options,
                    registry=PreparedRegistry(),
                ),
                rebuilt,
            )

    def test_structure_is_reused_across_windows(
        self, instance_1a, windows_1a, rebuilt_log_good
    ):
        template = EquationTemplate.build(
            instance_1a.topology, instance_1a.correlation
        )
        rows = template.n_rows
        history = [windows_1a[0]]
        observations = PathObservations(windows_1a[0])
        for window in windows_1a[1:]:
            observations.append_window(window)
            history.append(window)
            streamed = template.infer(observations)
            assert template.n_rows == rows
            assert_matches_rebuild(
                streamed,
                rebuilt_log_good(
                    instance_1a,
                    PathObservations(np.concatenate(history, axis=0)),
                    registry=PreparedRegistry(),
                ),
            )


class TestCorrelationTomographyUpdate:
    def test_update_matches_infer(
        self, instance_1a, windows_1a, rebuilt_log_good
    ):
        """``update`` and ``infer`` both equal a full rebuild, for every
        solver."""
        for solver in SOLVERS:
            engine = CorrelationTomography(
                instance_1a.topology,
                instance_1a.correlation,
                options=AlgorithmOptions(solver=solver),
            )
            observations = PathObservations(windows_1a[0])
            for window in windows_1a[1:]:
                observations.append_window(window)
                rebuilt = rebuilt_log_good(
                    instance_1a, observations, solver=solver
                )
                assert_matches_rebuild(engine.update(observations), rebuilt)
                assert_matches_rebuild(engine.infer(observations), rebuilt)


class TestStreamingTomography:
    def test_rejects_bad_threshold(self, instance_1a):
        with pytest.raises(ValueError, match="threshold"):
            StreamingTomography(
                instance_1a.topology,
                instance_1a.correlation,
                threshold=1.5,
            )

    def test_verdict_bookkeeping(self, instance_1a, windows_1a):
        engine = StreamingTomography(
            instance_1a.topology,
            instance_1a.correlation,
            registry=PreparedRegistry(),
        )
        observations = None
        cursor = 0
        for index, window in enumerate(windows_1a):
            if observations is None:
                observations = PathObservations(window)
            else:
                observations.append_window(window)
            cursor += window.shape[0]
            verdict = engine.update(observations)
            assert verdict.window_index == index
            assert verdict.timestamp == cursor
            assert verdict.n_snapshots == cursor
            assert engine.window_index == index + 1
            assert not verdict.congested.flags.writeable
            assert np.array_equal(
                verdict.congested,
                verdict.probabilities > engine.threshold,
            )

    def test_first_window_diffs_against_all_good(self, instance_1a):
        """The baseline before any window is 'nothing congested', so an
        initially-congested link is reported as an onset."""
        engine = StreamingTomography(
            instance_1a.topology,
            instance_1a.correlation,
            registry=PreparedRegistry(),
        )
        congested_everywhere = np.ones((40, 3), dtype=bool)
        verdict = engine.update(
            PathObservations(congested_everywhere)
        )
        assert verdict.onsets
        assert not verdict.clears
        assert verdict.changed
        assert set(verdict.onsets) == set(
            int(k) for k in np.flatnonzero(verdict.congested)
        )

    def test_onsets_then_clears_round_trip(self, instance_1a):
        engine = StreamingTomography(
            instance_1a.topology,
            instance_1a.correlation,
            registry=PreparedRegistry(),
        )
        good = np.zeros((60, 3), dtype=bool)
        bad = np.ones((60, 3), dtype=bool)

        first = engine.update(PathObservations(good))
        assert not first.changed
        assert first.onsets == () and first.clears == ()

        onset = engine.update(PathObservations(bad))
        assert onset.changed and onset.onsets and not onset.clears

        # Same verdict again: no diff.
        steady = engine.update(PathObservations(bad))
        assert not steady.changed

        clear = engine.update(PathObservations(good))
        assert clear.changed and clear.clears and not clear.onsets
        assert set(clear.clears) == set(onset.onsets)

    def test_timestamp_counts_evicted_history(self, instance_1a):
        engine = StreamingTomography(
            instance_1a.topology,
            instance_1a.correlation,
            registry=PreparedRegistry(),
        )
        observations = PathObservations(
            np.zeros((50, 3), dtype=bool), max_window=30
        )
        observations.append_window(np.zeros((25, 3), dtype=bool))
        verdict = engine.update(observations)
        assert observations.n_snapshots == 30
        assert verdict.n_snapshots == 30
        assert verdict.timestamp == 75

    def test_localize_last(self, instance_1a, windows_1a):
        engine = StreamingTomography(
            instance_1a.topology,
            instance_1a.correlation,
            localize_last=True,
            registry=PreparedRegistry(),
        )
        observations = PathObservations(windows_1a[0])
        verdict = engine.update(observations)
        assert verdict.localization is not None
        assert verdict.localization.method == "map"
        assert isinstance(verdict.localization.congested_links, frozenset)
        # Without localize_last the field stays empty.
        plain = StreamingTomography(
            instance_1a.topology,
            instance_1a.correlation,
            registry=PreparedRegistry(),
        )
        assert plain.update(observations).localization is None

    def test_streaming_final_equals_batch(
        self, instance_1a, windows_1a, rebuilt_log_good
    ):
        """The correctness anchor: after any number of windows, the
        engine's answer equals a full rebuild over the full history."""
        engine = StreamingTomography(
            instance_1a.topology,
            instance_1a.correlation,
            registry=PreparedRegistry(),
        )
        observations = PathObservations(windows_1a[0])
        verdict = engine.update(observations)
        for window in windows_1a[1:]:
            observations.append_window(window)
            verdict = engine.update(observations)
        assert_matches_rebuild(
            verdict.result,
            rebuilt_log_good(
                instance_1a,
                PathObservations(np.concatenate(windows_1a, axis=0)),
                registry=PreparedRegistry(),
            ),
        )
