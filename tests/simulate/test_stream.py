"""Unit tests for the windowed snapshot stream and its timeline."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.model.loss import LossModel
from repro.simulate.probes import PathProber, ProbeConfig
from repro.simulate.stream import (
    LinkStateTimeline,
    SnapshotStream,
    StreamEvent,
)
from repro.utils.rng import as_generator


def make_stream(instance, model, **kwargs):
    kwargs.setdefault("rng", as_generator(0))
    return SnapshotStream(
        model,
        LossModel(),
        PathProber(instance.topology, ProbeConfig()),
        **kwargs,
    )


class TestStreamEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(SimulationError, match="kind"):
            StreamEvent(kind="meltdown", at=0, links=(1,))

    def test_rejects_empty_links(self):
        with pytest.raises(SimulationError, match="at least one link"):
            StreamEvent(kind="onset", at=0, links=())

    def test_rejects_bad_probability(self):
        with pytest.raises(SimulationError, match="probability"):
            StreamEvent(
                kind="onset", at=0, links=(1,), probability=1.5
            )

    def test_rejects_until_before_at(self):
        with pytest.raises(SimulationError, match="until"):
            StreamEvent(kind="onset", at=5, links=(1,), until=5)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SimulationError, match="unknown"):
            StreamEvent.from_dict(
                {"kind": "onset", "at": 0, "links": [1], "bogus": 1}
            )

    @pytest.mark.parametrize(
        "spec",
        [
            [1],
            {"kind": "onset", "at": "soon", "links": [1]},
            {"kind": "onset", "at": 0, "links": 1},
            {"kind": "onset", "at": 0, "links": [1], "probability": "x"},
            {"kind": "flap", "at": 0, "links": [1], "period": None},
        ],
    )
    def test_from_dict_wraps_malformed_specs(self, spec):
        with pytest.raises(SimulationError):
            StreamEvent.from_dict(spec)

    def test_active_window(self):
        event = StreamEvent(kind="onset", at=3, links=(0,), until=6)
        assert [event.active(i) for i in range(8)] == [
            False, False, False, True, True, True, False, False,
        ]

    def test_flap_alternates_by_period(self):
        event = StreamEvent(kind="flap", at=2, links=(0,), period=2)
        congested = [event.congesting(i) for i in range(2, 10)]
        assert congested == [
            True, True, False, False, True, True, False, False,
        ]


class TestLinkStateTimeline:
    def test_check_links_rejects_out_of_range(self):
        timeline = LinkStateTimeline(
            [StreamEvent(kind="onset", at=0, links=(9,))]
        )
        with pytest.raises(SimulationError, match="link"):
            timeline.check_links(4)

    def test_onset_and_clear_override_sampled_state(self):
        timeline = LinkStateTimeline.from_specs(
            [
                {"kind": "onset", "at": 2, "links": [0]},
                {"kind": "clear", "at": 0, "links": [1]},
            ]
        )
        rng = as_generator(0)
        for index in range(4):
            states = np.array([False, True, False, True])
            timeline.apply(states, index, rng)
            assert states[0] == (index >= 2)
            assert not states[1]
            assert states[3]  # untouched links keep the sampled state

    def test_later_event_wins(self):
        timeline = LinkStateTimeline.from_specs(
            [
                {"kind": "onset", "at": 0, "links": [0]},
                {"kind": "clear", "at": 5, "links": [0]},
            ]
        )
        rng = as_generator(0)
        states = np.array([False])
        timeline.apply(states, 4, rng)
        assert states[0]
        timeline.apply(states, 5, rng)
        assert not states[0]

    def test_probabilistic_onset_uses_rng(self):
        timeline = LinkStateTimeline.from_specs(
            [{"kind": "onset", "at": 0, "links": [0], "probability": 0.5}]
        )
        rng = as_generator(3)
        outcomes = set()
        for index in range(40):
            states = np.array([False])
            timeline.apply(states, index, rng)
            outcomes.add(bool(states[0]))
        assert outcomes == {True, False}


class TestSnapshotStream:
    def test_rejects_bad_window_size(self, instance_1a, model_1a):
        with pytest.raises(SimulationError, match="window_size"):
            make_stream(instance_1a, model_1a, window_size=0)

    def test_rejects_timeline_beyond_topology(
        self, instance_1a, model_1a
    ):
        timeline = LinkStateTimeline.from_specs(
            [{"kind": "onset", "at": 0, "links": [99]}]
        )
        with pytest.raises(SimulationError, match="link"):
            make_stream(
                instance_1a, model_1a, window_size=2, timeline=timeline
            )

    def test_window_shapes_and_cursor(self, instance_1a, model_1a):
        stream = make_stream(instance_1a, model_1a, window_size=5)
        first = stream.next_window()
        second = stream.next_window(3)
        assert first.index == 0 and first.start == 0
        assert first.n_snapshots == 5 and first.stop == 5
        assert second.index == 1 and second.start == 5
        assert second.n_snapshots == 3
        assert stream.cursor == 8
        n_links = instance_1a.topology.n_links
        n_paths = instance_1a.topology.n_paths
        assert first.link_states.shape == (5, n_links)
        assert first.path_states.shape == (5, n_paths)

    def test_window_size_one_is_exactly_simulate_snapshot(
        self, instance_1a, model_1a
    ):
        """A one-snapshot window is one Section-5 round: state, loss
        rates, probe verdicts, all drawn from the stream's generator."""
        loss_model = LossModel()
        prober = PathProber(instance_1a.topology, ProbeConfig())
        stream = SnapshotStream(
            model_1a,
            loss_model,
            prober,
            window_size=1,
            rng=as_generator(42),
        )
        rng = as_generator(42)
        for _ in range(6):
            window = stream.next_window()
            states = model_1a.sample_indicator(rng)
            verdicts = prober.measure(
                loss_model.sample_loss_rates(states, rng), rng
            )
            assert np.array_equal(window.link_states[0], states)
            assert np.array_equal(window.path_states[0], verdicts)

    def test_window_partitioning_is_invisible(
        self, instance_1a, model_1a
    ):
        """Consuming the stream in any window sizes yields the same
        snapshot sequence — windows are a view, not a unit of
        randomness."""
        chunks_a = [
            window.path_states
            for window in make_stream(
                instance_1a, model_1a, window_size=4, rng=as_generator(9)
            ).windows(6)
        ]
        stream_b = make_stream(
            instance_1a, model_1a, window_size=1, rng=as_generator(9)
        )
        chunks_b = [
            stream_b.next_window(size).path_states
            for size in (8, 3, 13)
        ]
        assert np.array_equal(
            np.concatenate(chunks_a, axis=0),
            np.concatenate(chunks_b, axis=0),
        )

    def test_timeline_forces_congestion_in_emitted_truth(
        self, instance_1a, model_1a
    ):
        timeline = LinkStateTimeline.from_specs(
            [{"kind": "onset", "at": 6, "links": [2]}]
        )
        stream = make_stream(
            instance_1a, model_1a, window_size=4, timeline=timeline
        )
        first, second, third = stream.windows(3)
        assert first.index == 0  # indexes 0..3: onset not yet active
        assert second.link_states[2:, 2].all()  # indexes 6,7 forced
        assert third.link_states[:, 2].all()

    def test_iteration_protocol(self, instance_1a, model_1a):
        stream = make_stream(instance_1a, model_1a, window_size=2)
        iterator = iter(stream)
        window = next(iterator)
        assert window.index == 0
        assert next(iterator).index == 1
