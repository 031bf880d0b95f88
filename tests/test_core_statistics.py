"""Tests for the statistics collector and global view."""

import numpy as np
import pytest

from repro.core.statistics import GlobalView, StatisticsCollector
from repro.net.channels import ChannelHopper
from repro.net.lwb import LWBRoundEngine, Schedule
from repro.net.node import NodeStateArray
from repro.net.topology import kiel_testbed


@pytest.fixture()
def round_result(kiel):
    engine = LWBRoundEngine(kiel, hopper=ChannelHopper(enabled=False), rng=np.random.default_rng(0))
    nodes = NodeStateArray(kiel.node_ids, coordinator=kiel.coordinator)
    schedule = Schedule(round_index=0, n_tx=3, slots=tuple(kiel.node_ids))
    return engine.run_round(nodes, schedule)


class TestGlobalView:
    def test_worst_and_average(self):
        view = GlobalView(
            node_ids=[0, 1],
            reliability_array=np.array([1.0, 0.5]),
            radio_on_array=np.array([5.0, 10.0]),
            missing_feedback_array=np.zeros(2, dtype=bool),
        )
        assert view.worst_reliability() == pytest.approx(0.5)
        assert view.average_reliability() == pytest.approx(0.75)

    def test_empty_view_defaults(self):
        view = GlobalView(
            node_ids=[],
            reliability_array=np.zeros(0),
            radio_on_array=np.zeros(0),
            missing_feedback_array=np.zeros(0, dtype=bool),
        )
        assert view.worst_reliability() == 1.0
        assert view.average_reliability() == 1.0


class TestStatisticsCollector:
    def test_clean_round_has_no_losses(self, kiel, round_result):
        collector = StatisticsCollector(observer=kiel.coordinator, expected_nodes=kiel.node_ids)
        view = collector.build_view(round_result)
        assert not view.had_losses
        assert view.node_ids == tuple(sorted(kiel.node_ids))
        assert view.reliability_array.shape == view.radio_on_array.shape == (len(kiel.node_ids),)
        assert not view.missing_feedback_array.any()

    def test_missing_feedback_flags_losses(self, kiel, round_result):
        collector = StatisticsCollector(observer=kiel.coordinator, expected_nodes=kiel.node_ids)
        # Forge one slot the coordinator did not receive.
        flood = next(f for f in round_result.slot_floods if f.initiator != kiel.coordinator)
        flood.received_array[flood.node_ids.index(kiel.coordinator)] = False
        view = collector.build_view(round_result)
        assert view.had_losses
        row = view.node_ids.index(flood.initiator)
        assert np.flatnonzero(view.missing_feedback_array).tolist() == [row]
        assert view.reliability_array[row] == 0.0
        assert view.radio_on_array[row] == pytest.approx(20.0)

    def test_calm_round_counting(self, kiel, round_result):
        collector = StatisticsCollector(observer=kiel.coordinator, expected_nodes=kiel.node_ids)
        collector.build_view(round_result)
        collector.build_view(round_result)
        assert collector.calm_rounds() == 2
        assert not any(view.had_losses for view in collector.recent_views(2))

    def test_history_window_bounded(self, kiel, round_result):
        collector = StatisticsCollector(
            observer=kiel.coordinator, expected_nodes=kiel.node_ids, loss_history_window=3
        )
        for _ in range(6):
            collector.build_view(round_result)
        assert len(collector.recent_views(10)) == 3

    def test_latest_view_and_reset(self, kiel, round_result):
        collector = StatisticsCollector(observer=kiel.coordinator, expected_nodes=kiel.node_ids)
        assert collector.latest_view is None
        collector.build_view(round_result)
        assert collector.latest_view is not None
        collector.reset()
        assert collector.latest_view is None

    def test_invalid_window_rejected(self, kiel):
        with pytest.raises(ValueError):
            StatisticsCollector(observer=0, expected_nodes=kiel.node_ids, loss_history_window=0)
