"""Tests for the LWB round engine."""

import numpy as np
import pytest

from repro.net.channels import ChannelHopper
from repro.net.interference import BurstJammer, CompositeInterference
from repro.net.lwb import LWBRoundEngine, Schedule, observer_view_arrays
from repro.net.node import NodeRole, NodeStateArray
from repro.net.topology import kiel_testbed


@pytest.fixture()
def engine(kiel):
    return LWBRoundEngine(kiel, hopper=ChannelHopper(enabled=False), rng=np.random.default_rng(0))


def make_store(kiel):
    return NodeStateArray(kiel.node_ids, coordinator=kiel.coordinator)


@pytest.fixture()
def nodes(kiel):
    return make_store(kiel)


def make_schedule(kiel, n_tx=3, round_index=0):
    return Schedule(round_index=round_index, n_tx=n_tx, slots=tuple(kiel.node_ids))


class TestSchedule:
    def test_to_packet_carries_parameters(self, kiel):
        schedule = Schedule(round_index=4, n_tx=5, slots=(1, 2, 3), learning_node=2,
                            forwarder_selection=True)
        packet = schedule.to_packet(kiel.coordinator)
        assert packet.n_tx == 5
        assert packet.slots == (1, 2, 3)
        assert packet.forwarder_selection
        assert packet.learning_node == 2
        assert packet.round_index == 4

    def test_negative_ntx_rejected(self):
        with pytest.raises(ValueError):
            Schedule(round_index=0, n_tx=-1, slots=())


class TestRoundExecution:
    def test_clean_round_is_fully_reliable(self, engine, nodes, kiel):
        result = engine.run_round(nodes, make_schedule(kiel))
        assert result.reliability == pytest.approx(1.0)
        assert not result.had_losses
        assert len(result.slot_floods) == kiel.num_nodes

    def test_nodes_apply_the_schedule_ntx(self, engine, nodes, kiel):
        engine.run_round(nodes, make_schedule(kiel, n_tx=6))
        assert int((nodes.n_tx == 6).sum()) >= kiel.num_nodes - 2

    def test_radio_on_accounted_for_every_node(self, engine, nodes, kiel):
        result = engine.run_round(nodes, make_schedule(kiel))
        assert result.node_ids == tuple(kiel.node_ids)
        assert result.radio_on_array.shape == (kiel.num_nodes,)
        assert (result.radio_on_array > 0).all()

    def test_average_radio_on_within_slot_bounds(self, engine, nodes, kiel):
        result = engine.run_round(nodes, make_schedule(kiel))
        assert 0.0 < result.average_radio_on_ms <= engine.slot_ms

    def test_per_node_reliability_all_ones_when_clean(self, engine, nodes, kiel):
        result = engine.run_round(nodes, make_schedule(kiel))
        assert (result.packets_received_array == result.packets_expected_array).all()

    def test_feedback_headers_collected(self, engine, nodes, kiel):
        engine.run_round(nodes, make_schedule(kiel))
        schedule = make_schedule(kiel, round_index=1)
        rows = np.array([nodes.index[source] for source in schedule.slots])
        radio_before, reliability_before = nodes.feedback_arrays(rows)
        result = engine.run_round(nodes, schedule, collect_feedback=True)
        carried = ~np.isnan(result.header_reliability_array)
        assert (carried == ~np.isnan(result.header_radio_on_array)).all()
        # Each carried header is its source's statistics from before the round.
        assert (result.header_radio_on_array[carried] == radio_before[carried]).all()
        assert (result.header_reliability_array[carried] == reliability_before[carried]).all()
        heard = [
            flood.received_at(kiel.coordinator)
            for flood, ok in zip(result.slot_floods, carried.tolist())
            if ok
        ]
        assert sum(heard) >= kiel.num_nodes - 2

    def test_no_feedback_when_disabled(self, engine, nodes, kiel):
        result = engine.run_round(nodes, make_schedule(kiel), collect_feedback=False)
        assert result.header_radio_on_array.shape == (kiel.num_nodes,)
        assert np.isnan(result.header_radio_on_array).all()
        assert np.isnan(result.header_reliability_array).all()
        node_ids, _, _, missing = observer_view_arrays(result, observer=kiel.coordinator)
        assert np.flatnonzero(~missing).tolist() == [node_ids.index(kiel.coordinator)]

    def test_destinations_limit_accounting(self, engine, nodes, kiel):
        sink = kiel.coordinator
        result = engine.run_round(nodes, make_schedule(kiel), destinations=[sink])
        others = [n for n in kiel.node_ids if n != sink]
        assert all(result.packets_expected_at(n) == 0 for n in others)
        assert result.packets_expected_at(sink) == len(kiel.node_ids) - 1

    def test_passive_nodes_save_energy(self, engine, kiel, nodes):
        baseline = engine.run_round(nodes, make_schedule(kiel))
        passive_nodes = make_store(kiel)
        chosen = [n for n in kiel.node_ids if n != kiel.coordinator][:5]
        for node in chosen:
            passive_nodes.set_role(node, NodeRole.PASSIVE)
        engine2 = LWBRoundEngine(kiel, hopper=ChannelHopper(enabled=False), rng=np.random.default_rng(0))
        result = engine2.run_round(passive_nodes, make_schedule(kiel))
        avg_passive = np.mean([result.radio_on_at(n) for n in chosen])
        avg_baseline = np.mean([baseline.radio_on_at(n) for n in chosen])
        assert avg_passive < avg_baseline

    def test_jamming_causes_losses_at_low_ntx(self, kiel, nodes):
        engine = LWBRoundEngine(kiel, hopper=ChannelHopper(enabled=False), rng=np.random.default_rng(5))
        jam = CompositeInterference([
            BurstJammer(position=p, interference_ratio=0.35, channels=None) for p in kiel.jammers
        ])
        results = [
            engine.run_round(nodes, make_schedule(kiel, n_tx=1, round_index=i),
                             start_ms=i * 4000.0, interference=jam)
            for i in range(5)
        ]
        assert any(r.had_losses for r in results)

    @pytest.mark.parametrize("kind", ["dict", "misordered", "subset"])
    def test_rejects_node_state_other_than_the_aligned_store(self, engine, kiel, kind):
        if kind == "dict":
            nodes = dict(kiel.positions)
        else:
            node_ids = (
                tuple(reversed(kiel.node_ids)) if kind == "misordered" else kiel.node_ids[:-1]
            )
            nodes = NodeStateArray(node_ids, coordinator=kiel.coordinator)
        with pytest.raises(ValueError, match="NodeStateArray"):
            engine.run_round(nodes, make_schedule(kiel))


class TestObserverView:
    def test_clean_round_view_is_complete(self, engine, nodes, kiel):
        result = engine.run_round(nodes, make_schedule(kiel))
        node_ids, _, _, missing = observer_view_arrays(result, observer=kiel.coordinator)
        assert set(node_ids) == set(kiel.node_ids)
        assert not missing.any()

    def test_missing_feedback_is_pessimistic(self, engine, nodes, kiel):
        result = engine.run_round(nodes, make_schedule(kiel))
        # Forge a result where the coordinator missed one slot.
        flood = result.slot_floods[3]
        source = flood.initiator
        flood.received_array[flood.node_ids.index(kiel.coordinator)] = False
        node_ids, reliability, _, missing = observer_view_arrays(
            result, observer=kiel.coordinator
        )
        if source != kiel.coordinator:
            assert reliability[node_ids.index(source)] == 0.0
            assert missing[node_ids.index(source)]

    def test_empty_schedule_view_is_the_observer_alone(self, engine, nodes, kiel):
        result = engine.run_round(nodes, Schedule(round_index=0, n_tx=3, slots=()))
        assert result.slot_floods == []
        assert result.header_radio_on_array.shape == result.header_reliability_array.shape == (0,)
        node_ids, reliability, radio_on, missing = observer_view_arrays(
            result, observer=kiel.coordinator
        )
        assert node_ids == [kiel.coordinator]
        assert reliability.tolist() == [1.0]
        assert radio_on.tolist() == [result.radio_on_at(kiel.coordinator)]
        assert not missing.any()

    def test_observer_always_included(self, engine, nodes, kiel):
        result = engine.run_round(nodes, make_schedule(kiel))
        node_ids, _, _, _ = observer_view_arrays(result, observer=5, expected_nodes=[5])
        assert 5 in node_ids


class TestRepeatedSources:
    def test_headers_and_view_match_per_slot_reconstruction(self, kiel, nodes):
        """A schedule that repeats sources: every carried header is its
        source's statistics from before the round, and the observer's
        view equals a slot-by-slot dict replay in which the later header
        from a source wins."""
        engine = LWBRoundEngine(
            kiel, hopper=ChannelHopper(enabled=False), rng=np.random.default_rng(0)
        )
        jam = CompositeInterference([
            BurstJammer(position=p, interference_ratio=0.35, channels=None) for p in kiel.jammers
        ])
        a, b, c, d, e = [n for n in kiel.node_ids if n != kiel.coordinator][:5]
        slots = (a, b, a, c, d, b, a)
        observer = b
        expected_nodes = [a, b, d, e]
        missed_headers = empty_slots = 0
        for round_index in range(6):
            radio_before, reliability_before = nodes.feedback_arrays(np.arange(kiel.num_nodes))
            result = engine.run_round(
                nodes,
                Schedule(round_index=round_index, n_tx=1, slots=slots),
                start_ms=round_index * 4000.0,
                interference=jam,
            )
            heard = {}
            for slot_index, source in enumerate(slots):
                flood = result.slot_floods[slot_index]
                assert flood.initiator == source
                header = (
                    result.header_radio_on_array[slot_index],
                    result.header_reliability_array[slot_index],
                )
                if not result.synchronized_array[nodes.index[source]]:
                    # An empty slot carries no header.
                    empty_slots += 1
                    assert np.isnan(header).all()
                    continue
                row = nodes.index[source]
                assert header == (radio_before[row], reliability_before[row])
                if source == observer or flood.received_at(observer):
                    heard[source] = header
            node_ids, reliability, radio_on, missing = observer_view_arrays(
                result, observer=observer, expected_nodes=expected_nodes
            )
            assert node_ids == sorted((set(slots) & set(expected_nodes)) | {observer})
            for position, node in enumerate(node_ids):
                if node == observer:
                    expected = result.packets_expected_at(observer)
                    received = result.packets_received_at(observer)
                    assert reliability[position] == (
                        1.0 if expected == 0 else received / expected
                    )
                    assert radio_on[position] == result.radio_on_at(observer) / (len(slots) + 1)
                    assert not missing[position]
                elif node in heard:
                    assert (radio_on[position], reliability[position]) == heard[node]
                    assert not missing[position]
                else:
                    missed_headers += 1
                    assert (radio_on[position], reliability[position]) == (20.0, 0.0)
                    assert missing[position]
        assert missed_headers > 0 and empty_slots > 0
