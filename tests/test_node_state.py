"""Parity and fingerprint tests for the struct-of-arrays node state.

Two layers of guarantees:

* **View parity** — ``Node`` / ``NodeStatistics`` views over a shared
  :class:`NodeStateArray` behave identically to the PR 2 per-node
  dataclasses (kept here as reference implementations): roles and the
  coordinator demotion guard, ``n_tx`` handling, feedback overhearing,
  statistics windows, and the radio-on accumulators.
* **Engine fingerprint** — the array round path reproduces the PR 2
  vectorized engine **bit for bit** under fixed seeds.  The digests
  below were captured from the PR 2 engine (commit 9cb1548) right
  before the node-state refactor; any change to RNG consumption,
  per-phase arithmetic, feedback encoding or statistics bookkeeping
  breaks them.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.scenarios import jamming_interference
from repro.net.energy import RadioOnColumns, RadioOnTracker
from repro.net.glossy import GlossyFlood
from repro.net.link import LinkModel
from repro.net.node import Node, NodeRole, NodeStateArray, NodeStatistics
from repro.net.packet import DimmerFeedbackHeader
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import kiel_testbed, random_topology


# ----------------------------------------------------------------------
# Reference implementations: the PR 2 per-node dataclasses.
# ----------------------------------------------------------------------
class LegacyNodeStatistics:
    def __init__(self):
        self.packets_expected = 0
        self.packets_received = 0
        self.radio_on = RadioOnTracker()

    @property
    def reliability(self):
        if self.packets_expected == 0:
            return 1.0
        return self.packets_received / self.packets_expected

    def record_slot(self, received, radio_on_ms, expected=True):
        if expected:
            self.packets_expected += 1
            if received:
                self.packets_received += 1
        self.radio_on.record_slot(radio_on_ms)

    def reset_window(self):
        self.packets_expected = 0
        self.packets_received = 0
        self.radio_on.reset_recent()

    def to_feedback(self):
        return DimmerFeedbackHeader(
            radio_on_ms=self.radio_on.recent_average_ms,
            reliability=self.reliability,
        )


class LegacyNode:
    def __init__(self, node_id, position, role=NodeRole.FORWARDER, n_tx=3):
        if n_tx < 0:
            raise ValueError("n_tx must be non-negative")
        self.node_id = node_id
        self.position = position
        self.role = role
        self.n_tx = n_tx
        self.synchronized = True
        self.statistics = LegacyNodeStatistics()
        self.neighbor_feedback = {}

    @property
    def is_coordinator(self):
        return self.role is NodeRole.COORDINATOR

    @property
    def is_passive(self):
        return self.role is NodeRole.PASSIVE

    @property
    def effective_n_tx(self):
        return 0 if self.is_passive else self.n_tx

    def apply_n_tx(self, n_tx):
        if n_tx < 0:
            raise ValueError("n_tx must be non-negative")
        self.n_tx = n_tx

    def set_role(self, role):
        if self.role is NodeRole.COORDINATOR and role is not NodeRole.COORDINATOR:
            raise ValueError("the coordinator cannot be demoted")
        self.role = role

    def observe_feedback(self, source, feedback):
        self.neighbor_feedback[source] = feedback


def make_store(num_nodes=5, coordinator=0):
    node_ids = list(range(num_nodes))
    positions = {node: (float(node), 0.0) for node in node_ids}
    return NodeStateArray(node_ids, positions=positions, coordinator=coordinator)


# ----------------------------------------------------------------------
# View parity against the legacy dataclasses
# ----------------------------------------------------------------------
class TestNodeViewParity:
    def test_roles_and_demotion_guard(self):
        store = make_store()
        view = store[0]
        legacy = LegacyNode(0, (0.0, 0.0), role=NodeRole.COORDINATOR)
        assert view.role is legacy.role is NodeRole.COORDINATOR
        assert view.is_coordinator and legacy.is_coordinator
        with pytest.raises(ValueError):
            view.set_role(NodeRole.PASSIVE)
        with pytest.raises(ValueError):
            legacy.set_role(NodeRole.PASSIVE)

        view2, legacy2 = store[2], LegacyNode(2, (2.0, 0.0))
        for role in (NodeRole.PASSIVE, NodeRole.FORWARDER, NodeRole.PASSIVE):
            view2.set_role(role)
            legacy2.set_role(role)
            assert view2.role is legacy2.role
            assert view2.is_passive == legacy2.is_passive
            assert view2.effective_n_tx == legacy2.effective_n_tx

    def test_apply_n_tx_parity(self):
        store = make_store()
        view, legacy = store[1], LegacyNode(1, (1.0, 0.0))
        for value in (0, 5, 2):
            view.apply_n_tx(value)
            legacy.apply_n_tx(value)
            assert view.n_tx == legacy.n_tx
        with pytest.raises(ValueError):
            view.apply_n_tx(-1)
        with pytest.raises(ValueError):
            legacy.apply_n_tx(-1)
        with pytest.raises(ValueError):
            Node(node_id=9, position=(0.0, 0.0), n_tx=-2)
        with pytest.raises(ValueError):
            LegacyNode(9, (0.0, 0.0), n_tx=-2)

    def test_statistics_parity(self):
        store = make_store()
        view = store[3].statistics
        legacy = LegacyNodeStatistics()
        slots = [(True, 4.0), (False, 20.0), (True, 1.25), (True, 3.5)]
        for received, radio in slots:
            view.record_slot(received, radio)
            legacy.record_slot(received, radio)
        assert view.packets_expected == legacy.packets_expected
        assert view.packets_received == legacy.packets_received
        assert view.reliability == legacy.reliability
        assert view.radio_on.total_ms == legacy.radio_on.total_ms
        assert view.radio_on.slot_count == legacy.radio_on.slot_count
        assert view.radio_on.recent_average_ms == legacy.radio_on.recent_average_ms
        assert view.to_feedback() == legacy.to_feedback()

        view.reset_window()
        legacy.reset_window()
        assert view.packets_expected == legacy.packets_expected == 0
        assert view.reliability == legacy.reliability == 1.0
        assert view.radio_on.recent_average_ms == legacy.radio_on.recent_average_ms == 0.0
        # Lifetime totals survive the window reset.
        assert view.radio_on.total_ms == legacy.radio_on.total_ms > 0.0

    def test_radio_window_wrap_stays_bit_equal(self):
        """Past the window size the ring's chronological sum must equal
        the legacy list-based sum bit for bit (same addition order)."""
        view = make_store()[0].statistics.radio_on
        legacy = RadioOnTracker()
        values = [1.1, 2.7, 0.3, 9.9, 4.2, 5.5, 6.25, 7.125, 8.0, 0.625, 3.3, 2.2]
        for value in values:
            view.record_slot(value)
            legacy.record_slot(value)
            assert view.recent_average_ms == legacy.recent_average_ms
            assert view.lifetime_average_ms == legacy.lifetime_average_ms

    def test_feedback_overhearing_parity(self):
        store = make_store()
        view, legacy = store[1], LegacyNode(1, (1.0, 0.0))
        first = DimmerFeedbackHeader(radio_on_ms=3.0, reliability=0.75)
        second = DimmerFeedbackHeader(radio_on_ms=1.0, reliability=1.0)
        for node in (view, legacy):
            node.observe_feedback(2, first)
            node.observe_feedback(4, second)
            node.observe_feedback(2, second)  # later header wins
        assert dict(view.neighbor_feedback) == dict(legacy.neighbor_feedback)
        assert len(view.neighbor_feedback) == len(legacy.neighbor_feedback) == 2
        assert view.neighbor_feedback[2] == second

    def test_standalone_node_matches_store_view(self):
        standalone = Node(node_id=7, position=(1.0, 2.0), role=NodeRole.PASSIVE, n_tx=0)
        assert standalone.is_passive
        assert standalone.effective_n_tx == 0
        standalone.observe_feedback(99, DimmerFeedbackHeader(radio_on_ms=2.0, reliability=0.5))
        assert 99 in standalone.neighbor_feedback
        standalone.statistics.record_slot(True, 5.0)
        assert standalone.statistics.reliability == 1.0
        standalone.reset_round()
        assert standalone.statistics.packets_expected == 0

    def test_standalone_statistics(self):
        stats = NodeStatistics()
        stats.record_slot(True, 2.0)
        stats.record_slot(False, 4.0)
        assert stats.packets_expected == 2
        assert stats.packets_received == 1
        assert stats.reliability == 0.5


class TestNodeStateArray:
    def test_mapping_protocol(self):
        store = make_store(4)
        assert len(store) == 4
        assert list(store) == [0, 1, 2, 3]
        assert store[2] is store[2]  # views are cached
        assert store.get(99) is None
        assert set(store.keys()) == {0, 1, 2, 3}
        with pytest.raises(KeyError):
            store[99]

    def test_effective_n_tx_vector(self):
        store = make_store(4)
        store[1].set_role(NodeRole.PASSIVE)
        store.n_tx[:] = 5
        assert store.effective_n_tx().tolist() == [5, 0, 5, 5]

    def test_apply_n_tx_where(self):
        store = make_store(4)
        mask = np.array([True, False, True, False])
        store.apply_n_tx_where(mask, 7)
        assert store.n_tx.tolist() == [7, 3, 7, 3]
        with pytest.raises(ValueError):
            store.apply_n_tx_where(mask, -1)

    def test_set_role_codes_protects_coordinator(self):
        from repro.net.node import ROLE_FORWARDER, ROLE_PASSIVE

        store = make_store(3, coordinator=1)
        codes = np.full(3, ROLE_PASSIVE, dtype=np.int8)
        store.set_role_codes(codes)
        assert store[1].is_coordinator
        assert store[0].is_passive and store[2].is_passive
        assert store.forwarder_ids() == [1]
        assert store.passive_ids() == [0, 2]
        codes = np.full(3, ROLE_FORWARDER, dtype=np.int8)
        store.set_role_codes(codes)
        assert store.forwarder_ids() == [0, 1, 2]

    def test_observe_feedback_rows_visible_through_views(self):
        store = make_store(4)
        feedback = DimmerFeedbackHeader(radio_on_ms=2.5, reliability=0.25)
        receivers = np.array([True, False, True, False])
        store.observe_feedback_rows(receivers, 3, feedback)
        assert store[0].neighbor_feedback[3] == feedback
        assert 3 not in store[1].neighbor_feedback
        assert store[2].neighbor_feedback[3] == feedback

    def test_record_round_statistics_batches_all_nodes(self):
        store = make_store(3)
        store.record_round_statistics(
            np.array([4, 4, 4]), np.array([4, 2, 0]), np.array([1.0, 2.0, 3.0])
        )
        assert store[0].statistics.reliability == 1.0
        assert store[1].statistics.reliability == 0.5
        assert store[2].statistics.reliability == 0.0
        assert store[1].statistics.radio_on.recent_average_ms == 2.0
        assert store.feedback_for(1) == store[1].statistics.to_feedback()

    def test_reliability_vector_idle_is_one(self):
        store = make_store(2)
        assert store.reliability().tolist() == [1.0, 1.0]


class TestRadioOnColumns:
    def test_vectorized_record_matches_scalar(self):
        columns = RadioOnColumns(3)
        trackers = [RadioOnTracker() for _ in range(3)]
        rng = np.random.default_rng(0)
        for _ in range(11):
            values = rng.random(3) * 20.0
            columns.record_slot_all(values)
            for i, tracker in enumerate(trackers):
                tracker.record_slot(float(values[i]))
        for i, tracker in enumerate(trackers):
            assert columns.view(i).recent_average_ms == tracker.recent_average_ms
            assert columns.view(i).total_ms == tracker.total_ms
            assert columns.view(i).slot_count == tracker.slot_count

    def test_validation(self):
        columns = RadioOnColumns(2)
        with pytest.raises(ValueError):
            columns.record_slot_all(np.array([-1.0, 0.0]))
        with pytest.raises(ValueError):
            columns.record_slot(0, -0.5)
        with pytest.raises(ValueError):
            RadioOnColumns(2, window=0)

    def test_reset_recent_single_column(self):
        columns = RadioOnColumns(2)
        columns.record_slot_all(np.array([5.0, 7.0]))
        columns.reset_recent(0)
        assert columns.recent_average_ms(0) == 0.0
        assert columns.recent_average_ms(1) == 7.0
        assert columns.view(0).total_ms == 5.0


# ----------------------------------------------------------------------
# Round write-back: what a round leaves in the store
# ----------------------------------------------------------------------
class TestRoundWritesBackToStore:
    @pytest.mark.parametrize("ratio", [0.0, 0.25])
    def test_round_results_land_in_the_store(self, ratio):
        """Every round writes its synchronization, ``n_tx``, statistics
        and overheard feedback headers back into the store, and each data
        slot carries its source's header from the end of the last round."""
        from repro.net.channels import ChannelHopper
        from repro.net.lwb import LWBRoundEngine, Schedule

        topology = kiel_testbed()
        interference = jamming_interference(topology, ratio) if ratio else None
        engine = LWBRoundEngine(
            topology,
            hopper=ChannelHopper(enabled=False),
            rng=np.random.default_rng(42),
            engine="vectorized",
        )
        store = NodeStateArray(
            topology.node_ids,
            positions=topology.positions,
            coordinator=topology.coordinator,
        )
        for i in range(4):
            n_tx = 2 + i % 2
            n_tx_before = {node_id: store[node_id].n_tx for node_id in topology.node_ids}
            headers_before = {
                node_id: store[node_id].statistics.to_feedback()
                for node_id in topology.node_ids
            }
            result = engine.run_round(
                store,
                Schedule(round_index=i, n_tx=n_tx, slots=tuple(topology.node_ids)),
                start_ms=i * 1000.0,
                interference=interference,
            )
            assert (store.synchronized == result.synchronized_array).all()
            assert (store.packets_expected == result.packets_expected_array).all()
            assert (store.packets_received == result.packets_received_array).all()
            for row, node_id in enumerate(topology.node_ids):
                node = store[node_id]
                assert node.n_tx == (n_tx if node.synchronized else n_tx_before[node_id])
                expected = int(result.packets_expected_array[row])
                received = int(result.packets_received_array[row])
                assert node.statistics.to_feedback().reliability == (
                    1.0 if expected == 0 else received / expected
                )
            executed = [slot for slot in result.slots if slot.feedback is not None]
            assert executed
            for slot in executed:
                assert slot.feedback == headers_before[slot.source]
                for receiver in slot.flood.receivers():
                    assert store[receiver].neighbor_feedback[slot.source] == slot.feedback


class TestBatchedFloodEquivalence:
    def test_run_batch_equals_sequential_runs(self):
        topology = random_topology(30, seed=5)
        interference = jamming_interference(topology, 0.2)
        link_a = LinkModel(topology, seed=1)
        link_b = LinkModel(topology, seed=1)
        flood_a = GlossyFlood(topology, link_a, rng=np.random.default_rng(9), engine="vectorized")
        flood_b = GlossyFlood(topology, link_b, rng=np.random.default_rng(9), engine="vectorized")

        initiators = [0, 5, 11, 3]
        starts = [100.0, 122.0, 144.0, 166.0]
        sequential = [
            flood_a.run(
                initiator=initiator,
                n_tx=2,
                channel=26,
                start_ms=start,
                interference=interference,
                max_slot_ms=20.0,
            )
            for initiator, start in zip(initiators, starts)
        ]
        batched = flood_b.run_batch(
            initiators=initiators,
            n_tx=2,
            channels=26,
            start_times=starts,
            interference=interference,
            max_slot_ms=20.0,
        )
        for a, b in zip(sequential, batched):
            assert (a.received_array == b.received_array).all()
            assert (a.reception_phase_array == b.reception_phase_array).all()
            assert (a.transmissions_array == b.transmissions_array).all()
            assert (a.radio_on_array == b.radio_on_array).all()

    def test_run_batch_with_participant_mask(self):
        topology = random_topology(20, seed=2)
        mask = np.ones(20, dtype=bool)
        mask[[4, 9]] = False
        flood_a = GlossyFlood(topology, rng=np.random.default_rng(1), engine="vectorized")
        flood_b = GlossyFlood(topology, rng=np.random.default_rng(1), engine="vectorized")
        sequential = [
            flood_a.run(initiator=i, n_tx=2, participants=mask, start_ms=s)
            for i, s in [(0, 0.0), (1, 22.0), (2, 44.0)]
        ]
        batched = flood_b.run_batch(
            initiators=[0, 1, 2], n_tx=2, participants=mask, start_times=[0.0, 22.0, 44.0]
        )
        for a, b in zip(sequential, batched):
            assert a.node_ids == b.node_ids
            assert (a.received_array == b.received_array).all()
            assert (a.radio_on_array == b.radio_on_array).all()

    def test_run_batch_rejects_non_participant_initiator(self):
        topology = random_topology(10, seed=2)
        flood = GlossyFlood(topology, rng=np.random.default_rng(1), engine="vectorized")
        mask = np.ones(10, dtype=bool)
        mask[3] = False
        with pytest.raises(ValueError):
            flood.run_batch(initiators=[3], n_tx=2, participants=mask)


# ----------------------------------------------------------------------
# Fixed-seed fingerprints vs the PR 2 vectorized engine
# ----------------------------------------------------------------------
#: Captured from the PR 2 engine (commit 9cb1548) under the exact
#: scenarios below; the array round path must reproduce them bit for bit.
PR2_FINGERPRINTS = {
    "kiel_clean": "38864bc2da56b3ebba5c1ed1a6f8657fe370bef417d5f8ea6d735642fac1ef95",
    "kiel_jammed": "1fea367df65b98343a5b4859c8fd5d8c2a9ccaf1caacc5b788efa8e7410dcf14",
    "kiel_passive": "e4168cc4b4fcd777b0658d3829ef404a07ec93780c67db4062aa6d62b5f90c34",
    "random50_jammed": "f792349fe44e9964faafc066a77f5220f94dcea0d1e7803f584f0aa2cc064000",
}


def round_fingerprint(topology, seed, rounds, ratio, passive=()):
    """Digest every observable of a fixed-seed round sequence."""
    simulator = NetworkSimulator(
        topology,
        SimulatorConfig(
            seed=seed, channel_hopping=False, round_period_s=1.0, engine="vectorized"
        ),
    )
    if ratio > 0:
        simulator.set_interference(jamming_interference(topology, ratio))
    for node in passive:
        simulator.set_role(node, NodeRole.PASSIVE)
    digest = hashlib.sha256()
    for _ in range(rounds):
        result = simulator.run_round(n_tx=2)
        digest.update(result.synchronized_array.tobytes())
        digest.update(result.radio_on_array.tobytes())
        digest.update(result.packets_expected_array.tobytes())
        digest.update(result.packets_received_array.tobytes())
        for slot in result.slots:
            digest.update(slot.flood.received_array.tobytes())
            digest.update(slot.flood.reception_phase_array.tobytes())
            digest.update(slot.flood.transmissions_array.tobytes())
            digest.update(slot.flood.radio_on_array.tobytes())
            if slot.feedback is not None:
                digest.update(slot.feedback.encode())
    digest.update(simulator.radio_on_totals.total_ms.tobytes())
    for node_id in topology.node_ids:
        node = simulator.nodes[node_id]
        for source in sorted(node.neighbor_feedback):
            digest.update(node.neighbor_feedback[source].encode())
        statistics = node.statistics
        digest.update(
            json.dumps(
                [
                    statistics.packets_expected,
                    statistics.packets_received,
                    round(statistics.radio_on.recent_average_ms, 12),
                    round(statistics.radio_on.total_ms, 12),
                    statistics.radio_on.slot_count,
                ]
            ).encode()
        )
    return digest.hexdigest()


class TestPR2Fingerprint:
    def test_kiel_clean(self, kiel):
        assert round_fingerprint(kiel, seed=11, rounds=6, ratio=0.0) == (
            PR2_FINGERPRINTS["kiel_clean"]
        )

    def test_kiel_jammed(self, kiel):
        assert round_fingerprint(kiel, seed=11, rounds=6, ratio=0.25) == (
            PR2_FINGERPRINTS["kiel_jammed"]
        )

    def test_kiel_with_passive_receivers(self, kiel):
        passive = tuple(n for n in kiel.node_ids if n != kiel.coordinator)[:4]
        assert round_fingerprint(kiel, seed=5, rounds=5, ratio=0.15, passive=passive) == (
            PR2_FINGERPRINTS["kiel_passive"]
        )

    def test_random50_jammed(self):
        topology = random_topology(50, seed=3)
        assert round_fingerprint(topology, seed=23, rounds=4, ratio=0.2) == (
            PR2_FINGERPRINTS["random50_jammed"]
        )
