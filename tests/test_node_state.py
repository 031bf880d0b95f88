"""Parity and fingerprint tests for the struct-of-arrays node state.

Two layers of guarantees:

* **Reference parity** — a :class:`NodeStateArray` behaves like the
  PR 2 per-node dataclasses (kept here as list- and dict-based
  reference implementations): roles and the coordinator demotion guard,
  ``n_tx`` handling, and the radio-on window behind the feedback
  header, summed bit for bit like a per-node list.
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
from repro.net.energy import RadioOnLedger
from repro.net.glossy import GlossyFlood
from repro.net.link import LinkModel
from repro.net.node import (
    ROLE_COORDINATOR,
    ROLE_FORWARDER,
    ROLE_PASSIVE,
    NodeRole,
    NodeStateArray,
)
from repro.net.packet import DimmerFeedbackHeader
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import kiel_testbed, random_topology


# ----------------------------------------------------------------------
# Reference implementations: the PR 2 per-node dataclasses.
# ----------------------------------------------------------------------
class LegacyRadioWindow:
    def __init__(self, window=8):
        self.window = window
        self.recent_ms = []
        self.total_ms = 0.0
        self.slot_count = 0

    def record_slot(self, radio_on_ms):
        if radio_on_ms < 0:
            raise ValueError("radio_on_ms must be non-negative")
        self.recent_ms.append(radio_on_ms)
        if len(self.recent_ms) > self.window:
            self.recent_ms.pop(0)
        self.total_ms += radio_on_ms
        self.slot_count += 1

    @property
    def recent_average_ms(self):
        if not self.recent_ms:
            return 0.0
        return sum(self.recent_ms) / len(self.recent_ms)


class LegacyStatistics:
    def __init__(self):
        self.packets_expected = 0
        self.packets_received = 0
        self.radio_on = LegacyRadioWindow()

    @property
    def reliability(self):
        if self.packets_expected == 0:
            return 1.0
        return self.packets_received / self.packets_expected

    def to_feedback(self):
        return DimmerFeedbackHeader(
            radio_on_ms=self.radio_on.recent_average_ms,
            reliability=self.reliability,
        )


class LegacyNode:
    def __init__(self, node_id, role=NodeRole.FORWARDER, n_tx=3):
        if n_tx < 0:
            raise ValueError("n_tx must be non-negative")
        self.node_id = node_id
        self.role = role
        self.n_tx = n_tx

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


_ROLE_CODES = {
    NodeRole.COORDINATOR: ROLE_COORDINATOR,
    NodeRole.FORWARDER: ROLE_FORWARDER,
    NodeRole.PASSIVE: ROLE_PASSIVE,
}


def make_store(num_nodes=5, coordinator=0):
    return NodeStateArray(list(range(num_nodes)), coordinator=coordinator)


def row_mask(store, node_id):
    mask = np.zeros(len(store.node_ids), dtype=bool)
    mask[store.index[node_id]] = True
    return mask


def header_of(store, row):
    """The Dimmer feedback header row ``row`` would send now."""
    (radio_on_ms,), (reliability,) = store.feedback_arrays(np.array([row]))
    return DimmerFeedbackHeader(radio_on_ms=float(radio_on_ms), reliability=float(reliability))


def recent_average(ledger, row):
    """One row's recent radio-on average."""
    return float(ledger.recent_averages_ms(np.array([row]))[0])


def slot_headers(result):
    """The header each data slot of ``result`` carried (``None`` if none)."""
    return [
        None
        if np.isnan(reliability)
        else DimmerFeedbackHeader(radio_on_ms=radio_on_ms, reliability=reliability)
        for radio_on_ms, reliability in zip(
            result.header_radio_on_array.tolist(), result.header_reliability_array.tolist()
        )
    ]


# ----------------------------------------------------------------------
# Parity against the legacy dataclasses
# ----------------------------------------------------------------------
class TestStoreMatchesLegacyNodes:
    def test_roles_and_demotion_guard(self):
        store = make_store()
        legacy = LegacyNode(0, role=NodeRole.COORDINATOR)
        assert store.role_codes[0] == ROLE_COORDINATOR
        with pytest.raises(ValueError):
            store.set_role(0, NodeRole.PASSIVE)
        with pytest.raises(ValueError):
            legacy.set_role(NodeRole.PASSIVE)
        assert store.role_codes[0] == ROLE_COORDINATOR

        legacy2 = LegacyNode(2)
        for role in (NodeRole.PASSIVE, NodeRole.FORWARDER, NodeRole.PASSIVE):
            store.set_role(2, role)
            legacy2.set_role(role)
            assert store.role_codes[2] == _ROLE_CODES[legacy2.role]
            assert (store.role_codes[2] == ROLE_PASSIVE) == legacy2.is_passive
            assert store.effective_n_tx()[2] == legacy2.effective_n_tx

    def test_apply_n_tx_parity(self):
        store = make_store()
        legacy = LegacyNode(1)
        for value in (0, 5, 2):
            store.apply_n_tx_where(row_mask(store, 1), value)
            legacy.apply_n_tx(value)
            assert store.n_tx[1] == legacy.n_tx
        with pytest.raises(ValueError):
            store.apply_n_tx_where(row_mask(store, 1), -1)
        with pytest.raises(ValueError):
            legacy.apply_n_tx(-1)
        with pytest.raises(ValueError):
            NodeStateArray([9], default_n_tx=-2)
        with pytest.raises(ValueError):
            LegacyNode(9, n_tx=-2)

    def test_feedback_header_matches_legacy_statistics(self):
        """Per-round counters plus one radio-on slot per round give the
        header a legacy node computes from its counters and slot list."""
        store = make_store()
        legacy = LegacyStatistics()
        rounds = [(4, 4, 4.0), (4, 3, 20.0), (2, 1, 1.25), (0, 0, 3.5)]
        for expected, received, radio in rounds:
            values = np.zeros(5)
            values[3] = radio
            store.record_round_statistics(
                np.full(5, expected), np.full(5, received), values
            )
            legacy.packets_expected = expected
            legacy.packets_received = received
            legacy.radio_on.record_slot(radio)
            assert store.reliability()[3] == legacy.reliability
            assert header_of(store, 3) == legacy.to_feedback()
        assert store.radio_on.total_ms[3] == legacy.radio_on.total_ms
        assert store.radio_on.slot_count == legacy.radio_on.slot_count

    def test_feedback_window_wrap_stays_bit_equal(self):
        """Past the window size the shared ring's chronological sum must
        equal the list-based sum bit for bit (same addition order), for
        every node and through the feedback header."""
        rng = np.random.default_rng(3)
        store = make_store(4)
        legacy = [LegacyStatistics() for _ in range(4)]
        for _ in range(3 * store.radio_on.window + 3):
            values = rng.random(4) * 20.0
            store.record_round_statistics(np.zeros(4), np.zeros(4), values)
            for row, statistics in enumerate(legacy):
                statistics.radio_on.record_slot(float(values[row]))
                assert recent_average(store.radio_on, row) == (
                    statistics.radio_on.recent_average_ms
                )
                assert header_of(store, row) == statistics.to_feedback()
                assert header_of(store, row).encode() == statistics.to_feedback().encode()
            # One call over all rows sums each column exactly as alone.
            assert store.radio_on.recent_averages_ms(np.arange(4)).tolist() == [
                s.radio_on.recent_average_ms for s in legacy
            ]
        assert store.radio_on.total_ms.tolist() == [s.radio_on.total_ms for s in legacy]


class TestNodeStateArray:
    def test_constructor_validation(self):
        store = NodeStateArray([4, 7, 2], coordinator=7)
        assert store.index == {4: 0, 7: 1, 2: 2}
        assert store.ids_array.tolist() == [4, 7, 2]
        assert store.role_codes.tolist() == [ROLE_FORWARDER, ROLE_COORDINATOR, ROLE_FORWARDER]
        with pytest.raises(ValueError):
            NodeStateArray([1, 1, 2])
        with pytest.raises(ValueError):
            NodeStateArray([1, 2], coordinator=3)

    def test_effective_n_tx_vector(self):
        store = make_store(4)
        store.set_role(1, NodeRole.PASSIVE)
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
        store = make_store(3, coordinator=1)
        codes = np.full(3, ROLE_PASSIVE, dtype=np.int8)
        store.set_role_codes(codes)
        assert store.role_codes.tolist() == [ROLE_PASSIVE, ROLE_COORDINATOR, ROLE_PASSIVE]
        assert store.forwarder_ids() == [1]
        assert store.passive_ids() == [0, 2]
        codes = np.full(3, ROLE_FORWARDER, dtype=np.int8)
        store.set_role_codes(codes)
        assert store.forwarder_ids() == [0, 1, 2]
        with pytest.raises(ValueError):
            store.set_role_codes(np.full(2, ROLE_FORWARDER, dtype=np.int8))

    def test_record_round_statistics_batches_all_nodes(self):
        store = make_store(3)
        store.record_round_statistics(
            np.array([4, 4, 4]), np.array([4, 2, 0]), np.array([1.0, 2.0, 3.0])
        )
        assert store.reliability().tolist() == [1.0, 0.5, 0.0]
        assert recent_average(store.radio_on, 1) == 2.0
        assert header_of(store, 1) == DimmerFeedbackHeader(radio_on_ms=2.0, reliability=0.5)

    def test_reliability_vector_idle_is_one(self):
        store = make_store(2)
        assert store.reliability().tolist() == [1.0, 1.0]


class TestRadioOnLedger:
    def test_vectorized_record_matches_per_node_lists(self):
        ledger = RadioOnLedger(3)
        trackers = [LegacyRadioWindow() for _ in range(3)]
        rng = np.random.default_rng(0)
        for _ in range(11):
            values = rng.random(3) * 20.0
            ledger.record_round(values)
            for i, tracker in enumerate(trackers):
                tracker.record_slot(float(values[i]))
        for i, tracker in enumerate(trackers):
            assert recent_average(ledger, i) == tracker.recent_average_ms
            assert ledger.total_ms[i] == tracker.total_ms
            assert ledger.slot_count == tracker.slot_count

    def test_validation(self):
        ledger = RadioOnLedger(2)
        with pytest.raises(ValueError):
            ledger.record_round(np.array([-1.0, 0.0]))
        with pytest.raises(ValueError):
            ledger.record_round(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            ledger.record_round(np.array([1.0, 2.0]), num_slots=0)
        with pytest.raises(ValueError):
            RadioOnLedger(2, window=0)

    def test_reset_forgets_everything(self):
        ledger = RadioOnLedger(2)
        ledger.record_round(np.array([5.0, 7.0]), num_slots=3)
        assert ledger.total_ms.tolist() == [15.0, 21.0]
        assert recent_average(ledger, 1) == 7.0
        ledger.reset()
        assert recent_average(ledger, 0) == recent_average(ledger, 1) == 0.0
        assert ledger.total_ms.tolist() == [0.0, 0.0]
        assert ledger.slot_count == 0


# ----------------------------------------------------------------------
# Round write-back: what a round leaves in the store
# ----------------------------------------------------------------------
class TestRoundWritesBackToStore:
    @pytest.mark.parametrize("ratio", [0.0, 0.25])
    def test_round_results_land_in_the_store(self, ratio):
        """Every round writes its synchronization, ``n_tx`` and
        statistics back into the store, and each executed data slot
        carries its source's header from the end of the last round."""
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
        store = NodeStateArray(topology.node_ids, coordinator=topology.coordinator)
        for i in range(4):
            n_tx = 2 + i % 2
            n_tx_before = store.n_tx.copy()
            headers_before = {
                node_id: header_of(store, row)
                for row, node_id in enumerate(topology.node_ids)
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
            assert (store.n_tx == np.where(store.synchronized, n_tx, n_tx_before)).all()
            for row in range(len(topology.node_ids)):
                expected = int(result.packets_expected_array[row])
                received = int(result.packets_received_array[row])
                assert header_of(store, row).reliability == (
                    1.0 if expected == 0 else received / expected
                )
            executed = [
                (flood, header)
                for flood, header in zip(result.slot_floods, slot_headers(result))
                if header is not None
            ]
            assert len(executed) == int(result.synchronized_array.sum())
            for flood, header in executed:
                assert header == headers_before[flood.initiator]


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
    # The last header each receiver decoded from each source, replayed
    # slot by slot from what the rounds report.
    overheard = {node_id: {} for node_id in topology.node_ids}
    for _ in range(rounds):
        result = simulator.run_round(n_tx=2)
        digest.update(result.synchronized_array.tobytes())
        digest.update(result.radio_on_array.tobytes())
        digest.update(result.packets_expected_array.tobytes())
        digest.update(result.packets_received_array.tobytes())
        for flood, header in zip(result.slot_floods, slot_headers(result)):
            digest.update(flood.received_array.tobytes())
            digest.update(flood.reception_phase_array.tobytes())
            digest.update(flood.transmissions_array.tobytes())
            digest.update(flood.radio_on_array.tobytes())
            if header is not None:
                digest.update(header.encode())
                for receiver in flood.receivers():
                    overheard[receiver][flood.initiator] = header
    digest.update(simulator.radio_on_totals.total_ms.tobytes())
    store = simulator.node_state
    for row, node_id in enumerate(topology.node_ids):
        for source, header in sorted(overheard[node_id].items()):
            digest.update(header.encode())
        digest.update(
            json.dumps(
                [
                    int(store.packets_expected[row]),
                    int(store.packets_received[row]),
                    round(recent_average(store.radio_on, row), 12),
                    round(float(store.radio_on.total_ms[row]), 12),
                    store.radio_on.slot_count,
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
