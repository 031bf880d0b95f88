"""Tests for the Glossy flood simulator."""

import numpy as np
import pytest

from repro.net.glossy import GlossyFlood
from repro.net.interference import BurstJammer, CompositeInterference
from repro.net.link import LinkModel
from repro.net.topology import grid_topology, kiel_testbed


@pytest.fixture()
def flood(kiel):
    return GlossyFlood(kiel, LinkModel(kiel, seed=0), rng=np.random.default_rng(0))


class TestCleanFloods:
    def test_flood_reaches_everyone_with_ntx_3(self, flood, kiel):
        result = flood.run(initiator=kiel.coordinator, n_tx=3)
        assert result.reliability == pytest.approx(1.0)
        assert set(result.receivers()) == set(kiel.node_ids)

    def test_initiator_counts_as_received(self, flood, kiel):
        result = flood.run(initiator=kiel.coordinator, n_tx=3)
        assert result.received_at(kiel.coordinator)
        assert result.reception_phase_array[result.node_ids.index(kiel.coordinator)] == 0

    def test_higher_ntx_means_more_radio_on(self, kiel):
        link = LinkModel(kiel, seed=0)
        low = GlossyFlood(kiel, link, rng=np.random.default_rng(1)).run(0, n_tx=1)
        high = GlossyFlood(kiel, link, rng=np.random.default_rng(1)).run(0, n_tx=8)
        assert high.average_radio_on_ms > low.average_radio_on_ms

    def test_radio_on_bounded_by_slot(self, flood, kiel):
        result = flood.run(initiator=0, n_tx=8, max_slot_ms=20.0)
        assert (result.radio_on_array <= 20.0 + 1e-9).all()

    def test_transmissions_bounded_by_ntx(self, flood):
        result = flood.run(initiator=0, n_tx=3)
        assert (result.transmissions_array <= 3).all()

    def test_initiator_transmits_at_least_once_even_with_ntx_zero(self, flood):
        result = flood.run(initiator=0, n_tx=0)
        assert result.transmissions_array[result.node_ids.index(0)] >= 1

    def test_passive_nodes_never_transmit(self, flood, kiel):
        n_tx = {node: 3 for node in kiel.node_ids}
        passive = [n for n in kiel.node_ids if n != 0][:4]
        for node in passive:
            n_tx[node] = 0
        result = flood.run(initiator=0, n_tx=n_tx)
        rows = [result.node_ids.index(node) for node in passive]
        assert (result.transmissions_array[rows] == 0).all()

    def test_passive_nodes_turn_off_early(self, flood, kiel):
        all_active = flood.run(initiator=0, n_tx=3)
        n_tx = {node: 3 for node in kiel.node_ids}
        passive = kiel.neighbors(0)[0]
        n_tx[passive] = 0
        with_passive = GlossyFlood(kiel, LinkModel(kiel, seed=0), rng=np.random.default_rng(0)).run(
            initiator=0, n_tx=n_tx
        )
        row = all_active.node_ids.index(passive)
        assert with_passive.node_ids == all_active.node_ids
        assert with_passive.radio_on_array[row] < all_active.radio_on_array[row]

    def test_hop_ordering_of_reception_phases(self, flood, kiel):
        result = flood.run(initiator=kiel.coordinator, n_tx=3)
        hops = kiel.hop_distances()
        one_hop = [n for n, h in hops.items() if h == 1]
        three_hop = [n for n, h in hops.items() if h == 3]
        phase = dict(zip(result.node_ids, result.reception_phase_array.tolist()))
        if one_hop and three_hop:
            earliest_far = min(phase[n] for n in three_hop if result.received_at(n))
            earliest_near = min(phase[n] for n in one_hop if result.received_at(n))
            assert earliest_near <= earliest_far


class TestFloodsUnderInterference:
    def _jamming(self, kiel, ratio):
        return CompositeInterference(
            [
                BurstJammer(position=p, interference_ratio=ratio, channels=None)
                for p in kiel.jammers
            ]
        )

    def test_jamming_reduces_reliability_at_low_ntx(self, kiel):
        link = LinkModel(kiel, seed=0)
        rng = np.random.default_rng(2)
        jam = self._jamming(kiel, 0.35)
        reliabilities = [
            GlossyFlood(kiel, link, rng=rng).run(0, n_tx=1, start_ms=i * 22.0, interference=jam).reliability
            for i in range(20)
        ]
        assert np.mean(reliabilities) < 0.98

    def test_more_retransmissions_help_under_jamming(self, kiel):
        link = LinkModel(kiel, seed=0)
        jam = self._jamming(kiel, 0.30)
        low_rng, high_rng = np.random.default_rng(3), np.random.default_rng(3)
        low = np.mean([
            GlossyFlood(kiel, link, rng=low_rng).run(0, n_tx=1, start_ms=i * 22.0, interference=jam).reliability
            for i in range(25)
        ])
        high = np.mean([
            GlossyFlood(kiel, link, rng=high_rng).run(0, n_tx=8, start_ms=i * 22.0, interference=jam).reliability
            for i in range(25)
        ])
        assert high > low

    def test_non_participants_do_not_receive(self, flood, kiel):
        participants = kiel.node_ids[:6]
        result = flood.run(initiator=0, n_tx=3, participants=participants)
        assert set(result.node_ids) == set(participants)


class TestValidation:
    def test_unknown_initiator_rejected(self, flood):
        with pytest.raises(ValueError):
            flood.run(initiator=99, n_tx=3)

    def test_negative_ntx_rejected(self, flood):
        with pytest.raises(ValueError):
            flood.run(initiator=0, n_tx=-1)

    def test_initiator_must_participate(self, flood, kiel):
        with pytest.raises(ValueError):
            flood.run(initiator=0, n_tx=3, participants=[1, 2, 3])
