"""Equivalence tests: vectorized vs scalar Glossy flood engine.

The two engines consume randomness differently (per-listener draws vs
one batched draw per phase), so individual floods differ; under a fixed
seed their *statistics* — reliability, radio-on time, transmission
counts — must agree across topologies and interference conditions.
"""

import numpy as np
import pytest

from repro.experiments.scenarios import jamming_interference
from repro.net.glossy import FLOOD_ENGINES, GlossyFlood
from repro.net.interference import BurstJammer
from repro.net.link import LinkModel
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import grid_topology, kiel_testbed, random_topology


def flood_statistics(topology, engine, seed, interference=None, floods=250, n_tx=2):
    """Aggregate reliability / radio-on / tx statistics over many floods."""
    link_model = LinkModel(topology, seed=1)
    flood = GlossyFlood(
        topology, link_model, rng=np.random.default_rng(seed), engine=engine
    )
    reliability, radio_on, transmissions = [], [], []
    for index in range(floods):
        result = flood.run(
            initiator=topology.node_ids[index % topology.num_nodes],
            n_tx=n_tx,
            interference=interference,
            start_ms=index * 20.0,
        )
        reliability.append(result.reliability)
        radio_on.append(result.average_radio_on_ms)
        transmissions.append(int(result.transmissions_array.sum()))
    return (
        float(np.mean(reliability)),
        float(np.mean(radio_on)),
        float(np.mean(transmissions)),
    )


DENSE = grid_topology(rows=4, cols=4, spacing_m=4.0, comm_range_m=12.0, name="dense")
SPARSE = grid_topology(rows=2, cols=8, spacing_m=7.5, comm_range_m=9.0, name="sparse")


class TestEngineEquivalence:
    @pytest.mark.parametrize("topology", [DENSE, SPARSE], ids=["dense", "sparse"])
    def test_clean_topology_statistics_agree(self, topology):
        scalar = flood_statistics(topology, "scalar", seed=42)
        vectorized = flood_statistics(topology, "vectorized", seed=42)
        assert vectorized[0] == pytest.approx(scalar[0], abs=0.02)  # reliability
        assert vectorized[1] == pytest.approx(scalar[1], rel=0.05)  # radio-on
        assert vectorized[2] == pytest.approx(scalar[2], rel=0.05)  # transmissions

    def test_interfered_topology_statistics_agree(self):
        topology = kiel_testbed()
        interference = jamming_interference(topology, 0.3)
        scalar = flood_statistics(topology, "scalar", seed=7, interference=interference)
        vectorized = flood_statistics(
            topology, "vectorized", seed=7, interference=interference
        )
        assert vectorized[0] == pytest.approx(scalar[0], abs=0.03)
        assert vectorized[1] == pytest.approx(scalar[1], rel=0.07)
        assert vectorized[2] == pytest.approx(scalar[2], rel=0.07)

    def test_random_topology_statistics_agree(self):
        topology = random_topology(30, seed=5)
        scalar = flood_statistics(topology, "scalar", seed=11, n_tx=3)
        vectorized = flood_statistics(topology, "vectorized", seed=11, n_tx=3)
        assert vectorized[0] == pytest.approx(scalar[0], abs=0.02)
        assert vectorized[1] == pytest.approx(scalar[1], rel=0.05)

    def test_jammed_region_blocks_both_engines(self):
        """A fully-jammed flood fails identically in both engines."""
        topology = grid_topology(rows=2, cols=2, spacing_m=4.0, comm_range_m=8.0)
        jammer = BurstJammer(
            position=(2.0, 2.0), interference_ratio=1.0, channels=None, range_m=50.0
        )
        for engine in FLOOD_ENGINES:
            flood = GlossyFlood(
                topology, rng=np.random.default_rng(0), engine=engine
            )
            result = flood.run(initiator=0, n_tx=3, interference=jammer)
            assert result.reliability == 0.0


class TestVectorizedSemantics:
    """Structural invariants the scalar reference also guarantees."""

    @pytest.fixture()
    def flood(self):
        topology = grid_topology(rows=3, cols=3, spacing_m=4.0, comm_range_m=12.0)
        return GlossyFlood(topology, rng=np.random.default_rng(3), engine="vectorized")

    def test_initiator_counts_as_received_in_phase_zero(self, flood):
        result = flood.run(initiator=4, n_tx=2)
        assert result.received_at(4)
        assert result.reception_phase_array[result.node_ids.index(4)] == 0

    def test_transmissions_respect_budget(self, flood):
        result = flood.run(initiator=0, n_tx=2)
        assert (result.transmissions_array <= 2).all()
        assert result.transmissions_array[result.node_ids.index(0)] >= 1

    def test_passive_receivers_never_transmit(self, flood):
        n_tx = {node: 0 for node in flood.topology.node_ids}
        n_tx[0] = 3
        result = flood.run(initiator=0, n_tx=n_tx)
        others = np.array(result.node_ids) != 0
        assert (result.transmissions_array[others] == 0).all()

    def test_non_participants_are_excluded(self, flood):
        participants = [0, 1, 2]
        result = flood.run(initiator=0, n_tx=2, participants=participants)
        assert sorted(result.node_ids) == participants

    def test_radio_on_bounded_by_slot(self, flood):
        result = flood.run(initiator=0, n_tx=3, max_slot_ms=10.0)
        assert ((result.radio_on_array >= 0.0) & (result.radio_on_array <= 10.0)).all()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            GlossyFlood(grid_topology(2, 2), engine="warp-drive")


class TestSimulatorEngineSelection:
    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            SimulatorConfig(engine="quantum")

    @pytest.mark.parametrize("engine", FLOOD_ENGINES)
    def test_round_runs_under_both_engines(self, engine):
        topology = grid_topology(rows=3, cols=3, spacing_m=4.0, comm_range_m=12.0)
        simulator = NetworkSimulator(
            topology,
            SimulatorConfig(seed=5, channel_hopping=False, engine=engine),
        )
        result = simulator.run_round(n_tx=2)
        assert result.reliability > 0.9

    def test_engines_agree_on_round_statistics(self):
        topology = kiel_testbed()
        outcomes = {}
        for engine in FLOOD_ENGINES:
            simulator = NetworkSimulator(
                topology,
                SimulatorConfig(seed=9, channel_hopping=False, engine=engine),
            )
            for _ in range(15):
                simulator.run_round(n_tx=2)
            outcomes[engine] = (
                simulator.average_reliability(),
                simulator.average_radio_on_ms(),
            )
        assert outcomes["vectorized"][0] == pytest.approx(outcomes["scalar"][0], abs=0.03)
        assert outcomes["vectorized"][1] == pytest.approx(outcomes["scalar"][1], rel=0.10)


class TestAcceptanceConfigurations:
    """Fixed-seed equivalence on the two ISSUE-mandated configurations:
    a pure periodic jammer and the zero-interference-ratio baseline."""

    def test_periodic_jammer_statistics_agree(self):
        topology = kiel_testbed()
        jammer = BurstJammer(
            position=topology.jammers[0], interference_ratio=0.3, channels=None
        )
        scalar = flood_statistics(topology, "scalar", seed=13, interference=jammer)
        vectorized = flood_statistics(topology, "vectorized", seed=13, interference=jammer)
        assert vectorized[0] == pytest.approx(scalar[0], abs=0.03)
        assert vectorized[1] == pytest.approx(scalar[1], rel=0.07)
        assert vectorized[2] == pytest.approx(scalar[2], rel=0.07)

    def test_zero_interference_ratio_statistics_agree(self):
        # interference_ratio=0 is the sweep's clean baseline point: the
        # jammer must behave exactly like no interference in both engines.
        topology = kiel_testbed()
        silent = BurstJammer(
            position=topology.jammers[0], interference_ratio=0.0, channels=None
        )
        scalar = flood_statistics(topology, "scalar", seed=17, interference=silent)
        vectorized = flood_statistics(topology, "vectorized", seed=17, interference=silent)
        clean_vectorized = flood_statistics(topology, "vectorized", seed=17)
        assert vectorized[0] == pytest.approx(scalar[0], abs=0.02)
        assert vectorized[1] == pytest.approx(scalar[1], rel=0.05)
        # The silent jammer consumes no extra randomness: identical stats.
        assert vectorized == clean_vectorized


class TestArrayBackedFloodResult:
    """The per-node arrays and the aggregates computed from them."""

    @pytest.fixture()
    def result(self):
        topology = grid_topology(rows=3, cols=3, spacing_m=4.0, comm_range_m=12.0)
        flood = GlossyFlood(topology, rng=np.random.default_rng(3), engine="vectorized")
        return flood.run(initiator=0, n_tx=2)

    def test_arrays_align_with_node_ids(self, result):
        count = len(result.node_ids)
        assert result.received_array.shape == (count,)
        assert result.reception_phase_array.shape == (count,)
        assert result.transmissions_array.shape == (count,)
        assert result.radio_on_array.shape == (count,)
        for i, node in enumerate(result.node_ids):
            assert result.received_at(node) == bool(result.received_array[i])
        assert not result.received_at(99)  # absent nodes did not receive

    def test_reception_phase_none_encoding(self, result):
        # -1 encodes "never received"; every receiver has a phase.
        received = result.received_array
        assert ((result.reception_phase_array >= 0) == received).all()
        assert (result.reception_phase_array[~received] == -1).all()

    def test_patched_receptions_change_aggregates(self, result):
        # Tests forge losses by patching the arrays in place.
        original = result.reliability
        victim = len(result.node_ids) - 1
        result.received_array[victim] = not result.received_array[victim]
        assert result.reliability != pytest.approx(original)
        assert result.received_at(result.node_ids[victim]) == bool(
            result.received_array[victim]
        )

    def test_aggregates_match_dict_formulas(self, result):
        received = dict(zip(result.node_ids, result.received_array.tolist()))
        radio_on = dict(zip(result.node_ids, result.radio_on_array.tolist()))
        destinations = [n for n in received if n != result.initiator]
        expected = sum(1 for n in destinations if received[n]) / len(destinations)
        assert result.reliability == pytest.approx(expected)
        assert result.average_radio_on_ms == pytest.approx(
            sum(radio_on.values()) / len(radio_on)
        )
        assert result.receivers() == sorted(n for n, ok in received.items() if ok)

    def test_scalar_and_vectorized_results_expose_same_api(self):
        topology = grid_topology(rows=2, cols=2, spacing_m=4.0, comm_range_m=8.0)
        for engine in FLOOD_ENGINES:
            flood = GlossyFlood(topology, rng=np.random.default_rng(1), engine=engine)
            result = flood.run(initiator=0, n_tx=2)
            assert set(result.node_ids) == set(topology.node_ids)
            assert result.received_array.dtype == bool
            assert result.transmissions_array.dtype == np.int64
            assert 0.0 <= result.reliability <= 1.0

    def test_boolean_participant_mask(self):
        topology = grid_topology(rows=2, cols=3, spacing_m=4.0, comm_range_m=12.0)
        flood = GlossyFlood(topology, rng=np.random.default_rng(2), engine="vectorized")
        mask = np.zeros(topology.num_nodes, dtype=bool)
        mask[[0, 1, 2]] = True
        result = flood.run(initiator=0, n_tx=2, participants=mask)
        assert sorted(result.node_ids) == [0, 1, 2]

    def test_per_node_n_tx_vector(self):
        topology = grid_topology(rows=2, cols=3, spacing_m=4.0, comm_range_m=12.0)
        flood = GlossyFlood(topology, rng=np.random.default_rng(2), engine="vectorized")
        n_tx = np.zeros(topology.num_nodes, dtype=np.int64)
        n_tx[0] = 3
        result = flood.run(initiator=0, n_tx=n_tx)
        others = np.array(result.node_ids) != 0
        assert (result.transmissions_array[others] == 0).all()

    def test_empty_result_with_absent_initiator(self):
        # An empty slot whose source missed the schedule: the source is
        # not among the listed nodes, so all three count as destinations.
        from repro.net.glossy import FloodResult

        empty = FloodResult.empty(
            initiator=99, node_ids=[1, 2, 3], slot_duration_ms=10.0, channel=26,
            radio_on_ms=10.0,
        )
        assert empty.reliability == 0.0
        missed = np.asarray(empty.node_ids)[~empty.received_array]
        assert sorted(missed.tolist()) == [1, 2, 3]
        assert empty.reception_phase_array.tolist() == [-1, -1, -1]
        assert empty.average_radio_on_ms == 10.0


class TestRunBatchParticipants:
    """``run_batch`` takes every participant form ``run`` takes."""

    @pytest.mark.parametrize("form", ["none", "mask", "ids", "subset_mask", "subset_ids"])
    def test_engines_agree_on_node_ids(self, kiel, form):
        ids = list(kiel.node_ids)
        subset = [node for node in ids if node != 5]
        full_mask = np.ones(len(ids), dtype=bool)
        subset_mask = np.array([node != 5 for node in ids])
        participants, expected = {
            "none": (None, ids),
            "mask": (full_mask, ids),
            "ids": (ids, ids),
            "subset_mask": (subset_mask, subset),
            "subset_ids": (subset, subset),
        }[form]
        for engine in FLOOD_ENGINES:
            flood = GlossyFlood(kiel, rng=np.random.default_rng(0), engine=engine)
            results = flood.run_batch([1, 2], 3, participants=participants)
            assert [result.node_ids for result in results] == [tuple(expected)] * 2, engine

    def test_initiator_outside_id_list_rejected(self, kiel):
        for engine in FLOOD_ENGINES:
            flood = GlossyFlood(kiel, rng=np.random.default_rng(0), engine=engine)
            with pytest.raises(ValueError, match="not among the participants"):
                flood.run_batch([1, 5], 3, participants=[0, 1, 2, 3])


def dcube_flood_digest():
    """SHA-256 over 200 vectorized single floods on the D-Cube deployment.

    Four blocks of 50 floods: clean and WiFi level 2, each under full
    participation and under a seeded partial participant mask.  The
    digest covers every result array and the generator state after each
    flood, so any change to the draws a flood consumes or to its
    outcome changes it.
    """
    import hashlib
    import json

    from repro.experiments.scenarios import dcube_wifi_interference
    from repro.net.topology import dcube_testbed

    topology = dcube_testbed()
    ids = list(topology.node_ids)
    flood = GlossyFlood(
        topology, LinkModel(topology, seed=3), rng=np.random.default_rng(11),
        engine="vectorized",
    )
    picker = np.random.default_rng(5)
    digest = hashlib.sha256()
    for level in (0, 2):
        interference = dcube_wifi_interference(topology, level, seed=4)
        for partial in (False, True):
            for index in range(50):
                initiator = ids[int(picker.integers(len(ids)))]
                participants = None
                if partial:
                    participants = picker.random(len(ids)) < 0.7
                    participants[ids.index(initiator)] = True
                result = flood.run(
                    initiator=initiator,
                    n_tx=int(picker.integers(1, 5)),
                    channel=int(picker.integers(11, 27)),
                    start_ms=index * 22.0,
                    interference=interference,
                    participants=participants,
                    max_slot_ms=20.0,
                )
                digest.update(json.dumps(list(result.node_ids)).encode())
                for array in (
                    result.received_array,
                    result.reception_phase_array,
                    result.transmissions_array,
                    result.radio_on_array,
                ):
                    digest.update(np.ascontiguousarray(array).tobytes())
                digest.update(
                    json.dumps(flood.rng.bit_generator.state, sort_keys=True).encode()
                )
    return digest.hexdigest()


#: Recorded before the single-flood early exit was added; the early exit
#: replays a fully decoded flood's tail in closed form and must leave
#: both the outcomes and the generator stream unchanged.
DCUBE_FLOOD_DIGEST = "8f7f923daad700fb29f7e592c3156a74092dbb93f954663d0d26518d55a830fe"


def test_dcube_single_flood_fingerprint():
    assert dcube_flood_digest() == DCUBE_FLOOD_DIGEST


def lone_flood_digest():
    """SHA-256 over vectorized lone floods the D-Cube digest does not reach.

    Kiel under ``jamming_interference(..., 0.2)`` (ambient interference
    plus two burst jammers, a composite source) in five blocks of 40
    floods: full participation; an initiator-only participant mask; a
    slot shorter than one phase; a per-node N_TX vector with passive (0)
    entries; and the mapping form of N_TX over a shuffled participant
    id list.  Like :func:`dcube_flood_digest` it covers every result
    array, the listed node ids and the generator state after each flood.
    """
    import hashlib
    import json

    topology = kiel_testbed()
    ids = list(topology.node_ids)
    interference = jamming_interference(topology, 0.2)
    flood = GlossyFlood(
        topology, LinkModel(topology, seed=2), rng=np.random.default_rng(13),
        engine="vectorized",
    )
    picker = np.random.default_rng(17)
    digest = hashlib.sha256()
    for block in ("full", "initiator_only", "short_slot", "n_tx_vector", "n_tx_mapping"):
        for index in range(40):
            initiator = ids[int(picker.integers(len(ids)))]
            n_tx = int(picker.integers(1, 5))
            participants = None
            max_slot_ms = 20.0
            if block == "initiator_only":
                participants = np.zeros(len(ids), dtype=bool)
                participants[ids.index(initiator)] = True
            elif block == "short_slot":
                max_slot_ms = 0.5
            elif block == "n_tx_vector":
                n_tx = picker.integers(0, 4, size=len(ids))
                n_tx[picker.random(len(ids)) < 0.4] = 0
            elif block == "n_tx_mapping":
                participants = [node for node in ids if picker.random() < 0.8 or node == initiator]
                picker.shuffle(participants)
                n_tx = {node: int(picker.integers(0, 4)) for node in participants}
            result = flood.run(
                initiator=initiator,
                n_tx=n_tx,
                channel=int(picker.integers(11, 27)),
                start_ms=index * 22.0,
                interference=interference,
                participants=participants,
                max_slot_ms=max_slot_ms,
            )
            digest.update(json.dumps(list(result.node_ids)).encode())
            for array in (
                result.received_array,
                result.reception_phase_array,
                result.transmissions_array,
                result.radio_on_array,
            ):
                digest.update(np.ascontiguousarray(array).tobytes())
            digest.update(json.dumps(flood.rng.bit_generator.state, sort_keys=True).encode())
    return digest.hexdigest()


#: Recorded while lone vectorized floods still had their own phase loop;
#: they now run as one-flood batches and must reproduce it bit for bit.
LONE_FLOOD_DIGEST = "e77da3c6454258af981e35c6416f5637cdd249e5a43bacdb9b86349b8c43f2fb"


def test_lone_flood_fingerprint():
    assert lone_flood_digest() == LONE_FLOOD_DIGEST
