"""Bit-for-bit parity: the ``"scalar"`` flood engine vs the per-node loop.

The scalar engine runs the NumPy phase loop of the vectorized engine,
but consumes randomness exactly like the per-node reference loop
(``run_reference`` of ``tests/reference_flood.py``): one draw
per listener with a non-zero reception probability, in participant
order, and failure products multiplied in participant order.  These
tests pin every observable of the two — per-node arrays and their order,
the aggregates, and the generator state afterwards — across
topologies, gray links, interference sources, participant forms, N_TX
forms and truncated slots.
"""

import functools

import numpy as np
import pytest

from repro.baselines.crystal import CrystalConfig, CrystalProtocol
from repro.experiments.scenarios import dcube_wifi_interference, jamming_interference
from repro.net.glossy import GlossyFlood
from repro.net.interference import BurstJammer
from repro.net.link import LinkModel
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import dcube_testbed, kiel_testbed, random_topology

from reference_flood import run_reference

TOPOLOGIES = {
    "kiel": kiel_testbed(),
    "dcube": dcube_testbed(),
    "random60": random_topology(60, seed=5),
}

INTERFERENCE = {
    "none": lambda topology: None,
    "jammer": lambda topology: BurstJammer(
        position=topology.positions[topology.coordinator], interference_ratio=0.3
    ),
    "wifi2": lambda topology: dcube_wifi_interference(topology, 2),
    "jammer+ambient": lambda topology: jamming_interference(topology, 0.4),
}

FLOODS_PER_CASE = 6


def _gray_link_model(topology, share=0.3, seed=0):
    """A link model with ``share`` of the in-range links forced into the gray zone."""
    model = LinkModel(topology, seed=1)
    prr = model.prr_matrix()
    ids = topology.node_ids
    senders, receivers = np.nonzero(np.triu(prr > 0.0, k=1))
    rng = np.random.default_rng(seed)
    chosen = rng.random(len(senders)) < share
    values = rng.uniform(0.05, 0.95, size=int(chosen.sum()))
    for a, b, value in zip(senders[chosen], receivers[chosen], values):
        model.set_link_quality(ids[a], ids[b], float(value))
    return model


def _flood_pair(topology, gray, seed=99, gray_share=0.3):
    """Two scalar-engine floods over equal link models and generators."""
    floods = []
    for _ in range(2):
        model = (
            _gray_link_model(topology, gray_share) if gray else LinkModel(topology, seed=1)
        )
        floods.append(
            GlossyFlood(topology, model, rng=np.random.default_rng(seed), engine="scalar")
        )
    return floods


def assert_identical(result, reference):
    """Every observable of ``result`` equals the per-node reference's."""
    assert result.node_ids == reference.node_ids
    for name in (
        "received_array",
        "reception_phase_array",
        "transmissions_array",
        "radio_on_array",
    ):
        values, expected = getattr(result, name), getattr(reference, name)
        assert values.dtype == expected.dtype, name
        assert values.tolist() == expected.tolist(), name
    assert result.reliability == reference.reliability
    assert result.average_radio_on_ms == reference.average_radio_on_ms
    assert result.slot_duration_ms == reference.slot_duration_ms
    assert result.channel == reference.channel


class _RecordedDraws:
    """Uniform draws that log the thresholds they are compared against."""

    def __init__(self, values, log):
        self.values = values
        self.log = log

    def __lt__(self, other):
        self.log.extend(np.atleast_1d(other).tolist())
        return self.values < other


class _ThresholdRecorder:
    """A generator stand-in recording every reception probability drawn against.

    It serves the values of a real generator, so floods evolve as usual;
    ``thresholds`` lists, draw by draw, the probability each draw was
    compared with.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.thresholds = []

    def random(self, size=None):
        return _RecordedDraws(self._rng.random(size), self.thresholds)


def _case_floods(topology, participants_kind, seed, floods=FLOODS_PER_CASE):
    """Keyword arguments of the floods of one case, drawn from ``seed``."""
    ids = topology.node_ids
    rng = np.random.default_rng(seed)
    cases = []
    for index in range(floods):
        initiator = ids[(index * 7) % len(ids)]
        if participants_kind == "all":
            participants = None
        elif participants_kind == "mask":
            participants = rng.random(len(ids)) < 0.8
            participants[ids.index(initiator)] = True
        else:
            shuffled = [int(node) for node in rng.permutation(ids)]
            participants = [
                node for node in shuffled if node == initiator or rng.random() < 0.85
            ]
        if index % 2:
            # A per-node map with passive receivers (N_TX = 0).
            n_tx = {node: int(rng.integers(0, 4)) for node in ids}
        else:
            n_tx = int(rng.integers(0, 5))
        cases.append(
            dict(
                initiator=initiator,
                n_tx=n_tx,
                channel=(26, 15, 12)[index % 3],
                start_ms=index * 23.0,
                participants=participants,
                # Every third flood runs out of slot before it ends.
                max_slot_ms=7.5 if index % 3 == 2 else None,
            )
        )
    return cases


class TestScalarEngineParity:
    @pytest.mark.parametrize("participants_kind", ["all", "mask", "shuffled"])
    @pytest.mark.parametrize("interference_kind", sorted(INTERFERENCE))
    @pytest.mark.parametrize("gray", [False, True], ids=["plain", "gray"])
    @pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
    def test_run_equals_per_node_loop(
        self, topology_name, gray, interference_kind, participants_kind
    ):
        topology = TOPOLOGIES[topology_name]
        interference = INTERFERENCE[interference_kind](topology)
        flood, oracle = _flood_pair(topology, gray)
        for kwargs in _case_floods(topology, participants_kind, seed=len(topology.node_ids)):
            result = flood.run(interference=interference, **kwargs)
            reference = run_reference(oracle, interference=interference, **kwargs)
            assert_identical(result, reference)
        # Both consumed the generator stream identically.
        assert flood.rng.random() == oracle.rng.random()

    @pytest.mark.parametrize("participants_kind", ["all", "shuffled"])
    @pytest.mark.parametrize("topology_name", ["dcube", "random60"])
    def test_draw_thresholds_equal_per_node_loop(self, topology_name, participants_kind):
        """Every draw meets the bit-identical probability, in the same order.

        Outcomes alone cannot pin the last bit of a probability (a draw
        lands between two adjacent doubles about once in 2**53), so this
        records what each draw is compared against.  Gray links make the
        multi-transmitter failure products order-sensitive in the last
        bit and ``1 - (1 - prr)`` differ from ``prr``; with every link
        gray, most multi-transmitter phases carry three or more
        non-trivial factors.
        """
        topology = TOPOLOGIES[topology_name]
        interference = INTERFERENCE["jammer+ambient"](topology)
        flood, oracle = _flood_pair(topology, gray=True, gray_share=1.0)
        flood.rng, oracle.rng = _ThresholdRecorder(5), _ThresholdRecorder(5)
        for kwargs in _case_floods(topology, participants_kind, seed=1, floods=16):
            assert_identical(
                flood.run(interference=interference, **kwargs),
                run_reference(oracle, interference=interference, **kwargs),
            )
        assert len(oracle.rng.thresholds) > 0
        assert flood.rng.thresholds == oracle.rng.thresholds

    @pytest.mark.parametrize("interference_kind", ["none", "jammer+ambient"])
    def test_run_batch_equals_per_node_loop(self, interference_kind):
        topology = TOPOLOGIES["dcube"]
        interference = INTERFERENCE[interference_kind](topology)
        flood, oracle = _flood_pair(topology, gray=True)
        ids = topology.node_ids
        mask = np.random.default_rng(3).random(len(ids)) < 0.9
        initiators = [node for node in ids if mask[ids.index(node)]][:5]
        n_tx = {node: 1 + node % 3 for node in ids}
        channels = [26, 15, 20, 12, 26]
        starts = [index * 22.0 for index in range(len(initiators))]
        batch = flood.run_batch(
            initiators,
            n_tx,
            channels=channels,
            start_times=starts,
            interference=interference,
            participants=mask,
        )
        assert len(batch) == len(initiators)
        for k, initiator in enumerate(initiators):
            reference = run_reference(
                oracle,
                initiator,
                n_tx,
                channel=channels[k],
                start_ms=starts[k],
                interference=interference,
                participants=mask,
            )
            assert_identical(batch[k], reference)
        assert flood.rng.random() == oracle.rng.random()

    def test_lwb_rounds_equal_per_node_loop(self):
        """Whole simulator rounds (control slot + data slots) match."""
        topology = TOPOLOGIES["kiel"]
        simulators = []
        for _ in range(2):
            simulator = NetworkSimulator(
                topology, SimulatorConfig(seed=4, engine="scalar", round_period_s=1.0)
            )
            simulator.set_interference(jamming_interference(topology, 0.3))
            simulators.append(simulator)
        oracle_flood = simulators[1].engine.flood
        oracle_flood.run = functools.partial(run_reference, oracle_flood)
        for n_tx in (1, 3, 5, 2, 1, 3, 5, 2):
            results = [simulator.run_round(n_tx=n_tx) for simulator in simulators]
            assert results[0].reliability == results[1].reliability
            assert results[0].average_radio_on_ms == results[1].average_radio_on_ms
            assert_identical(results[0].control_flood, results[1].control_flood)
            for flood, reference in zip(results[0].slot_floods, results[1].slot_floods):
                assert_identical(flood, reference)

    def test_crystal_epochs_equal_per_node_loop(self):
        """Crystal floods on the default (scalar) engine."""
        topology = TOPOLOGIES["dcube"]
        protocols = [
            CrystalProtocol(
                topology,
                CrystalConfig(seed=7),
                interference=dcube_wifi_interference(topology, 2),
            )
            for _ in range(2)
        ]
        assert protocols[0].flood.engine == "scalar"
        protocols[1].flood.run = functools.partial(run_reference, protocols[1].flood)
        sources = [node for node in topology.node_ids if node != protocols[0].sink][:5]
        for epoch in range(6):
            summaries = []
            for protocol in protocols:
                for source in sources[: 1 + epoch % len(sources)]:
                    protocol.enqueue(source)
                summaries.append(protocol.run_epoch())
            assert summaries[0] == summaries[1]
        assert protocols[0].delivered_packets == protocols[1].delivered_packets
        assert protocols[0].rng.random() == protocols[1].rng.random()
