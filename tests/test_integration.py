"""End-to-end integration tests across the full stack."""

import pytest

from repro.baselines.pid import PIDProtocol
from repro.baselines.static_lwb import StaticLWBProtocol
from repro.core.config import DimmerConfig
from repro.core.protocol import DimmerProtocol
from repro.experiments.scenarios import jamming_interference
from repro.experiments.training import load_pretrained_agent
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import dcube_testbed, kiel_testbed


@pytest.fixture(scope="module")
def pretrained():
    """The network shipped with the repository (trained on the 18-node testbed)."""
    return load_pretrained_agent(allow_training=False).online


@pytest.fixture()
def testbed():
    return kiel_testbed()


def make_simulator(topology, seed=0, interference_ratio=0.0):
    simulator = NetworkSimulator(topology, SimulatorConfig(seed=seed, channel_hopping=False))
    simulator.set_interference(jamming_interference(topology, interference_ratio))
    return simulator


class TestTrainedDimmerBehaviour:
    def test_calm_network_settles_near_ntx_3(self, pretrained, testbed):
        protocol = DimmerProtocol(
            make_simulator(testbed, seed=3),
            pretrained,
            DimmerConfig(channel_hopping=False, enable_forwarder_selection=False),
        )
        results = protocol.run(20)
        late_n_tx = [r.schedule.n_tx for r in results[10:]]
        assert 1 <= sum(late_n_tx) / len(late_n_tx) <= 4.5
        assert protocol.simulator.average_reliability() > 0.97

    def test_interference_raises_ntx(self, pretrained, testbed):
        protocol = DimmerProtocol(
            make_simulator(testbed, seed=4, interference_ratio=0.30),
            pretrained,
            DimmerConfig(channel_hopping=False, enable_forwarder_selection=False),
        )
        results = protocol.run(25)
        late_n_tx = [r.schedule.n_tx for r in results[10:]]
        assert max(late_n_tx) >= 4

    def test_dimmer_beats_static_lwb_under_interference(self, pretrained, testbed):
        dimmer = DimmerProtocol(
            make_simulator(testbed, seed=5, interference_ratio=0.30),
            pretrained,
            DimmerConfig(channel_hopping=False, enable_forwarder_selection=False),
        )
        lwb = StaticLWBProtocol(make_simulator(testbed, seed=5, interference_ratio=0.30), n_tx=3)
        dimmer.run(25)
        lwb.run(25)
        assert dimmer.simulator.average_reliability(
            last_n_rounds=15
        ) >= lwb.simulator.average_reliability(last_n_rounds=15)

    def test_dimmer_no_more_radio_on_than_pid_across_dynamic_scenario(self, pretrained, testbed):
        """The Fig. 4c/4d claim: similar reliability, Dimmer spends less radio-on
        time than the overshooting PID across a calm/jammed/calm timeline."""
        from repro.experiments.dynamic import run_dynamic_experiment

        dimmer = run_dynamic_experiment(
            "dimmer", network=pretrained, topology=testbed, time_scale=0.15, seed=6
        )
        pid = run_dynamic_experiment("pid", topology=testbed, time_scale=0.15, seed=6)
        # Comparable performance on a compressed timeline (the full-length
        # benchmark reports the actual gap); Dimmer must not be wildly worse.
        assert dimmer.metrics.radio_on_ms <= pid.metrics.radio_on_ms + 2.5
        assert dimmer.metrics.reliability >= pid.metrics.reliability - 0.05
        # And Dimmer must actually adapt: N_TX during the 30 % jamming window
        # exceeds its calm-period setting.
        scale = 0.15 * 60.0
        assert dimmer.n_tx_during(7 * scale, 12 * scale) > dimmer.n_tx_during(0, 7 * scale)

    def test_same_network_runs_on_dcube_without_retraining(self, pretrained):
        topology = dcube_testbed()
        simulator = NetworkSimulator(topology, SimulatorConfig(seed=7, round_period_s=1.0))
        protocol = DimmerProtocol(
            simulator,
            pretrained,
            DimmerConfig(round_period_s=1.0, enable_forwarder_selection=False),
        )
        sources = [n for n in topology.node_ids if n != topology.coordinator][:5]
        results = protocol.run(5, sources=sources, destinations=[topology.coordinator])
        assert len(results) == 5
        assert all(1 <= r.schedule.n_tx <= 8 for r in results)
