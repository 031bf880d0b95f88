"""Tests for the Dimmer controller and protocol runner."""

import pytest

from repro.core.config import DimmerConfig
from repro.core.protocol import DimmerProtocol
from repro.experiments.dynamic import build_protocol
from repro.experiments.scenarios import ambient_interference
from repro.net.interference import BurstJammer, CompositeInterference
from repro.net.node import ROLE_PASSIVE
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import kiel_testbed
from repro.rl.qnetwork import QNetwork
from repro.rl.quantized import QuantizedNetwork


@pytest.fixture()
def simulator(kiel):
    return NetworkSimulator(kiel, SimulatorConfig(seed=11, channel_hopping=False))


@pytest.fixture()
def protocol(simulator, untrained_network):
    config = DimmerConfig(channel_hopping=False, seed=2, calm_rounds_before_selection=2)
    return DimmerProtocol(simulator, untrained_network, config)


class TestProtocolBasics:
    def test_float_network_gets_quantized(self, simulator, untrained_network):
        protocol = DimmerProtocol(simulator, untrained_network, DimmerConfig(quantized_inference=True))
        assert isinstance(protocol.network, QuantizedNetwork)

    def test_float_inference_kept_when_requested(self, simulator, untrained_network):
        protocol = DimmerProtocol(
            simulator, untrained_network, DimmerConfig(quantized_inference=False)
        )
        assert isinstance(protocol.network, QNetwork)

    def test_round_result_fields(self, protocol, simulator):
        command = protocol.controller.next_command()
        result = protocol.run_round()
        assert result.round_index == 0
        assert result.start_ms == 0.0
        assert 0.0 <= result.reliability <= 1.0
        assert result.average_radio_on_ms > 0.0
        assert result.schedule.n_tx == command.n_tx
        assert result.schedule.forwarder_selection is command.forwarder_selection
        assert result.schedule.learning_node == command.learning_node
        assert len(simulator.active_forwarders()) >= 1

    def test_run_produces_history(self, protocol, simulator):
        results = protocol.run(4)
        assert results == simulator.round_history
        assert simulator.average_reliability() > 0.9
        assert simulator.average_radio_on_ms() > 0.0

    def test_negative_round_count_rejected(self, protocol):
        with pytest.raises(ValueError):
            protocol.run(-1)

    def test_ntx_stays_in_configured_range(self, protocol):
        config = protocol.config
        for _ in range(6):
            result = protocol.run_round()
            assert config.n_min <= result.schedule.n_tx <= config.n_max


@pytest.mark.parametrize("name", ["lwb", "pid", "dimmer"])
def test_run_round_returns_the_simulator_record(kiel, untrained_network, name):
    """Every protocol's round record is the simulator's own
    :class:`RoundResult`, not a copy of its fields."""
    simulator = NetworkSimulator(kiel, SimulatorConfig(seed=4, channel_hopping=False))
    protocol = build_protocol(name, simulator, untrained_network)
    for _ in range(3):
        result = protocol.run_round()
        assert result is simulator.round_history[-1]
    assert protocol.run(2) == simulator.round_history[-2:]


class TestControllerModes:
    def test_calm_network_enters_forwarder_selection(self, simulator, untrained_network):
        config = DimmerConfig(
            channel_hopping=False,
            calm_rounds_before_selection=2,
            seed=1,
        )
        protocol = DimmerProtocol(simulator, untrained_network, config)
        results = protocol.run(6)
        assert any(r.schedule.forwarder_selection for r in results[2:])

    def test_forwarder_selection_disabled_keeps_adaptivity(self, simulator, untrained_network):
        config = DimmerConfig(channel_hopping=False, enable_forwarder_selection=False, seed=1)
        protocol = DimmerProtocol(simulator, untrained_network, config)
        results = protocol.run(5)
        assert not any(r.schedule.forwarder_selection for r in results)

    def test_interference_suspends_forwarder_selection(self, kiel, untrained_network):
        simulator = NetworkSimulator(kiel, SimulatorConfig(seed=5, channel_hopping=False))
        simulator.set_interference(
            CompositeInterference([
                BurstJammer(position=p, interference_ratio=0.35, channels=None, range_m=9.0)
                for p in kiel.jammers
            ])
        )
        config = DimmerConfig(channel_hopping=False, calm_rounds_before_selection=3, seed=1)
        protocol = DimmerProtocol(simulator, untrained_network, config)
        results = protocol.run(6)
        # Under persistent heavy interference the controller stays in
        # adaptivity mode for (at least most of) the run.
        adaptivity_rounds = sum(not r.schedule.forwarder_selection for r in results)
        assert adaptivity_rounds >= 4

    def test_disable_adaptivity_freezes_ntx(self, simulator, untrained_network):
        config = DimmerConfig(
            channel_hopping=False,
            disable_adaptivity=True,
            enable_forwarder_selection=False,
            seed=1,
        )
        protocol = DimmerProtocol(simulator, untrained_network, config)
        results = protocol.run(5)
        assert all(r.schedule.n_tx == config.initial_n_tx for r in results)

    def test_passive_roles_applied_to_simulator(self, simulator, untrained_network):
        config = DimmerConfig(
            channel_hopping=False,
            disable_adaptivity=True,
            calm_rounds_before_selection=1,
            forwarder_learning_rounds=2,
            seed=3,
        )
        protocol = DimmerProtocol(simulator, untrained_network, config)
        saw_passive = False
        for _ in range(30):
            protocol.run_round()
            if (simulator.node_state.role_codes == ROLE_PASSIVE).any():
                saw_passive = True
                break
        assert saw_passive

    def test_store_roles_follow_every_command(self, simulator, untrained_network):
        """Each round applies its command's role codes to the simulator's
        store in one bulk write, the coordinator row included."""
        config = DimmerConfig(
            channel_hopping=False,
            disable_adaptivity=True,
            calm_rounds_before_selection=1,
            forwarder_learning_rounds=2,
            seed=3,
        )
        protocol = DimmerProtocol(simulator, untrained_network, config)
        for _ in range(12):
            command = protocol.controller.next_command()
            protocol.run_round()
            assert simulator.node_state.role_codes.tolist() == command.role_codes.tolist()

    def test_fig6_forwarder_count_matches_command_codes(self, kiel, untrained_network):
        """In the Fig. 6 configuration, the simulator's forwarder count
        after each round equals the non-passive codes of that round's
        command — the count the forwarder time series plots."""
        simulator = NetworkSimulator(
            kiel, SimulatorConfig(round_period_s=4.0, channel_hopping=False, seed=2)
        )
        simulator.set_interference(ambient_interference(rate=0.02, seed=5))
        config = DimmerConfig(
            channel_hopping=False,
            enable_forwarder_selection=True,
            disable_adaptivity=True,
            forwarder_learning_rounds=5,
            calm_rounds_before_selection=1,
            seed=2,
        )
        protocol = DimmerProtocol(simulator, untrained_network, config)
        counts = []
        for _ in range(120):
            command = protocol.controller.next_command()
            protocol.run_round()
            counts.append(len(simulator.active_forwarders()))
            assert counts[-1] == int((command.role_codes != ROLE_PASSIVE).sum())
        assert min(counts) < kiel.num_nodes

    def test_controller_reset(self, protocol):
        protocol.run(3)
        protocol.controller.reset()
        assert protocol.controller.n_tx == protocol.config.initial_n_tx
        assert protocol.controller.latest_view() is None
