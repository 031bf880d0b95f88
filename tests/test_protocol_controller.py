"""Tests for the Dimmer controller and protocol runner."""

import pytest

from repro.core.config import DimmerConfig
from repro.core.controller import ControllerMode
from repro.core.protocol import DimmerProtocol
from repro.net.interference import BurstJammer, CompositeInterference
from repro.net.node import NodeRole
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

    def test_round_summary_fields(self, protocol):
        summary = protocol.run_round()
        assert summary.round_index == 0
        assert 0.0 <= summary.reliability <= 1.0
        assert summary.average_radio_on_ms > 0.0
        assert summary.num_forwarders >= 1
        assert summary.mode in (ControllerMode.ADAPTIVITY, ControllerMode.FORWARDER_SELECTION)

    def test_run_produces_history(self, protocol):
        protocol.run(4)
        assert len(protocol.history) == 4
        assert protocol.average_reliability() > 0.9
        assert protocol.average_radio_on_ms() > 0.0

    def test_negative_round_count_rejected(self, protocol):
        with pytest.raises(ValueError):
            protocol.run(-1)

    def test_ntx_stays_in_configured_range(self, protocol):
        config = protocol.config
        for _ in range(6):
            summary = protocol.run_round()
            assert config.n_min <= summary.n_tx <= config.n_max


class TestControllerModes:
    def test_calm_network_enters_forwarder_selection(self, simulator, untrained_network):
        config = DimmerConfig(
            channel_hopping=False,
            calm_rounds_before_selection=2,
            seed=1,
        )
        protocol = DimmerProtocol(simulator, untrained_network, config)
        summaries = protocol.run(6)
        assert any(s.mode is ControllerMode.FORWARDER_SELECTION for s in summaries[2:])

    def test_forwarder_selection_disabled_keeps_adaptivity(self, simulator, untrained_network):
        config = DimmerConfig(channel_hopping=False, enable_forwarder_selection=False, seed=1)
        protocol = DimmerProtocol(simulator, untrained_network, config)
        summaries = protocol.run(5)
        assert all(s.mode is ControllerMode.ADAPTIVITY for s in summaries)

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
        summaries = protocol.run(6)
        # Under persistent heavy interference the controller stays in
        # adaptivity mode for (at least most of) the run.
        adaptivity_rounds = sum(s.mode is ControllerMode.ADAPTIVITY for s in summaries)
        assert adaptivity_rounds >= 4

    def test_disable_adaptivity_freezes_ntx(self, simulator, untrained_network):
        config = DimmerConfig(
            channel_hopping=False,
            disable_adaptivity=True,
            enable_forwarder_selection=False,
            seed=1,
        )
        protocol = DimmerProtocol(simulator, untrained_network, config)
        summaries = protocol.run(5)
        assert all(s.n_tx == config.initial_n_tx for s in summaries)

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
            if simulator.passive_receivers():
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

    def test_controller_reset(self, protocol):
        protocol.run(3)
        protocol.controller.reset()
        assert protocol.controller.n_tx == protocol.config.initial_n_tx
        assert protocol.controller.latest_view() is None
