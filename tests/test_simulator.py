"""Tests for the network simulator."""

import pytest

from repro.net.interference import BurstJammer, CompositeInterference, NoInterference
from repro.net.node import NodeRole
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import kiel_testbed


class TestSimulatorConfig:
    def test_defaults_match_paper(self):
        config = SimulatorConfig()
        assert config.round_period_s == pytest.approx(4.0)
        assert config.slot_ms == pytest.approx(20.0)
        assert config.packet_bytes == 30
        assert config.default_n_tx == 3

    def test_round_period_ms(self):
        assert SimulatorConfig(round_period_s=2.0).round_period_ms == pytest.approx(2000.0)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SimulatorConfig(round_period_s=0.0)
        with pytest.raises(ValueError):
            SimulatorConfig(slot_ms=0.0)
        with pytest.raises(ValueError):
            SimulatorConfig(default_n_tx=-1)


class TestSimulator:
    def test_round_advances_clock_and_counter(self, small_simulator):
        assert small_simulator.current_round == 0
        small_simulator.run_round(n_tx=3)
        assert small_simulator.current_round == 1
        assert small_simulator.time_ms == pytest.approx(1000.0)

    def test_clean_rounds_are_reliable(self, small_simulator):
        for _ in range(3):
            small_simulator.run_round(n_tx=3)
        assert small_simulator.average_reliability() == pytest.approx(1.0)

    def test_energy_accumulates(self, small_simulator):
        small_simulator.run_round(n_tx=3)
        first = small_simulator.total_energy_j()
        small_simulator.run_round(n_tx=3)
        assert small_simulator.total_energy_j() > first

    def test_reset_history_clears_accounting(self, small_simulator):
        small_simulator.run_round(n_tx=3)
        small_simulator.reset_history()
        assert small_simulator.total_energy_j() == pytest.approx(0.0)
        assert small_simulator.round_history == []

    def test_set_sources_validates(self, small_simulator):
        with pytest.raises(ValueError):
            small_simulator.set_sources([99])
        small_simulator.set_sources([1, 2])
        assert small_simulator.sources == [1, 2]

    def test_roles_update_forwarder_lists(self, small_simulator):
        node = [n for n in small_simulator.topology.node_ids if n != small_simulator.topology.coordinator][0]
        small_simulator.set_role(node, NodeRole.PASSIVE)
        assert node in small_simulator.node_state.passive_ids()
        assert node not in small_simulator.active_forwarders()

    def test_same_seed_gives_same_outcome(self):
        topo = kiel_testbed()
        results = []
        for _ in range(2):
            sim = NetworkSimulator(topo, SimulatorConfig(seed=42, channel_hopping=False))
            sim.set_interference(
                CompositeInterference([
                    BurstJammer(position=topo.jammers[0], interference_ratio=0.3, channels=None)
                ])
            )
            for _ in range(3):
                sim.run_round(n_tx=2)
            results.append(sim.average_reliability())
        assert results[0] == pytest.approx(results[1])

    def test_interference_reduces_reliability(self):
        topo = kiel_testbed()
        clean = NetworkSimulator(topo, SimulatorConfig(seed=1, channel_hopping=False))
        jammed = NetworkSimulator(topo, SimulatorConfig(seed=1, channel_hopping=False))
        jammed.set_interference(
            CompositeInterference([
                BurstJammer(position=p, interference_ratio=0.35, channels=None, range_m=8.0)
                for p in topo.jammers
            ])
        )
        for _ in range(5):
            clean.run_round(n_tx=1)
            jammed.run_round(n_tx=1)
        assert jammed.average_reliability() < clean.average_reliability()

    def test_schedule_built_over_sources(self, small_simulator):
        small_simulator.set_sources([1, 3])
        schedule = small_simulator.build_schedule(n_tx=4)
        assert schedule.slots == (1, 3)
        assert schedule.n_tx == 4

    def test_invalid_source_rejected_at_construction(self):
        topo = kiel_testbed()
        with pytest.raises(ValueError):
            NetworkSimulator(topo, sources=[999])

    def test_average_reliability_window(self, small_simulator):
        for _ in range(4):
            small_simulator.run_round(n_tx=3)
        assert small_simulator.average_reliability(last_n_rounds=2) == pytest.approx(1.0)
