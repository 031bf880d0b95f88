"""Tests for the baseline protocols (static LWB, PID, Crystal)."""

import numpy as np
import pytest

from repro.baselines.crystal import CrystalConfig, CrystalProtocol
from repro.baselines.pid import PIController, PIDConfig, PIDProtocol
from repro.baselines.static_lwb import StaticLWBProtocol
from repro.experiments.metrics import summarize_round_results
from repro.net.interference import BurstJammer, CompositeInterference, WifiInterference
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import kiel_testbed


class TestStaticLWB:
    def test_fixed_ntx_never_changes(self, kiel):
        simulator = NetworkSimulator(kiel, SimulatorConfig(seed=1, channel_hopping=False))
        lwb = StaticLWBProtocol(simulator, n_tx=3)
        results = lwb.run(4)
        assert all(r.schedule.n_tx == 3 for r in results)

    def test_clean_network_is_reliable(self, kiel):
        simulator = NetworkSimulator(kiel, SimulatorConfig(seed=1, channel_hopping=False))
        lwb = StaticLWBProtocol(simulator)
        lwb.run(4)
        assert simulator.average_reliability() > 0.98
        assert simulator.average_radio_on_ms() > 0.0

    def test_invalid_ntx_rejected(self, kiel):
        simulator = NetworkSimulator(kiel, SimulatorConfig(seed=1))
        with pytest.raises(ValueError):
            StaticLWBProtocol(simulator, n_tx=0)

    def test_negative_rounds_rejected(self, kiel):
        simulator = NetworkSimulator(kiel, SimulatorConfig(seed=1))
        with pytest.raises(ValueError):
            StaticLWBProtocol(simulator).run(-1)


class TestRoundAverages:
    def test_averages_pool_the_round_arrays(self, kiel):
        """The simulator's reliability is the exact integer packet-count
        ratio over the protocol's rounds, and the summarized radio-on
        time is the mean of the per-round values."""
        simulator = NetworkSimulator(kiel, SimulatorConfig(seed=3, channel_hopping=False))
        simulator.set_interference(
            CompositeInterference([
                BurstJammer(position=p, interference_ratio=0.35, channels=None, range_m=9.0)
                for p in kiel.jammers
            ])
        )
        lwb = StaticLWBProtocol(simulator, n_tx=1)
        results = lwb.run(5)
        for last in (None, 2):
            window = results if last is None else results[-last:]
            expected = sum(sum(r.packets_expected_array.tolist()) for r in window)
            received = sum(sum(r.packets_received_array.tolist()) for r in window)
            assert received < expected
            assert simulator.average_reliability(last) == received / expected
            assert summarize_round_results(window).radio_on_ms == pytest.approx(
                sum(r.average_radio_on_ms for r in window) / len(window)
            )

    def test_empty_history_defaults(self, kiel):
        simulator = NetworkSimulator(kiel, SimulatorConfig(seed=3))
        for protocol in (StaticLWBProtocol(simulator), PIDProtocol(simulator)):
            assert protocol.run(0) == []
        assert simulator.average_reliability() == 1.0
        assert simulator.average_radio_on_ms() == 0.0
        assert summarize_round_results(simulator.round_history).rounds == 0


class TestPIController:
    def test_initial_output_is_initial_ntx(self):
        controller = PIController(PIDConfig(initial_n_tx=3))
        assert controller.n_tx == 3

    def test_losses_drive_ntx_to_maximum(self):
        controller = PIController(PIDConfig())
        for _ in range(5):
            controller.update(reliability=0.3)
        assert controller.n_tx == 8

    def test_sustained_calm_decays_slowly(self):
        controller = PIController(PIDConfig(initial_n_tx=8))
        values = [controller.update(reliability=1.0) for _ in range(100)]
        assert values[-1] < 8
        assert values[-1] >= 1

    def test_output_clamped_to_range(self):
        controller = PIController(PIDConfig(n_min=2, n_max=6, initial_n_tx=3))
        for reliability in (0.0, 1.0, 0.0, 1.0):
            value = controller.update(reliability)
            assert 2 <= value <= 6

    def test_reset(self):
        controller = PIController(PIDConfig())
        controller.update(0.2)
        controller.reset()
        assert controller.n_tx == 3

    def test_invalid_reliability_rejected(self):
        with pytest.raises(ValueError):
            PIController().update(1.5)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PIDConfig(n_min=0)
        with pytest.raises(ValueError):
            PIDConfig(target_reliability=0.0)
        with pytest.raises(ValueError):
            PIDConfig(integral_decay=0.0)


class TestPIDProtocol:
    def test_reacts_to_interference(self, kiel):
        simulator = NetworkSimulator(kiel, SimulatorConfig(seed=2, channel_hopping=False))
        simulator.set_interference(
            CompositeInterference([
                BurstJammer(position=p, interference_ratio=0.35, channels=None, range_m=9.0)
                for p in kiel.jammers
            ])
        )
        pid = PIDProtocol(simulator)
        pid.run(6)
        assert pid.n_tx > 3

    def test_stays_low_when_calm(self, kiel):
        simulator = NetworkSimulator(kiel, SimulatorConfig(seed=2, channel_hopping=False))
        pid = PIDProtocol(simulator)
        results = pid.run(6)
        assert all(r.schedule.n_tx <= 4 for r in results)
        assert simulator.average_reliability() > 0.95

    def test_history_metrics(self, kiel):
        simulator = NetworkSimulator(kiel, SimulatorConfig(seed=2, channel_hopping=False))
        pid = PIDProtocol(simulator)
        results = pid.run(3)
        assert results == simulator.round_history
        assert summarize_round_results(results[-2:]).radio_on_ms > 0.0


class TestCrystal:
    def test_delivers_under_clean_conditions(self, kiel):
        crystal = CrystalProtocol(kiel, CrystalConfig(seed=0))
        rng = np.random.default_rng(0)
        for _ in range(8):
            source = int(rng.choice([n for n in kiel.node_ids if n != kiel.coordinator]))
            crystal.enqueue(source)
            crystal.run_epoch()
        assert crystal.reliability() > 0.95
        assert crystal.total_energy_j() > 0.0

    def test_high_reliability_under_wifi_interference(self, kiel):
        crystal = CrystalProtocol(
            kiel,
            CrystalConfig(seed=1),
            interference=WifiInterference(level=2, seed=3),
        )
        rng = np.random.default_rng(1)
        for _ in range(15):
            source = int(rng.choice([n for n in kiel.node_ids if n != kiel.coordinator]))
            crystal.enqueue(source)
            crystal.run_epoch()
        # Crystal retries across epochs until packets get through.
        assert crystal.reliability() > 0.85

    def test_noise_detection_extends_epochs(self, kiel):
        calm = CrystalProtocol(kiel, CrystalConfig(seed=2))
        jammed = CrystalProtocol(
            kiel,
            CrystalConfig(seed=2),
            interference=WifiInterference(level=2, seed=3),
        )
        for protocol in (calm, jammed):
            protocol.enqueue(5)
            protocol.run_epoch()
        assert jammed.history[0].ta_pairs_used >= calm.history[0].ta_pairs_used

    def test_pending_queue_management(self, kiel):
        crystal = CrystalProtocol(kiel, CrystalConfig(seed=0))
        crystal.enqueue(3, count=2)
        assert crystal.pending_count() == 2
        crystal.run_epoch()
        assert crystal.pending_count() <= 2

    def test_invalid_enqueue_rejected(self, kiel):
        crystal = CrystalProtocol(kiel)
        with pytest.raises(ValueError):
            crystal.enqueue(kiel.coordinator)
        with pytest.raises(ValueError):
            crystal.enqueue(999)
        with pytest.raises(ValueError):
            crystal.enqueue(3, count=-1)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CrystalConfig(n_tx=0)
        with pytest.raises(ValueError):
            CrystalConfig(max_ta_pairs=0)

    def test_empty_epoch_costs_little_energy(self, kiel):
        crystal = CrystalProtocol(kiel, CrystalConfig(seed=0))
        crystal.run_epoch()
        busy = CrystalProtocol(kiel, CrystalConfig(seed=0))
        busy.enqueue(5, count=3)
        busy.run_epoch()
        assert crystal.total_energy_j() < busy.total_energy_j()
