"""Tests for the baseline protocols (static LWB, PID, Crystal)."""

import numpy as np
import pytest

from repro.baselines.crystal import CrystalConfig, CrystalProtocol
from repro.baselines.pid import PIController, PIDConfig, PIDProtocol
from repro.baselines.static_lwb import StaticLWBProtocol
from repro.experiments.metrics import summarize_round_results
from repro.experiments.scenarios import dcube_wifi_interference, jamming_interference
from repro.net.glossy import GlossyFlood, run_lockstep
from repro.net.interference import BurstJammer, CompositeInterference, WifiInterference
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import dcube_testbed, kiel_testbed

import reference_interference as reference


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

    @pytest.mark.parametrize("case", ["dcube-wifi1", "dcube-wifi2", "kiel-jamming"])
    def test_noise_row_equals_reference_penalty(self, case):
        """The sink's one-window ``penalty_windows`` row that noise
        detection samples equals the scalar reference penalty exactly,
        not only in its ``> 0.05`` decision."""
        if case == "kiel-jamming":
            topology = kiel_testbed()
            interference = jamming_interference(topology, 0.3)
        else:
            topology = dcube_testbed()
            interference = dcube_wifi_interference(topology, int(case[-1]))
        crystal = CrystalProtocol(topology, CrystalConfig(seed=0), interference=interference)
        sink = topology.positions[crystal.sink]
        slot_ms = crystal.config.slot_ms
        penalties = []
        for start in np.arange(0.0, 3000.0, 4.7).tolist():
            for channel in (11, 15, 20, 26):
                row = interference.penalty_windows(
                    crystal._sink_position, np.array([start]), slot_ms, channel
                )
                expected = reference.penalty(interference, sink, start, slot_ms, channel)
                assert row.shape == (1, 1)
                assert row[0, 0] == expected, (start, channel)
                assert crystal._noise_detected(start, channel) == (expected > 0.05)
                penalties.append(expected)
        # The grid reaches both decisions.
        assert min(penalties) == 0.0 and max(penalties) > 0.05

    def test_lockstep_epochs_equal_solo_epochs(self):
        """Two Crystal protocols driven by ``run_lockstep`` over their
        ``epoch_steps`` give the summaries of their solo ``run_epoch``
        and leave every generator in the same state."""
        topology = dcube_testbed()

        def build():
            return [
                CrystalProtocol(
                    topology,
                    CrystalConfig(seed=seed),
                    interference=dcube_wifi_interference(topology, level),
                )
                for seed, level in ((3, 1), (4, 2))
            ]

        lockstep, solo = build(), build()
        sources = [node for node in topology.node_ids if node != topology.coordinator][:4]
        for epoch in range(5):
            for protocol in lockstep + solo:
                for source in sources[: 1 + epoch % len(sources)]:
                    protocol.enqueue(source)
            stepped = run_lockstep([protocol.epoch_steps() for protocol in lockstep])
            alone = [protocol.run_epoch() for protocol in solo]
            assert stepped == alone
        for a, b in zip(lockstep, solo):
            assert a.history == b.history
            assert a.radio_on_totals.total_ms.tolist() == b.radio_on_totals.total_ms.tolist()
            assert a.rng.bit_generator.state == b.rng.bit_generator.state

    def test_epoch_floods_run_through_run_batch_only(self, kiel, monkeypatch):
        """Every Crystal flood is a request that ``run_batch`` runs;
        Crystal never calls the one-flood ``GlossyFlood.run`` itself
        (the scalar engine's ``run_batch`` runs its floods through it)."""
        calls = []
        inside_batch = []
        run, run_batch = GlossyFlood.run, GlossyFlood.run_batch

        def guarded_run(flood, *args, **kwargs):
            assert inside_batch, "Crystal called GlossyFlood.run"
            return run(flood, *args, **kwargs)

        def counting_run_batch(flood, *args, **kwargs):
            calls.append(flood)
            inside_batch.append(flood)
            try:
                return run_batch(flood, *args, **kwargs)
            finally:
                inside_batch.pop()

        monkeypatch.setattr(GlossyFlood, "run", guarded_run)
        monkeypatch.setattr(GlossyFlood, "run_batch", counting_run_batch)
        crystal = CrystalProtocol(
            kiel, CrystalConfig(seed=5), interference=WifiInterference(level=2, seed=3)
        )
        sources = [node for node in kiel.node_ids if node != kiel.coordinator][:3]
        for _ in range(4):
            for source in sources:
                crystal.enqueue(source)
            crystal.run_epoch()
        assert crystal.delivered_packets > 0
        # At least the S slot of every epoch and one T and A slot per delivery.
        assert len(calls) >= 4 + 2 * crystal.delivered_packets
        assert all(flood is crystal.flood for flood in calls)

    def test_epoch_steps_request_one_slot_flood_each(self, kiel):
        """``epoch_steps`` asks for one flood per slot: the sink's S slot
        first, slots on the epoch's slot grid in increasing order, and an
        A slot from the sink on the T slot's channel after every T slot
        the sink received."""
        crystal = CrystalProtocol(kiel, CrystalConfig(seed=6))
        config = crystal.config
        period_ms = config.slot_ms + config.slot_gap_ms
        sources = [node for node in kiel.node_ids if node != kiel.coordinator][:3]
        for source in sources:
            crystal.enqueue(source, count=2)
        epoch_start_ms = crystal.time_ms
        steps = crystal.epoch_steps()
        requests, results = [], []
        try:
            request = next(steps)
            while True:
                requests.append(request)
                results.append(request.run())
                request = steps.send(results[-1])
        except StopIteration as stop:
            summary = stop.value
        assert requests[0].initiators == [crystal.sink]
        assert requests[0].channels == [crystal.hopper.control_channel()]
        slot_indices = []
        for request in requests:
            assert request.flood is crystal.flood
            assert len(request.initiators) == 1
            assert request.n_tx == config.n_tx
            assert request.max_slot_ms == config.slot_ms
            assert request.interference is crystal.interference
            (start,) = request.start_times
            slot_index = (start - epoch_start_ms) / period_ms
            assert slot_index == int(slot_index)
            slot_indices.append(int(slot_index))
        assert slot_indices == sorted(set(slot_indices))
        acknowledged = 0
        for position, (request, (result,)) in enumerate(zip(requests, results)):
            if position == 0 or request.initiators[0] == crystal.sink:
                continue
            if result.received_at(crystal.sink):
                ack = requests[position + 1]
                assert ack.initiators == [crystal.sink]
                assert ack.channels == request.channels
                assert slot_indices[position + 1] == slot_indices[position] + 1
                acknowledged += 1
        assert acknowledged == len(summary.delivered) > 0
        assert summary is crystal.history[-1]
