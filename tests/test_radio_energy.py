"""Tests for the radio and energy models."""

import numpy as np
import pytest

from repro.baselines.crystal import CrystalConfig, CrystalProtocol
from repro.net.energy import EnergyModel, RadioOnLedger
from repro.net.radio import RadioModel, RadioState
from repro.net.simulator import NetworkSimulator, SimulatorConfig


class TestRadioModel:
    def test_listen_draws_more_than_off(self):
        radio = RadioModel()
        assert radio.power_mw(RadioState.LISTEN) > radio.power_mw(RadioState.OFF)

    def test_energy_scales_with_duration(self):
        radio = RadioModel()
        assert radio.energy_mj(RadioState.LISTEN, 20.0) == pytest.approx(
            2 * radio.energy_mj(RadioState.LISTEN, 10.0)
        )

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            RadioModel().energy_mj(RadioState.LISTEN, -1.0)

    def test_radio_on_energy_between_pure_rx_and_tx(self):
        radio = RadioModel()
        mixed = radio.radio_on_energy_mj(10.0, tx_fraction=0.5)
        rx_only = radio.energy_mj(RadioState.LISTEN, 10.0)
        tx_only = radio.energy_mj(RadioState.TRANSMIT, 10.0)
        assert min(rx_only, tx_only) <= mixed <= max(rx_only, tx_only)

    def test_invalid_tx_fraction_rejected(self):
        with pytest.raises(ValueError):
            RadioModel().radio_on_energy_mj(10.0, tx_fraction=1.5)

    def test_phase_duration_close_to_airtime(self):
        radio = RadioModel()
        phase = radio.phase_duration_ms(30)
        assert 1.0 < phase < 2.5

    def test_max_slot_is_20ms(self):
        assert RadioModel().max_slot_ms == pytest.approx(20.0)


class TestRadioOnLedger:
    def test_recent_average_over_window(self):
        ledger = RadioOnLedger(1, window=3)
        for value in (2.0, 4.0, 6.0, 8.0):
            ledger.record_round(np.array([value]))
        assert ledger.recent_averages_ms(np.array([0]))[0] == pytest.approx((4.0 + 6.0 + 8.0) / 3)

    def test_totals_count_everything(self):
        ledger = RadioOnLedger(1, window=2)
        for value in (2.0, 4.0, 6.0):
            ledger.record_round(np.array([value]))
        assert ledger.total_ms[0] / ledger.slot_count == pytest.approx(4.0)
        assert ledger.slot_count == 3

    def test_empty_ledger_is_zero(self):
        ledger = RadioOnLedger(2)
        assert ledger.recent_averages_ms(np.array([0, 1])).tolist() == [0.0, 0.0]
        assert ledger.total_ms.tolist() == [0.0, 0.0]
        assert ledger.slot_count == 0

    def test_multi_slot_round_fills_window(self):
        ledger = RadioOnLedger(2, window=4)
        ledger.record_round(np.array([1.0, 3.0]), num_slots=6)
        assert ledger.slot_count == 6
        assert ledger.total_ms.tolist() == [6.0, 18.0]
        assert ledger.recent_averages_ms(np.array([1, 0])).tolist() == [3.0, 1.0]

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            RadioOnLedger(1).record_round(np.array([-1.0]))


class TestEnergyModel:
    def test_energy_is_linear_in_radio_on_time(self):
        model = EnergyModel()
        assert model.energy_j(30.0) == pytest.approx(3 * model.energy_j(10.0))

    def test_energy_j_matches_slot_energy(self):
        model = EnergyModel()
        assert model.energy_j(8.0) == pytest.approx(
            model.radio.radio_on_energy_mj(8.0, model.tx_fraction) / 1000.0
        )

    def test_fresh_network_reports_zero(self, kiel):
        simulator = NetworkSimulator(kiel, SimulatorConfig(seed=0))
        assert simulator.average_radio_on_ms() == 0.0
        assert simulator.total_energy_j() == 0.0
        crystal = CrystalProtocol(kiel, CrystalConfig(seed=0))
        assert crystal.average_radio_on_ms() == 0.0
        assert crystal.total_energy_j() == 0.0
