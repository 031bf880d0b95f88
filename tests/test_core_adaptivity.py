"""Tests for the central adaptivity control and the Dimmer configuration."""

import numpy as np
import pytest

from repro.core.adaptivity import AdaptivityControl
from repro.core.config import DimmerConfig, dcube_config
from repro.core.statistics import GlobalView
from repro.rl.environment import Action
from repro.rl.qnetwork import QNetwork
from repro.rl.quantized import QuantizedNetwork


def make_view(reliability=1.0, radio_on=8.0, num_nodes=18, had_losses=False):
    return GlobalView(
        node_ids=range(num_nodes),
        reliability_array=np.full(num_nodes, float(reliability)),
        radio_on_array=np.full(num_nodes, float(radio_on)),
        missing_feedback_array=np.zeros(num_nodes, dtype=bool),
        had_losses=had_losses,
    )


class TestDimmerConfig:
    def test_paper_defaults(self):
        config = DimmerConfig()
        assert config.n_max == 8
        assert config.num_input_nodes == 10
        assert config.history_size == 2
        assert config.efficiency_weight == pytest.approx(0.3)
        assert config.dqn_input_size == 31
        assert config.round_period_s == pytest.approx(4.0)

    def test_dcube_config(self):
        config = dcube_config()
        assert config.round_period_s == pytest.approx(1.0)
        assert config.enable_acks
        assert config.channel_hopping

    def test_derived_configs(self):
        config = DimmerConfig(num_input_nodes=5, history_size=1)
        assert config.feature_config().input_size == 2 * 5 + 9 + 1
        assert config.reward_config().n_max == config.n_max

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            DimmerConfig(n_min=0)
        with pytest.raises(ValueError):
            DimmerConfig(initial_n_tx=9)
        with pytest.raises(ValueError):
            DimmerConfig(num_input_nodes=0)
        with pytest.raises(ValueError):
            DimmerConfig(forwarder_learning_rounds=0)


class TestAdaptivityControl:
    def test_accepts_float_and_quantized_networks(self):
        config = DimmerConfig()
        network = QNetwork((31, 30, 3), seed=0)
        AdaptivityControl(config, network)
        AdaptivityControl(config, QuantizedNetwork(network))

    def test_rejects_mismatched_network(self):
        with pytest.raises(ValueError):
            AdaptivityControl(DimmerConfig(), QNetwork((20, 30, 3), seed=0))

    def test_decision_clamps_to_range(self):
        config = DimmerConfig()
        control = AdaptivityControl(config, QNetwork((31, 30, 3), seed=0), initial_n_tx=config.n_max)
        for _ in range(5):
            decision = control.decide(make_view())
            assert config.n_min <= decision.new_n_tx <= config.n_max

    def test_decision_applies_single_step(self):
        control = AdaptivityControl(DimmerConfig(), QNetwork((31, 30, 3), seed=0))
        decision = control.decide(make_view())
        assert abs(decision.new_n_tx - decision.previous_n_tx) <= 1
        assert decision.action in (Action.DECREASE, Action.MAINTAIN, Action.INCREASE)
        assert decision.q_values.shape == (3,)

    def test_decisions_counted(self):
        control = AdaptivityControl(DimmerConfig(), QNetwork((31, 30, 3), seed=0))
        control.decide(make_view())
        control.decide(make_view())
        assert control.decisions == 2

    def test_reset_after_decisions(self):
        config = DimmerConfig()
        control = AdaptivityControl(config, QNetwork((31, 30, 3), seed=0))
        for _ in range(3):
            control.decide(make_view(reliability=0.5, had_losses=True))
        assert control.n_tx != config.initial_n_tx
        control.reset()
        assert control.n_tx == config.initial_n_tx
        assert control.decisions == 0

    def test_invalid_initial_ntx_rejected(self):
        with pytest.raises(ValueError):
            AdaptivityControl(DimmerConfig(), QNetwork((31, 30, 3), seed=0), initial_n_tx=0)

    def test_encode_view_shape(self):
        control = AdaptivityControl(DimmerConfig(), QNetwork((31, 30, 3), seed=0))
        assert control.encode_view(make_view()).shape == (31,)
