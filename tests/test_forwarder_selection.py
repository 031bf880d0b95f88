"""Tests for the distributed Exp3 forwarder selection."""

import pytest

from repro.core.forwarder_selection import (
    ARM_FORWARDER,
    ARM_PASSIVE,
    ForwarderSelection,
    ForwarderSelectionConfig,
)
from repro.net.node import ROLE_COORDINATOR, ROLE_FORWARDER, ROLE_PASSIVE


@pytest.fixture()
def selection():
    return ForwarderSelection(
        node_ids=list(range(8)),
        coordinator=0,
        config=ForwarderSelectionConfig(learning_rounds_per_node=3, seed=1),
    )


class TestConfig:
    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ForwarderSelectionConfig(learning_rounds_per_node=0)
        with pytest.raises(ValueError):
            ForwarderSelectionConfig(exp3_gamma=0.0)
        with pytest.raises(ValueError):
            ForwarderSelectionConfig(passive_initial_weight=0.0)


class TestForwarderSelection:
    def test_coordinator_never_learns(self, selection):
        assert 0 not in selection.learning_order
        assert 0 not in selection.bandits

    def test_coordinator_must_be_member(self):
        with pytest.raises(ValueError):
            ForwarderSelection(node_ids=[1, 2, 3], coordinator=0)

    def test_learning_order_is_permutation(self, selection):
        assert sorted(selection.learning_order) == list(range(1, 8))

    def test_begin_round_overrides_learning_node_role(self, selection):
        step = selection.begin_round()
        assert step.learning_node == selection.current_learning_node
        assert step.chosen_arm in (ARM_FORWARDER, ARM_PASSIVE)
        expected = ROLE_PASSIVE if step.chosen_arm == ARM_PASSIVE else ROLE_FORWARDER
        assert step.role_codes[selection.node_ids.index(step.learning_node)] == expected

    def test_window_advances_after_configured_rounds(self, selection):
        first = selection.current_learning_node
        for _ in range(3):
            selection.begin_round()
            selection.observe_round(had_losses=False)
        assert selection.current_learning_node != first

    def test_loss_on_passive_arm_resets_and_punishes(self, selection):
        node = selection.current_learning_node
        # Force the passive arm to look attractive first.
        for _ in range(5):
            selection.bandits[node].update(ARM_PASSIVE, 1.0)
        inflated = selection.bandits[node].weights[ARM_PASSIVE]
        # Simulate a round where the node tried passivity and the network broke.
        selection._current_arm = ARM_PASSIVE
        selection.observe_round(had_losses=True)
        assert selection.bandits[node].weights[ARM_PASSIVE] < inflated
        assert node in selection.active_forwarders()
        assert selection.breaking_configurations == 1

    def test_successful_passivity_eventually_deactivates_nodes(self):
        selection = ForwarderSelection(
            node_ids=list(range(6)),
            coordinator=0,
            config=ForwarderSelectionConfig(learning_rounds_per_node=4, exp3_gamma=0.4, seed=3),
        )
        # No losses ever: passive arms keep winning and some nodes turn passive.
        for _ in range(80):
            selection.begin_round()
            selection.observe_round(had_losses=False)
        assert len(selection.passive_nodes()) >= 1
        assert set(selection.passive_nodes()).isdisjoint({0})

    def test_constant_losses_keep_everyone_forwarding(self):
        selection = ForwarderSelection(
            node_ids=list(range(6)),
            coordinator=0,
            config=ForwarderSelectionConfig(learning_rounds_per_node=4, seed=3),
        )
        for _ in range(60):
            selection.begin_round()
            selection.observe_round(had_losses=True)
        assert selection.passive_nodes() == []

    def test_suspend_returns_all_active(self, selection):
        codes = selection.suspend_codes()
        assert codes.tolist() == [ROLE_COORDINATOR] + [ROLE_FORWARDER] * 7

    def test_reset_restores_initial_state(self, selection):
        for _ in range(10):
            selection.begin_round()
            selection.observe_round(had_losses=False)
        selection.reset()
        assert selection.passive_nodes() == []
        assert selection.learning_iterations == 0

    def test_observe_without_begin_is_noop(self, selection):
        selection.observe_round(had_losses=False)
        assert selection.learning_iterations == 0

    def test_active_forwarders_includes_coordinator(self, selection):
        assert 0 in selection.active_forwarders()
