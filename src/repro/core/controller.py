"""Dimmer controller.

The controller is the glue component of Fig. 3: it polls the statistics
collector, arbitrates between the two adaptation mechanisms — the
centralized DQN adaptivity (interference present) and the distributed
forwarder selection (medium calm) — and produces, for every round, the
command the coordinator disseminates with the schedule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.adaptivity import AdaptivityControl, AdaptivityDecision
from repro.core.config import DimmerConfig
from repro.core.forwarder_selection import ForwarderSelection, ForwarderSelectionConfig, LearningStep
from repro.core.statistics import GlobalView, StatisticsCollector
from repro.net.lwb import RoundResult


class ControllerMode(enum.Enum):
    """Which adaptation mechanism is in charge of the next round."""

    ADAPTIVITY = "adaptivity"
    FORWARDER_SELECTION = "forwarder_selection"


@dataclass(frozen=True)
class RoundCommand:
    """Command the coordinator disseminates at the start of a round.

    ``role_codes`` holds every node's role for the round as integer
    codes in the forwarder selection's ``node_ids`` order, so the
    protocol applies all roles with one bulk
    :meth:`~repro.net.node.NodeStateArray.set_role_codes` call.
    """

    n_tx: int
    mode: ControllerMode
    role_codes: np.ndarray
    learning_node: Optional[int] = None

    @property
    def forwarder_selection(self) -> bool:
        """Whether this round runs a forwarder-selection learning step."""
        return self.mode is ControllerMode.FORWARDER_SELECTION


class DimmerController:
    """Arbitrates between central adaptivity and forwarder selection.

    Parameters
    ----------
    config:
        Protocol configuration.
    adaptivity:
        The DQN-backed central adaptivity control.
    node_ids:
        All nodes of the deployment.
    coordinator:
        The coordinator node id.
    """

    def __init__(
        self,
        config: DimmerConfig,
        adaptivity: AdaptivityControl,
        node_ids,
        coordinator: int,
    ) -> None:
        self.config = config
        self.adaptivity = adaptivity
        self.coordinator = coordinator
        self.statistics = StatisticsCollector(
            observer=coordinator,
            expected_nodes=list(node_ids),
            pessimistic_radio_on_ms=config.slot_ms,
        )
        self.forwarder_selection = ForwarderSelection(
            node_ids=list(node_ids),
            coordinator=coordinator,
            config=ForwarderSelectionConfig(
                learning_rounds_per_node=config.forwarder_learning_rounds,
                exp3_gamma=config.exp3_gamma,
                seed=config.seed,
            ),
        )
        self.mode = ControllerMode.ADAPTIVITY
        self.last_decision: Optional[AdaptivityDecision] = None
        self.last_learning_step: Optional[LearningStep] = None
        self._pending_command: Optional[RoundCommand] = None

    # ------------------------------------------------------------------
    # Round protocol
    # ------------------------------------------------------------------
    def next_command(self) -> RoundCommand:
        """Command for the upcoming round.

        The very first round (no feedback yet) uses the initial ``N_TX``
        with every node forwarding.
        """
        if self._pending_command is not None:
            return self._pending_command
        command = RoundCommand(
            n_tx=self.adaptivity.n_tx,
            mode=ControllerMode.ADAPTIVITY,
            learning_node=None,
            role_codes=self.forwarder_selection.suspend_codes(),
        )
        self._pending_command = command
        return command

    def observe_round(self, result: RoundResult) -> RoundCommand:
        """Digest a finished round and compute the next round's command.

        This is the coordinator's end-of-round step: aggregate feedback,
        execute the DQN (or hand control to the forwarder selection when
        the medium has been calm), and return the command that will be
        flooded with the next schedule.
        """
        view = self.statistics.build_view(result)

        # Settle the forwarder-selection learning step that ran during
        # the observed round, if any.
        if (
            self.last_learning_step is not None
            and self.last_learning_step.learning_node is not None
        ):
            self.forwarder_selection.observe_round(view.had_losses)
        self.last_learning_step = None

        calm = self.statistics.calm_rounds()
        use_selection = self.config.enable_forwarder_selection and (
            calm >= self.config.calm_rounds_before_selection
            or self.config.disable_adaptivity
        )

        if use_selection:
            self.mode = ControllerMode.FORWARDER_SELECTION
            step = self.forwarder_selection.begin_round()
            self.last_learning_step = step
            command = RoundCommand(
                n_tx=self.adaptivity.n_tx,
                mode=self.mode,
                learning_node=step.learning_node,
                role_codes=step.role_codes,
            )
        else:
            self.mode = ControllerMode.ADAPTIVITY
            if self.config.disable_adaptivity:
                n_tx = self.adaptivity.n_tx
            else:
                decision = self.adaptivity.decide(view)
                self.last_decision = decision
                n_tx = decision.new_n_tx
            command = RoundCommand(
                n_tx=n_tx,
                mode=self.mode,
                learning_node=None,
                role_codes=self.forwarder_selection.suspend_codes(),
            )

        self._pending_command = command
        return command

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_tx(self) -> int:
        """Retransmission parameter currently in force."""
        return self.adaptivity.n_tx

    def latest_view(self) -> Optional[GlobalView]:
        """The most recent global view assembled by the statistics collector."""
        return self.statistics.latest_view

    def reset(self) -> None:
        """Reset every sub-component (new experiment)."""
        self.statistics.reset()
        self.adaptivity.reset()
        self.forwarder_selection.reset()
        self.mode = ControllerMode.ADAPTIVITY
        self.last_decision = None
        self.last_learning_step = None
        self._pending_command = None
