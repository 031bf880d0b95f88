"""Centralized adaptivity control.

At the end of every round the coordinator feeds its global view into
the (quantized) deep Q-network and obtains one of three actions —
decrease, maintain or increase the global retransmission parameter
``N_TX`` — which it disseminates with the next schedule so that the
entire network applies the same strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.config import DimmerConfig
from repro.core.statistics import GlobalView
from repro.rl.environment import Action, apply_action
from repro.rl.features import FeatureEncoder
from repro.rl.qnetwork import QNetwork
from repro.rl.quantized import QuantizedNetwork

PolicyNetwork = Union[QNetwork, QuantizedNetwork]


@dataclass(frozen=True)
class AdaptivityDecision:
    """One decision of the central adaptivity control."""

    action: Action
    previous_n_tx: int
    new_n_tx: int
    q_values: np.ndarray
    state: np.ndarray

    @property
    def changed(self) -> bool:
        """Whether the retransmission parameter actually changed."""
        return self.new_n_tx != self.previous_n_tx


class AdaptivityControl:
    """Runs the DQN over aggregated feedback and tracks the global ``N_TX``.

    Parameters
    ----------
    config:
        Dimmer configuration (defines the feature layout and N_TX bounds).
    network:
        Trained policy network.  Both the floating-point
        :class:`~repro.rl.qnetwork.QNetwork` and the embedded
        :class:`~repro.rl.quantized.QuantizedNetwork` are accepted; the
        paper deploys the quantized network on the coordinator.
    initial_n_tx:
        Starting retransmission parameter (defaults to the config value).
    """

    def __init__(
        self,
        config: DimmerConfig,
        network: PolicyNetwork,
        initial_n_tx: Optional[int] = None,
    ) -> None:
        self.config = config
        self.network = network
        self.encoder = FeatureEncoder(config.feature_config())
        expected_inputs = config.dqn_input_size
        network_inputs = (
            network.input_size
            if isinstance(network, QNetwork)
            else network.layer_sizes[0]
        )
        if network_inputs != expected_inputs:
            raise ValueError(
                "policy network input size does not match the Dimmer configuration "
                f"({network_inputs} != {expected_inputs})"
            )
        self.n_tx = initial_n_tx if initial_n_tx is not None else config.initial_n_tx
        if not config.n_min <= self.n_tx <= config.n_max:
            raise ValueError("initial_n_tx outside the configured [n_min, n_max] range")
        self.decisions: int = 0

    def encode_view(self, view: GlobalView) -> np.ndarray:
        """Encode a global view into the DQN input vector.

        The view's per-node observables already cover every expected
        node (silent nodes are filled in pessimistically when the view
        is assembled), so the encoder can rank the worst-``K`` devices
        straight from the arrays.
        """
        return self.encoder.encode_round_arrays(
            view.node_ids,
            view.reliability_array,
            view.radio_on_array,
            self.n_tx,
            view.had_losses,
        )

    def decide(self, view: GlobalView) -> AdaptivityDecision:
        """Run one inference step and update the global retransmission parameter."""
        state = self.encode_view(view)
        q_values = np.asarray(self.network.forward(state), dtype=float)
        action = Action(int(np.argmax(q_values)))
        previous = self.n_tx
        self.n_tx = apply_action(previous, action, n_max=self.config.n_max, n_min=self.config.n_min)
        self.decisions += 1
        return AdaptivityDecision(
            action=action,
            previous_n_tx=previous,
            new_n_tx=self.n_tx,
            q_values=q_values,
            state=state,
        )

    def reset(self) -> None:
        """Reset the controller to its initial parameter and clear history."""
        self.n_tx = self.config.initial_n_tx
        self.encoder.reset_history()
        self.decisions = 0
