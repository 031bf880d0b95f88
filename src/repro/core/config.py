"""Dimmer protocol configuration.

Gathers every tunable of the protocol in a single dataclass with the
values used throughout the paper's evaluation (§IV-B, §V-A) as
defaults, and exposes the derived RL-substrate configurations
(:class:`~repro.rl.features.FeatureConfig`,
:class:`~repro.rl.reward.RewardConfig`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.rl.features import FeatureConfig
from repro.rl.reward import RewardConfig


@dataclass
class DimmerConfig:
    """All Dimmer parameters.

    Parameters
    ----------
    n_max:
        Maximum retransmission parameter a 20 ms slot accommodates (8).
    n_min:
        Smallest value the central adaptivity may select.  The global
        parameter never drops to 0 — receive-only operation is reserved
        for the per-node forwarder selection.
    initial_n_tx:
        Value applied at start-up and after a reset (Glossy's classic 3).
    num_input_nodes:
        K — worst-reliability devices feeding the DQN (10).
    history_size:
        M — past-round loss indicators feeding the DQN (2).
    efficiency_weight:
        C in the Eq. 3 reward (0.3).
    round_period_s:
        Communication round period (4 s on the 18-node testbed, 1 s on
        D-Cube).
    slot_ms:
        Maximum slot duration (20 ms).
    packet_bytes:
        Application packet size including headers (30 B).
    channel_hopping:
        Slot-based channel hopping for data slots (control slots always
        run on channel 26).
    enable_forwarder_selection:
        Whether the distributed Exp3 forwarder selection may run during
        interference-free periods.
    forwarder_learning_rounds:
        Consecutive rounds each node gets to learn its role (10).
    calm_rounds_before_selection:
        Loss-free rounds the coordinator requires before it hands
        control to the forwarder selection.
    enable_acks:
        Application-layer acknowledgements (retransmit until the sink
        confirms reception); enabled for the D-Cube comparison against
        Crystal.
    quantized_inference:
        Run the DQN through the fixed-point integer path, as the
        embedded implementation does.
    seed:
        Seed for all protocol-internal randomness (forwarder-selection
        order and Exp3 draws).
    """

    n_max: int = 8
    n_min: int = 1
    initial_n_tx: int = 3
    num_input_nodes: int = 10
    history_size: int = 2
    efficiency_weight: float = 0.3
    round_period_s: float = 4.0
    slot_ms: float = 20.0
    packet_bytes: int = 30
    channel_hopping: bool = True
    enable_forwarder_selection: bool = True
    #: When True the DQN never changes N_TX; used by the Fig. 6 experiment,
    #: which evaluates the forwarder selection in isolation.
    disable_adaptivity: bool = False
    forwarder_learning_rounds: int = 10
    calm_rounds_before_selection: int = 3
    exp3_gamma: float = 0.3
    enable_acks: bool = False
    quantized_inference: bool = True
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 < self.n_min <= self.initial_n_tx <= self.n_max:
            raise ValueError("require 0 < n_min <= initial_n_tx <= n_max")
        if self.num_input_nodes <= 0:
            raise ValueError("num_input_nodes must be positive")
        if self.history_size < 0:
            raise ValueError("history_size must be non-negative")
        if self.forwarder_learning_rounds <= 0:
            raise ValueError("forwarder_learning_rounds must be positive")
        if self.calm_rounds_before_selection < 0:
            raise ValueError("calm_rounds_before_selection must be non-negative")

    def feature_config(self) -> FeatureConfig:
        """Derive the DQN input-vector configuration."""
        return FeatureConfig(
            num_input_nodes=self.num_input_nodes,
            history_size=self.history_size,
            n_max=self.n_max,
            max_radio_on_ms=self.slot_ms,
        )

    def reward_config(self) -> RewardConfig:
        """Derive the Eq. 3 reward configuration."""
        return RewardConfig(efficiency_weight=self.efficiency_weight, n_max=self.n_max)

    @property
    def dqn_input_size(self) -> int:
        """Size of the DQN input vector (31 with the paper's defaults)."""
        return self.feature_config().input_size


#: Configuration used on the 48-node D-Cube testbed (§V-E): 1-second
#: rounds, application-layer ACKs, channel hopping.
def dcube_config(seed: Optional[int] = None) -> DimmerConfig:
    """Return the D-Cube evaluation configuration of §V-E."""
    return DimmerConfig(
        round_period_s=1.0,
        enable_acks=True,
        channel_hopping=True,
        enable_forwarder_selection=False,
        seed=seed,
    )
