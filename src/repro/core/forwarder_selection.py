"""Distributed forwarder selection with adversarial multi-armed bandits.

In the interference-free case not every node needs to retransmit for a
flood to reach the whole network: dense clusters produce redundant
transmissions and leaf nodes never help dissemination.  Dimmer lets
every node learn *at runtime* whether it is needed, using a two-armed
Exp3 bandit per node (arm 0: active forwarder, arm 1: passive
receiver), and three stabilisation rules (§IV-C):

(a) learning is sequential — one node at a time gets a window of ten
    consecutive rounds, which keeps the environment (almost) stationary
    from that node's point of view;
(b) network-breaking configurations are punished — when losses occur
    while a node tried the passive arm, that arm's weight is reset to
    its initial value and the node snaps back to forwarding;
(c) the learning order is a pseudo-random permutation, so early passive
    receivers are spread geographically instead of clustering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.net.node import ROLE_COORDINATOR, ROLE_FORWARDER, ROLE_PASSIVE
from repro.rl.exp3 import Exp3

#: Arm indices of the per-node bandit.
ARM_FORWARDER = 0
ARM_PASSIVE = 1


@dataclass
class ForwarderSelectionConfig:
    """Parameters of the distributed forwarder selection."""

    learning_rounds_per_node: int = 10
    exp3_gamma: float = 0.3
    #: Reward granted to the chosen arm when the round had no losses.
    success_reward: float = 1.0
    #: Reward granted when the round had losses (the arm is effectively punished).
    failure_reward: float = 0.0
    #: Give the passive arm a slight head start so exploration actually
    #: tries passivity (the forwarder arm is the safe default anyway).
    passive_initial_weight: float = 1.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.learning_rounds_per_node <= 0:
            raise ValueError("learning_rounds_per_node must be positive")
        if not 0.0 < self.exp3_gamma <= 1.0:
            raise ValueError("exp3_gamma must be in (0, 1]")
        if self.passive_initial_weight <= 0:
            raise ValueError("passive_initial_weight must be positive")


@dataclass(frozen=True)
class LearningStep:
    """What the forwarder selection decided for one round.

    ``role_codes`` holds every node's role for the round as
    ``node_ids``-aligned integer codes (see :mod:`repro.net.node`),
    ready for a bulk
    :meth:`~repro.net.node.NodeStateArray.set_role_codes` apply.
    """

    learning_node: Optional[int]
    chosen_arm: Optional[int]
    role_codes: np.ndarray


class ForwarderSelection:
    """Coordinates the per-node Exp3 bandits.

    The class is written from a global simulation perspective but the
    decisions it encodes are strictly local: each node only ever uses
    its own bandit and the network-wide loss indicator that every node
    can derive from the schedule and the feedback headers.

    Parameters
    ----------
    node_ids:
        All nodes of the deployment.
    coordinator:
        The coordinator never becomes passive (it must flood schedules).
    config:
        Selection parameters.
    """

    def __init__(
        self,
        node_ids: Sequence[int],
        coordinator: int,
        config: Optional[ForwarderSelectionConfig] = None,
    ) -> None:
        self.config = config if config is not None else ForwarderSelectionConfig()
        self.coordinator = coordinator
        self.node_ids = list(node_ids)
        if coordinator not in self.node_ids:
            raise ValueError("coordinator must be part of node_ids")
        self._rng = np.random.default_rng(self.config.seed)

        #: Pseudo-random learning order over all non-coordinator nodes.
        self.learning_order: List[int] = [n for n in self.node_ids if n != coordinator]
        self._rng.shuffle(self.learning_order)

        self.bandits: Dict[int, Exp3] = {
            node: Exp3(
                num_arms=2,
                gamma=self.config.exp3_gamma,
                initial_weights=(1.0, self.config.passive_initial_weight),
                seed=None if self.config.seed is None else self.config.seed + node,
            )
            for node in self.learning_order
        }
        self._node_row: Dict[int, int] = {node: i for i, node in enumerate(self.node_ids)}
        #: Standing role code of every node, ``node_ids``-aligned (what
        #: each node does when it is not learning).
        self._role_codes = self.suspend_codes()
        self._order_cursor = 0
        self._rounds_into_window = 0
        self._current_arm: Optional[int] = None
        self.breaking_configurations = 0
        self.learning_iterations = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_learning_node(self) -> Optional[int]:
        """Node currently holding the learning window."""
        if not self.learning_order:
            return None
        return self.learning_order[self._order_cursor % len(self.learning_order)]

    def active_forwarders(self) -> List[int]:
        """Nodes whose standing role is forwarder (coordinator included)."""
        codes = self._role_codes.tolist()
        return sorted(node for node, code in zip(self.node_ids, codes) if code != ROLE_PASSIVE)

    def passive_nodes(self) -> List[int]:
        """Nodes whose standing role is passive receiver."""
        codes = self._role_codes.tolist()
        return sorted(node for node, code in zip(self.node_ids, codes) if code == ROLE_PASSIVE)

    # ------------------------------------------------------------------
    # Per-round protocol
    # ------------------------------------------------------------------
    def _set_standing_role(self, node: int, passive: bool) -> None:
        """Make one node's standing role passive receiver or forwarder."""
        self._role_codes[self._node_row[node]] = ROLE_PASSIVE if passive else ROLE_FORWARDER

    def begin_round(self) -> LearningStep:
        """Draw the learning node's arm for the upcoming round.

        Returns the roles every node should apply during the round: the
        standing roles, with the learning node's role overridden by its
        freshly drawn arm.
        """
        node = self.current_learning_node
        codes = self._role_codes.copy()
        if node is None:
            return LearningStep(learning_node=None, chosen_arm=None, role_codes=codes)
        arm = self.bandits[node].select_arm()
        self._current_arm = arm
        codes[self._node_row[node]] = ROLE_PASSIVE if arm == ARM_PASSIVE else ROLE_FORWARDER
        return LearningStep(learning_node=node, chosen_arm=arm, role_codes=codes)

    def observe_round(self, had_losses: bool) -> None:
        """Feed the network-wide outcome of the round back into the bandit.

        A loss-free round rewards the chosen arm; a round with losses
        punishes it.  If the learning node had chosen the passive arm
        and losses occurred, the configuration is considered
        network-breaking: the passive arm is reset to its initial weight
        and the node's standing role snaps back to forwarder.
        """
        node = self.current_learning_node
        if node is None or self._current_arm is None:
            return
        bandit = self.bandits[node]
        reward = self.config.failure_reward if had_losses else self.config.success_reward
        bandit.update(self._current_arm, reward)
        self.learning_iterations += 1

        if had_losses and self._current_arm == ARM_PASSIVE:
            bandit.reset_arm(ARM_PASSIVE)
            self._set_standing_role(node, passive=False)
            self.breaking_configurations += 1

        self._rounds_into_window += 1
        if self._rounds_into_window >= self.config.learning_rounds_per_node:
            # End of the window: the node adopts its best arm as its
            # standing role and the token moves to the next node.
            best = bandit.best_arm()
            self._set_standing_role(node, passive=best == ARM_PASSIVE)
            self._rounds_into_window = 0
            self._order_cursor = (self._order_cursor + 1) % max(1, len(self.learning_order))
        self._current_arm = None

    # ------------------------------------------------------------------
    # Interference handling
    # ------------------------------------------------------------------
    def suspend_codes(self) -> np.ndarray:
        """All-active role codes (used while interference is being fought).

        Under interference every node must forward; the standing roles
        and bandit weights are preserved so learning resumes where it
        stopped once the medium is calm again.
        """
        codes = np.full(len(self.node_ids), ROLE_FORWARDER, dtype=np.int8)
        codes[self._node_row[self.coordinator]] = ROLE_COORDINATOR
        return codes

    def reset(self) -> None:
        """Forget everything learned so far."""
        for bandit in self.bandits.values():
            bandit.reset()
        self._role_codes = self.suspend_codes()
        self._order_cursor = 0
        self._rounds_into_window = 0
        self._current_arm = None
        self.breaking_configurations = 0
        self.learning_iterations = 0
