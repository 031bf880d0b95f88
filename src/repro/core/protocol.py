"""Dimmer protocol runner.

:class:`DimmerProtocol` executes Dimmer on top of a
:class:`~repro.net.simulator.NetworkSimulator`: every round it applies
the controller's command (global ``N_TX`` or a forwarder-selection
learning step), runs the LWB round, and feeds the outcome back into the
controller — closing the loop of Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.core.adaptivity import AdaptivityControl
from repro.core.config import DimmerConfig
from repro.core.controller import ControllerMode, DimmerController
from repro.net.lwb import RoundHistoryAverages, RoundResult
from repro.net.node import NodeRole
from repro.net.simulator import NetworkSimulator
from repro.rl.qnetwork import QNetwork
from repro.rl.quantized import QuantizedNetwork


@dataclass(frozen=True)
class ProtocolRoundSummary:
    """Per-round digest returned by :meth:`DimmerProtocol.run_round`."""

    round_index: int
    time_s: float
    n_tx: int
    mode: ControllerMode
    reliability: float
    average_radio_on_ms: float
    had_losses: bool
    num_forwarders: int
    learning_node: Optional[int]
    result: RoundResult


class DimmerProtocol(RoundHistoryAverages):
    """Runs Dimmer rounds on a network simulator.

    Parameters
    ----------
    simulator:
        The deployment to run on.  Its nodes, clock and interference
        environment are owned by the simulator; the protocol only drives
        schedules and roles.
    network:
        Trained policy network (float or quantized).  When a float
        network is passed and ``config.quantized_inference`` is set, the
        network is quantized first — mirroring the embedded deployment.
    config:
        Dimmer parameters.
    """

    def __init__(
        self,
        simulator: NetworkSimulator,
        network: Union[QNetwork, QuantizedNetwork],
        config: Optional[DimmerConfig] = None,
    ) -> None:
        self.simulator = simulator
        self.config = config if config is not None else DimmerConfig()
        if isinstance(network, QNetwork) and self.config.quantized_inference:
            network = QuantizedNetwork(network)
        self.network = network
        self.adaptivity = AdaptivityControl(self.config, network)
        self.controller = DimmerController(
            config=self.config,
            adaptivity=self.adaptivity,
            node_ids=simulator.topology.node_ids,
            coordinator=simulator.topology.coordinator,
        )
        self.history: List[ProtocolRoundSummary] = []

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_round(
        self,
        sources: Optional[Sequence[int]] = None,
        destinations: Optional[Sequence[int]] = None,
    ) -> ProtocolRoundSummary:
        """Execute one Dimmer round.

        Parameters
        ----------
        sources:
            Traffic sources for this round (defaults to the simulator's
            configured sources — the all-to-all broadcast case).
        destinations:
            When given, reliability is only accounted at these nodes
            (data-collection scenarios with a single sink).
        """
        command = self.controller.next_command()
        # The forwarder selection's node order is the topology order,
        # which is the store's; coordinator rows are protected in place.
        self.simulator.node_state.set_role_codes(command.role_codes)
        schedule = self.simulator.build_schedule(
            n_tx=command.n_tx,
            forwarder_selection=command.forwarder_selection,
            learning_node=command.learning_node,
            sources=sources,
        )
        time_s = self.simulator.time_ms / 1000.0
        result = self.simulator.run_round(
            schedule=schedule,
            collect_feedback=True,
            destinations=destinations,
        )
        self.controller.observe_round(result)

        summary = ProtocolRoundSummary(
            round_index=result.round_index,
            time_s=time_s,
            n_tx=command.n_tx,
            mode=command.mode,
            reliability=result.reliability,
            average_radio_on_ms=result.average_radio_on_ms,
            had_losses=result.had_losses,
            num_forwarders=len(
                [r for r in command.roles.values() if r is not NodeRole.PASSIVE]
            ),
            learning_node=command.learning_node,
            result=result,
        )
        self.history.append(summary)
        return summary

    def run(
        self,
        num_rounds: int,
        sources: Optional[Sequence[int]] = None,
        destinations: Optional[Sequence[int]] = None,
    ) -> List[ProtocolRoundSummary]:
        """Execute ``num_rounds`` consecutive rounds and return their summaries."""
        if num_rounds < 0:
            raise ValueError("num_rounds must be non-negative")
        return [self.run_round(sources=sources, destinations=destinations) for _ in range(num_rounds)]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def n_tx(self) -> int:
        """Retransmission parameter currently in force."""
        return self.controller.n_tx
