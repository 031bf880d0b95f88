"""Dimmer protocol runner.

:class:`DimmerProtocol` executes Dimmer on top of a
:class:`~repro.net.simulator.NetworkSimulator`: every round it applies
the controller's command (global ``N_TX`` or a forwarder-selection
learning step), runs the LWB round, and feeds the outcome back into the
controller — closing the loop of Fig. 1.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.core.adaptivity import AdaptivityControl
from repro.core.config import DimmerConfig
from repro.core.controller import DimmerController
from repro.net.glossy import RoundSteps
from repro.net.lwb import RoundResult, Schedule
from repro.net.simulator import NetworkSimulator
from repro.rl.qnetwork import QNetwork
from repro.rl.quantized import QuantizedNetwork


class DimmerProtocol:
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

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_round(
        self,
        sources: Optional[Sequence[int]] = None,
        destinations: Optional[Sequence[int]] = None,
    ) -> RoundResult:
        """Execute one Dimmer round and return its :class:`RoundResult`.

        The result is also appended to ``simulator.round_history``; the
        command's ``N_TX``, mode and learning node travel in its
        ``schedule``.

        Parameters
        ----------
        sources:
            Traffic sources for this round (defaults to the simulator's
            configured sources — the all-to-all broadcast case).
        destinations:
            When given, reliability is only accounted at these nodes
            (data-collection scenarios with a single sink).
        """
        result = self.simulator.run_round(
            schedule=self._begin_round(sources),
            collect_feedback=True,
            destinations=destinations,
        )
        self.controller.observe_round(result)
        return result

    def round_steps(
        self,
        sources: Optional[Sequence[int]] = None,
        destinations: Optional[Sequence[int]] = None,
    ) -> RoundSteps:
        """:meth:`run_round` as steps a lock-step driver can interleave.

        Yields the round's flood requests (see
        :meth:`~repro.net.lwb.LWBRoundEngine.round_steps`) and returns
        the :class:`RoundResult` once the controller has observed it.
        """
        result = yield from self.simulator.round_steps(
            schedule=self._begin_round(sources),
            collect_feedback=True,
            destinations=destinations,
        )
        self.controller.observe_round(result)
        return result

    def _begin_round(self, sources: Optional[Sequence[int]]) -> Schedule:
        """Apply the controller's command and build the round's schedule."""
        command = self.controller.next_command()
        # The forwarder selection's node order is the topology order,
        # which is the store's; coordinator rows are protected in place.
        self.simulator.node_state.set_role_codes(command.role_codes)
        return self.simulator.build_schedule(
            n_tx=command.n_tx,
            forwarder_selection=command.forwarder_selection,
            learning_node=command.learning_node,
            sources=sources,
        )

    def run(
        self,
        num_rounds: int,
        sources: Optional[Sequence[int]] = None,
        destinations: Optional[Sequence[int]] = None,
    ) -> List[RoundResult]:
        """Execute ``num_rounds`` consecutive rounds and return their results."""
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
