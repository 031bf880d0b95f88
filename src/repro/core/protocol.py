"""Dimmer protocol runner.

:class:`DimmerProtocol` executes Dimmer on top of a
:class:`~repro.net.simulator.NetworkSimulator`: every round it applies
the controller's command (global ``N_TX`` or a forwarder-selection
learning step), runs the LWB round, and feeds the outcome back into the
controller — closing the loop of Fig. 1.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.core.adaptivity import AdaptivityControl
from repro.core.config import DimmerConfig
from repro.core.controller import DimmerController
from repro.net.glossy import RoundSteps, run_steps
from repro.net.lwb import RoundResult
from repro.net.simulator import NetworkSimulator, RoundProtocol
from repro.rl.qnetwork import QNetwork
from repro.rl.quantized import QuantizedNetwork


class DimmerProtocol(RoundProtocol):
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
        return run_steps(self.round_steps(sources, destinations))

    def round_steps(
        self,
        sources: Optional[Sequence[int]] = None,
        destinations: Optional[Sequence[int]] = None,
    ) -> RoundSteps:
        """:meth:`run_round` as steps a lock-step driver can interleave.

        Applies the controller's command, yields the round's flood
        requests (see :meth:`~repro.net.lwb.LWBRoundEngine.round_steps`)
        and returns the :class:`RoundResult` once the controller has
        observed it.
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
        result = yield from self.simulator.round_steps(
            schedule=schedule, collect_feedback=True, destinations=destinations
        )
        self.controller.observe_round(result)
        return result

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def n_tx(self) -> int:
        """Retransmission parameter currently in force."""
        return self.controller.n_tx
