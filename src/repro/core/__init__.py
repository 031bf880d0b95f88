"""Dimmer: the paper's primary contribution.

The core package wires the RL substrate to the network substrate:

* :mod:`repro.core.config` — all protocol parameters in one place.
* :mod:`repro.core.statistics` — the statistics collector building the
  coordinator's global view from the feedback headers of the packets it
  received this round (the header arrays a
  :class:`~repro.net.lwb.RoundResult` reports).
* :mod:`repro.core.adaptivity` — the centralized adaptivity control: the
  (quantized) DQN deciding whether to decrease, maintain or increase the
  global retransmission parameter.
* :mod:`repro.core.forwarder_selection` — the distributed Exp3-based
  forwarder selection deactivating superfluous forwarders when the
  medium is calm.
* :mod:`repro.core.controller` — the Dimmer controller arbitrating
  between the two mechanisms.
* :mod:`repro.core.protocol` — :class:`DimmerProtocol`, running full
  Dimmer rounds on a :class:`~repro.net.simulator.NetworkSimulator`;
  each round returns the simulator's
  :class:`~repro.net.lwb.RoundResult`, the one record of the round.
"""

from repro.core.adaptivity import AdaptivityControl, AdaptivityDecision
from repro.core.config import DimmerConfig
from repro.core.controller import ControllerMode, DimmerController, RoundCommand
from repro.core.forwarder_selection import ForwarderSelection, ForwarderSelectionConfig
from repro.core.protocol import DimmerProtocol
from repro.core.statistics import GlobalView, StatisticsCollector

__all__ = [
    "AdaptivityControl",
    "AdaptivityDecision",
    "DimmerConfig",
    "ControllerMode",
    "DimmerController",
    "RoundCommand",
    "ForwarderSelection",
    "ForwarderSelectionConfig",
    "DimmerProtocol",
    "GlobalView",
    "StatisticsCollector",
]
