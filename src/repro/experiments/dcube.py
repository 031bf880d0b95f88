"""Fig. 7 — performance on an unknown deployment (D-Cube, §V-E).

The DQN trained on the 18-node testbed against 802.15.4 jamming runs —
without retraining — on a 48-node deployment against previously unseen
WiFi interference, in an aperiodic data-collection scenario: a handful
of known sources transmit packets at random intervals towards a known
sink; reliability is the fraction of generated packets that reach the
sink.  LWB (best effort, single channel), Dimmer (channel hopping plus
application-layer ACKs) and Crystal (the hand-tuned state of the art)
are compared on reliability (Fig. 7a) and energy (Fig. 7b) for three
interference settings: none, WiFi level 1 and WiFi level 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.baselines.crystal import CrystalConfig, CrystalProtocol
from repro.baselines.static_lwb import StaticLWBProtocol
from repro.core.config import dcube_config
from repro.core.protocol import DimmerProtocol
from repro.experiments.scenarios import dcube_wifi_interference
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import Topology
from repro.rl.qnetwork import QNetwork
from repro.rl.quantized import QuantizedNetwork

#: Interference settings of Fig. 7.
DCUBE_LEVELS = (0, 1, 2)

#: Protocols compared in Fig. 7.
DCUBE_PROTOCOLS = ("lwb", "dimmer", "crystal")


@dataclass
class DCubeResult:
    """Outcome of one protocol under one interference level."""

    protocol: str
    level: int
    reliability: float
    energy_j: float
    average_radio_on_ms: float
    packets_generated: int
    packets_delivered: int


@dataclass
class DCubeComparison:
    """The full Fig. 7 grid."""

    results: List[DCubeResult] = field(default_factory=list)

    def get(self, protocol: str, level: int) -> DCubeResult:
        """Look up one grid entry."""
        for result in self.results:
            if result.protocol == protocol and result.level == level:
                return result
        raise KeyError(f"no result for {protocol!r} at level {level}")

    def levels(self) -> List[int]:
        """Interference levels present in the comparison."""
        return sorted({result.level for result in self.results})

    def protocols(self) -> List[str]:
        """Protocols present in the comparison."""
        return sorted({result.protocol for result in self.results})


@dataclass
class AperiodicTraffic:
    """Aperiodic traffic generator: sources emit packets at random intervals.

    Each source draws exponential-ish inter-arrival gaps between
    ``min_gap_rounds`` and ``max_gap_rounds`` rounds, reproducing the
    "packets at random intervals" workload of the D-Cube data-collection
    scenario.
    """

    sources: Sequence[int]
    min_gap_rounds: int = 2
    max_gap_rounds: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.sources:
            raise ValueError("at least one source is required")
        if not 1 <= self.min_gap_rounds <= self.max_gap_rounds:
            raise ValueError("require 1 <= min_gap_rounds <= max_gap_rounds")
        self._rng = np.random.default_rng(self.seed)
        self._next_round = {
            source: int(self._rng.integers(0, self.max_gap_rounds)) for source in self.sources
        }

    def arrivals(self, round_index: int) -> List[int]:
        """Sources that generate a new packet at ``round_index``."""
        ready = []
        for source in self.sources:
            if round_index >= self._next_round[source]:
                ready.append(source)
                gap = int(self._rng.integers(self.min_gap_rounds, self.max_gap_rounds + 1))
                self._next_round[source] = round_index + gap
        return ready


def _select_sources(topology: Topology, num_sources: int, seed: int) -> List[int]:
    """Pick the known source nodes (never the sink)."""
    candidates = [node for node in topology.node_ids if node != topology.coordinator]
    rng = np.random.default_rng(seed)
    chosen = rng.choice(candidates, size=min(num_sources, len(candidates)), replace=False)
    return sorted(int(node) for node in chosen)


def _run_bus_protocol(
    protocol: str,
    level: int,
    network: Optional[Union[QNetwork, QuantizedNetwork]],
    topology: Topology,
    num_rounds: int,
    num_sources: int,
    max_retries: int,
    seed: int,
) -> DCubeResult:
    """Run LWB or Dimmer in the aperiodic collection scenario."""
    sink = topology.coordinator
    sources = _select_sources(topology, num_sources, seed)
    traffic = AperiodicTraffic(sources=sources, seed=seed + 1)
    interference = dcube_wifi_interference(topology, level, seed=seed + 2)

    if protocol == "dimmer":
        if network is None:
            raise ValueError("the Dimmer runs need a trained policy network")
        config = dcube_config(seed=seed)
        simulator = NetworkSimulator(
            topology,
            SimulatorConfig(
                round_period_s=config.round_period_s,
                channel_hopping=config.channel_hopping,
                seed=seed,
            ),
            sources=sources,
        )
        simulator.set_interference(interference)
        runner = DimmerProtocol(simulator, network, config)
        use_acks = config.enable_acks
    elif protocol == "lwb":
        simulator = NetworkSimulator(
            topology,
            SimulatorConfig(round_period_s=1.0, channel_hopping=False, seed=seed),
            sources=sources,
        )
        simulator.set_interference(interference)
        runner = StaticLWBProtocol(simulator, n_tx=3)
        use_acks = False
    else:
        raise ValueError(f"unsupported bus protocol: {protocol!r}")

    generated = 0
    delivered = 0
    #: source -> list of remaining retry budgets for pending packets.
    pending: Dict[int, List[int]] = {source: [] for source in sources}

    for round_index in range(num_rounds):
        for source in traffic.arrivals(round_index):
            pending[source].append(max_retries)
            generated += 1

        round_sources = [source for source in sources if pending[source]]
        if not round_sources:
            # Idle round: the bus still runs its control slot.
            runner.run_round(sources=[], destinations=[sink])
            continue

        result = runner.run_round(sources=round_sources, destinations=[sink])
        for flood in result.slot_floods:
            source = flood.initiator
            if not pending[source]:
                continue
            if flood.received_at(sink):
                pending[source].pop(0)
                delivered += 1
            elif use_acks:
                pending[source][0] -= 1
                if pending[source][0] <= 0:
                    pending[source].pop(0)
            else:
                # Best effort: one attempt per packet.
                pending[source].pop(0)

    return DCubeResult(
        protocol=protocol,
        level=level,
        reliability=1.0 if generated == 0 else delivered / generated,
        energy_j=simulator.total_energy_j(),
        average_radio_on_ms=simulator.average_radio_on_ms(),
        packets_generated=generated,
        packets_delivered=delivered,
    )


def _run_crystal(
    level: int,
    topology: Topology,
    num_rounds: int,
    num_sources: int,
    seed: int,
) -> DCubeResult:
    """Run the Crystal baseline in the aperiodic collection scenario."""
    sources = _select_sources(topology, num_sources, seed)
    traffic = AperiodicTraffic(sources=sources, seed=seed + 1)
    interference = dcube_wifi_interference(topology, level, seed=seed + 2)
    crystal = CrystalProtocol(
        topology,
        CrystalConfig(seed=seed, epoch_period_s=1.0),
        interference=interference,
    )
    for round_index in range(num_rounds):
        for source in traffic.arrivals(round_index):
            crystal.enqueue(source)
        crystal.run_epoch()
    return DCubeResult(
        protocol="crystal",
        level=level,
        reliability=crystal.reliability(),
        energy_j=crystal.total_energy_j(),
        average_radio_on_ms=crystal.average_radio_on_ms(),
        packets_generated=crystal.generated_packets,
        packets_delivered=crystal.delivered_packets,
    )


def run_single_dcube_point(
    protocol: str,
    level: int,
    network: Optional[Union[QNetwork, QuantizedNetwork]],
    topology: Topology,
    num_rounds: int = 200,
    num_sources: int = 5,
    max_retries: int = 5,
    seed: int = 0,
) -> DCubeResult:
    """Run one (protocol, interference-level) grid point of Fig. 7."""
    if protocol == "crystal":
        return _run_crystal(level, topology, num_rounds, num_sources, seed)
    return _run_bus_protocol(
        protocol, level, network, topology, num_rounds, num_sources, max_retries, seed
    )
