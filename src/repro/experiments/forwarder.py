"""Fig. 6 — forwarder selection with multi-armed bandits (§V-D).

The forwarder selection runs for several hours on the 18-node testbed
during the night (no controlled interference); the DQN is deactivated.
Each node sequentially gets ten consecutive rounds to learn whether to
act as a forwarder or as a passive receiver.  The figure plots, over
time, the number of active forwarders, the reliability, and the
average radio-on time; the comparison baseline is the same network
without forwarder selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.config import DimmerConfig
from repro.core.protocol import DimmerProtocol
from repro.experiments.metrics import ExperimentMetrics, TimeSeries, summarize_round_results
from repro.experiments.scenarios import ambient_interference
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import Topology, kiel_testbed
from repro.rl.qnetwork import QNetwork
from repro.rl.quantized import QuantizedNetwork


@dataclass
class ForwarderSelectionResult:
    """Outcome of the Fig. 6 experiment."""

    forwarders: TimeSeries
    reliability: TimeSeries
    radio_on_ms: TimeSeries
    metrics: ExperimentMetrics
    baseline_metrics: ExperimentMetrics
    breaking_configurations: int

    @property
    def final_forwarders(self) -> float:
        """Average number of active forwarders over the last quarter of the run."""
        if not self.forwarders.values:
            return 0.0
        tail = max(1, len(self.forwarders.values) // 4)
        return float(sum(self.forwarders.values[-tail:]) / tail)


def run_forwarder_selection_experiment(
    network: Union[QNetwork, QuantizedNetwork],
    topology: Optional[Topology] = None,
    num_rounds: int = 450,
    round_period_s: float = 4.0,
    ambient_rate: float = 0.02,
    learning_rounds_per_node: int = 10,
    seed: int = 0,
) -> ForwarderSelectionResult:
    """Run the Fig. 6 forwarder-selection experiment.

    The paper's run lasts 5 hours (4 500 rounds at 4 s); ``num_rounds``
    scales that down for tests and benchmarks while keeping the dynamics
    (learning windows of ten rounds per node, sequential pseudo-random
    order, punishment of network-breaking configurations).

    A no-selection baseline with the same seed, interference and number
    of rounds provides the radio-on comparison quoted in §V-D.
    """
    topology = topology if topology is not None else kiel_testbed()
    interference = ambient_interference(rate=ambient_rate, seed=seed + 3)

    # --- Dimmer with forwarder selection (DQN deactivated, as in §V-D). --
    simulator = NetworkSimulator(
        topology,
        SimulatorConfig(round_period_s=round_period_s, channel_hopping=False, seed=seed),
    )
    simulator.set_interference(interference)
    config = DimmerConfig(
        channel_hopping=False,
        enable_forwarder_selection=True,
        disable_adaptivity=True,
        forwarder_learning_rounds=learning_rounds_per_node,
        calm_rounds_before_selection=1,
        seed=seed,
    )
    protocol = DimmerProtocol(simulator, network, config)

    forwarders = TimeSeries(label="active-forwarders")
    reliability = TimeSeries(label="reliability")
    radio_on = TimeSeries(label="radio-on")
    for _ in range(num_rounds):
        result = protocol.run_round()
        time_s = result.start_ms / 1000.0
        forwarders.append(time_s, len(simulator.active_forwarders()))
        reliability.append(time_s, result.reliability)
        radio_on.append(time_s, result.average_radio_on_ms)
    metrics = summarize_round_results(simulator.round_history)

    # --- Baseline: same network, no forwarder selection. ------------------
    baseline_sim = NetworkSimulator(
        topology,
        SimulatorConfig(round_period_s=round_period_s, channel_hopping=False, seed=seed),
    )
    baseline_sim.set_interference(interference)
    baseline_config = DimmerConfig(
        channel_hopping=False,
        enable_forwarder_selection=False,
        disable_adaptivity=True,
        seed=seed,
    )
    baseline = DimmerProtocol(baseline_sim, network, baseline_config)
    baseline_metrics = summarize_round_results(baseline.run(num_rounds))

    return ForwarderSelectionResult(
        forwarders=forwarders,
        reliability=reliability,
        radio_on_ms=radio_on,
        metrics=metrics,
        baseline_metrics=baseline_metrics,
        breaking_configurations=protocol.controller.forwarder_selection.breaking_configurations,
    )
