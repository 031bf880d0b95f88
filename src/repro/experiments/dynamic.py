"""Fig. 4c / 4d — adaptivity against dynamic interference (§V-C).

The experiment runs the §V-C timeline on the 18-node testbed: 7 minutes
of calm, 5 minutes of heavy (30 %) jamming, 5 minutes of calm, 5
minutes of light (5 %) jamming, and a final calm period.  Dimmer
(Fig. 4c) and the PID baseline (Fig. 4d) are executed against the same
timeline; the figures plot per-round reliability and the retransmission
parameter over time, and report the experiment-wide reliability and
average radio-on time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.baselines.pid import PIDProtocol
from repro.baselines.static_lwb import StaticLWBProtocol
from repro.core.config import DimmerConfig
from repro.core.protocol import DimmerProtocol
from repro.experiments.metrics import ExperimentMetrics, TimeSeries, summarize_rounds
from repro.experiments.scenarios import paper_dynamic_scenario
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import Topology, kiel_testbed
from repro.rl.qnetwork import QNetwork
from repro.rl.quantized import QuantizedNetwork

#: Protocols supported by the dynamic-interference harness.
SUPPORTED_PROTOCOLS = ("dimmer", "pid", "lwb")


@dataclass
class DynamicRunResult:
    """Outcome of one dynamic-interference run (one line set of Fig. 4c/4d)."""

    protocol: str
    reliability: TimeSeries
    n_tx: TimeSeries
    radio_on_ms: TimeSeries
    interference_ratio: TimeSeries
    metrics: ExperimentMetrics

    def n_tx_during(self, start_s: float, end_s: float) -> float:
        """Average N_TX over a time window (used to check adaptation)."""
        return self.n_tx.window_average(start_s, end_s)

    def reliability_during(self, start_s: float, end_s: float) -> float:
        """Average reliability over a time window."""
        return self.reliability.window_average(start_s, end_s)


def build_protocol(
    protocol: str,
    simulator: NetworkSimulator,
    network: Optional[Union[QNetwork, QuantizedNetwork]],
    n_tx: int = 3,
):
    """The protocol runner of the sweep, dynamic and scenario workers.

    ``"dimmer"`` runs the policy ``network`` without channel hopping or
    forwarder selection, ``"pid"`` the PID baseline and ``"lwb"`` static
    LWB with a fixed ``n_tx``.
    """
    if protocol == "dimmer":
        if network is None:
            raise ValueError("the Dimmer runs need a trained policy network")
        return DimmerProtocol(
            simulator,
            network,
            DimmerConfig(channel_hopping=False, enable_forwarder_selection=False),
        )
    if protocol == "pid":
        return PIDProtocol(simulator)
    if protocol == "lwb":
        return StaticLWBProtocol(simulator, n_tx)
    raise ValueError(f"unsupported protocol: {protocol!r} (expected one of {SUPPORTED_PROTOCOLS})")


def run_dynamic_experiment(
    protocol: str = "dimmer",
    network: Optional[Union[QNetwork, QuantizedNetwork]] = None,
    topology: Optional[Topology] = None,
    time_scale: float = 1.0,
    round_period_s: float = 4.0,
    seed: int = 0,
) -> DynamicRunResult:
    """Run the §V-C dynamic-interference timeline with one protocol.

    Parameters
    ----------
    protocol:
        ``"dimmer"``, ``"pid"`` or ``"lwb"``.
    network:
        Trained policy network (required for Dimmer).
    topology:
        Deployment (defaults to the 18-node testbed of Fig. 4a).
    time_scale:
        Compression factor for the paper's 27-minute interference
        timeline: 1.0 reproduces it, smaller values shorten every segment
        proportionally so tests and benchmarks stay fast.
    round_period_s:
        LWB round period (4 s in the paper).
    seed:
        Seed for the simulator.
    """
    topology = topology if topology is not None else kiel_testbed()
    scenario = paper_dynamic_scenario(topology, time_scale)
    simulator = NetworkSimulator(
        topology,
        SimulatorConfig(
            round_period_s=round_period_s,
            channel_hopping=False,
            seed=seed,
        ),
    )
    runner = build_protocol(protocol, simulator, network)

    reliability = TimeSeries(label=f"{protocol}-reliability")
    n_tx_series = TimeSeries(label=f"{protocol}-ntx")
    radio_on = TimeSeries(label=f"{protocol}-radio-on")
    ratio_series = TimeSeries(label="interference-ratio")

    num_rounds = scenario.num_rounds(round_period_s)
    for _ in range(num_rounds):
        time_s = simulator.time_ms / 1000.0
        simulator.set_interference(scenario.interference_at(time_s))
        result = runner.run_round()
        reliability.append(time_s, result.reliability)
        n_tx_series.append(time_s, result.schedule.n_tx)
        radio_on.append(time_s, result.average_radio_on_ms)
        ratio_series.append(time_s, scenario.ratio_at(time_s))

    metrics = summarize_rounds(reliability.values, radio_on.values)
    return DynamicRunResult(
        protocol=protocol,
        reliability=reliability,
        n_tx=n_tx_series,
        radio_on_ms=radio_on,
        interference_ratio=ratio_series,
        metrics=metrics,
    )


@dataclass
class DynamicComparison:
    """Dimmer vs PID on the same timeline (the Fig. 4c vs 4d comparison)."""

    dimmer: DynamicRunResult
    pid: DynamicRunResult

    @property
    def radio_on_advantage_ms(self) -> float:
        """How much less radio-on time Dimmer needs than the PID baseline."""
        return self.pid.metrics.radio_on_ms - self.dimmer.metrics.radio_on_ms


def _dynamic_result_from_task(entry: dict) -> DynamicRunResult:
    """Rebuild a :class:`DynamicRunResult` from a worker's JSON result."""
    protocol = entry["protocol"]
    series = {
        "reliability": TimeSeries(label=f"{protocol}-reliability"),
        "n_tx": TimeSeries(label=f"{protocol}-ntx"),
        "radio_on_ms": TimeSeries(label=f"{protocol}-radio-on"),
        "interference_ratio": TimeSeries(label="interference-ratio"),
    }
    for name, line in series.items():
        for time_s, value in zip(entry["times_s"], entry[name]):
            line.append(time_s, value)
    return DynamicRunResult(
        protocol=protocol,
        reliability=series["reliability"],
        n_tx=series["n_tx"],
        radio_on_ms=series["radio_on_ms"],
        interference_ratio=series["interference_ratio"],
        metrics=ExperimentMetrics.from_dict(entry["metrics"]),
    )
