#!/usr/bin/env python3
"""Quickstart: run Dimmer on the 18-node testbed, the declarative way.

This example shows the two entry points of the library, shortest first:

1. the **declarative API** — describe an experiment as an
   ``ExperimentSpec``, hand it (or a grid of them) to a ``Session``,
   get typed results back (the session owns the worker fan-out and the
   result cache);
2. the **protocol loop underneath** — build the simulator and the
   Dimmer protocol by hand and watch it pick its retransmission
   parameter round by round.

Run with::

    python examples/quickstart.py
"""

from repro.api import Session
from repro.core.config import DimmerConfig
from repro.core.protocol import DimmerProtocol
from repro.experiments.scenarios import jamming_interference
from repro.experiments.spec import SweepSpec
from repro.experiments.training import load_pretrained_agent
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import kiel_testbed


def declarative_sweep(network) -> None:
    """Part 1: a three-point interference sweep as one spec grid."""
    # The session owns the parallel runner (process fan-out, optional
    # on-disk result cache via cache_dir=...) and injects the policy
    # network into every Dimmer spec that leaves it unset.
    session = Session(max_workers=2, network=network)

    # One frozen, JSON round-trippable description of a grid point ...
    point = SweepSpec(
        protocol="dimmer",
        ratio=0.10,
        topology={"kind": "kiel"},
        rounds=25,
        round_period_s=4.0,
        engine="vectorized",
        seed=1,
    )
    # ... cross-multiplied over any field into a grid of specs.
    specs = point.grid(ratios=[0.0, 0.10, 0.30])
    results = session.run_grid(specs)  # typed ExperimentMetrics, in order

    print("interference  reliability  radio-on[ms]")
    for spec, metrics in zip(specs, results):
        print(f"{spec.ratio * 100:11.0f}%  {metrics.reliability:11.3f}"
              f"  {metrics.radio_on_ms:12.2f}")
    print()


def protocol_loop(network) -> None:
    """Part 2: the same machinery, one hand-driven round at a time."""
    # The simulated deployment: the 18-node, 3-hop office testbed of
    # Fig. 4a, with mild 802.15.4 jamming from the two jammer positions.
    topology = kiel_testbed()
    simulator = NetworkSimulator(
        topology,
        SimulatorConfig(round_period_s=4.0, channel_hopping=False, seed=1),
    )
    simulator.set_interference(jamming_interference(topology, interference_ratio=0.10))

    protocol = DimmerProtocol(
        simulator,
        network,
        DimmerConfig(channel_hopping=False, enable_forwarder_selection=False, seed=1),
    )

    # Every round returns the simulator's RoundResult: the schedule it
    # ran (N_TX, forwarder-selection flag) and its measured outcome.
    print("round  time[s]  N_TX  reliability  radio-on[ms]  mode")
    for _ in range(20):
        result = protocol.run_round()
        mode = "forwarder_selection" if result.schedule.forwarder_selection else "adaptivity"
        print(
            f"{result.round_index:5d}  {result.start_ms / 1000.0:7.1f}"
            f"  {result.schedule.n_tx:4d}  {result.reliability:11.3f}"
            f"  {result.average_radio_on_ms:12.2f}  {mode}"
        )

    print()
    print(f"overall reliability : {simulator.average_reliability():.3f}")
    print(f"average radio-on    : {simulator.average_radio_on_ms():.2f} ms per slot")
    print(f"final N_TX          : {protocol.n_tx}")


def main() -> None:
    # The trained policy network shipped with the repository (31-30-3,
    # quantized on deployment).
    network = load_pretrained_agent().online
    declarative_sweep(network)
    protocol_loop(network)


if __name__ == "__main__":
    main()
