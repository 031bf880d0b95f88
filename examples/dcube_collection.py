#!/usr/bin/env python3
"""Aperiodic data collection on the 48-node deployment (the §V-E scenario, Fig. 7).

Takes the DQN trained on the 18-node testbed against 802.15.4 jamming
and runs it — without retraining — on a 48-node deployment against
previously unseen WiFi interference, next to the LWB and Crystal
baselines.  Five sources send packets at random intervals to a known
sink; reliability is measured at the sink, energy across the network.

Run with::

    python examples/dcube_collection.py [num_rounds_per_scenario]
"""

import sys

from repro.api import Session
from repro.experiments.reporting import format_table
from repro.experiments.training import load_pretrained_agent


def main(num_rounds: int = 120) -> None:
    agent = load_pretrained_agent()
    print(
        f"running LWB / Dimmer / Crystal on the 48-node deployment, "
        f"{num_rounds} one-second rounds per scenario ..."
    )
    # One DCubeSpec worker task per (protocol, WiFi-level) grid point;
    # the workers rebuild the deployment from the default topology spec,
    # and the worker count never changes the results.
    session = Session(network=agent.online)
    comparison = session.dcube(num_rounds=num_rounds, num_sources=5, seed=5)

    level_names = {0: "no interference", 1: "WiFi level 1", 2: "WiFi level 2"}
    reliability_rows = []
    energy_rows = []
    for level in comparison.levels():
        reliability_rows.append(
            [level_names[level]]
            + [comparison.get(p, level).reliability for p in ("lwb", "dimmer", "crystal")]
        )
        energy_rows.append(
            [level_names[level]]
            + [comparison.get(p, level).energy_j for p in ("lwb", "dimmer", "crystal")]
        )
    print(format_table(["scenario", "LWB", "Dimmer", "Crystal"], reliability_rows,
                       title="Reliability at the sink (Fig. 7a)"))
    print()
    print(format_table(["scenario", "LWB [J]", "Dimmer [J]", "Crystal [J]"], energy_rows,
                       title="Total network radio energy (Fig. 7b)"))


if __name__ == "__main__":
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 120
    main(rounds)
