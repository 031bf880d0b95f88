#!/usr/bin/env python3
"""Dynamic interference (the §V-C scenario, Fig. 4c/4d).

Runs Dimmer and the PID baseline against the same timeline — calm, 30 %
jamming, calm, 5 % jamming, calm — and prints per-segment reliability,
retransmission parameter and radio-on time, plus the experiment-wide
comparison (the paper reports 99.3 % reliability for both, with 12.3 ms
radio-on for Dimmer against 14.4 ms for the PID).

Run with::

    python examples/dynamic_interference.py [time_scale]

``time_scale`` compresses the 27-minute timeline (default 0.25, i.e.
about 100 rounds per protocol).
"""

import sys

from repro.api import Session
from repro.experiments.reporting import format_table
from repro.experiments.training import load_pretrained_agent


def main(time_scale: float = 0.25) -> None:
    agent = load_pretrained_agent()

    print(f"running the SV-C timeline at time scale {time_scale} ...")
    # The two protocol timelines run as independent DynamicSpec worker
    # tasks; for a given seed the results do not depend on the worker
    # count.
    session = Session(network=agent.online)
    comparison = session.dynamic_comparison(time_scale=time_scale, seed=1)

    minutes = 60.0 * time_scale
    segments = [
        ("calm", 0.0, 7 * minutes),
        ("30% jamming", 7 * minutes, 12 * minutes),
        ("calm", 12 * minutes, 17 * minutes),
        ("5% jamming", 17 * minutes, 22 * minutes),
        ("calm", 22 * minutes, 27 * minutes),
    ]
    rows = []
    for name, start, end in segments:
        rows.append([
            name,
            comparison.dimmer.reliability_during(start, end),
            comparison.dimmer.n_tx_during(start, end),
            comparison.pid.reliability_during(start, end),
            comparison.pid.n_tx_during(start, end),
        ])
    print(format_table(
        ["segment", "Dimmer rel.", "Dimmer N_TX", "PID rel.", "PID N_TX"],
        rows,
        title="Per-segment behaviour",
    ))
    print()
    print(format_table(
        ["protocol", "reliability", "radio-on [ms]"],
        [
            ["Dimmer", comparison.dimmer.metrics.reliability, comparison.dimmer.metrics.radio_on_ms],
            ["PID", comparison.pid.metrics.reliability, comparison.pid.metrics.radio_on_ms],
        ],
        title="Experiment-wide comparison (paper: 99.3% both; 12.3 ms vs 14.4 ms)",
    ))
    print()
    print(f"Dimmer radio-on advantage over PID: {comparison.radio_on_advantage_ms:+.2f} ms per slot")


if __name__ == "__main__":
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.25
    main(scale)
