"""Fig. 7a — reliability on the 48-node D-Cube deployment.

Runs the aperiodic data-collection scenario (5 sources, 1 known sink)
on the 48-node deployment with the DQN trained on the 18-node testbed
(no retraining), under no interference and WiFi levels 1 and 2, for
LWB, Dimmer (channel hopping + ACKs) and Crystal.  Paper shape: LWB
collapses under WiFi (93.6 % and 27 %), Dimmer stays high (100 / 98.3 /
95.8 %) and approaches Crystal (100 / 100 / 99 %).
"""

from figure_helpers import benchmark_session

from repro.experiments.reporting import format_table

NUM_ROUNDS = 150

#: Shared cache so Fig. 7a and Fig. 7b reuse the same (expensive) runs.
_COMPARISON_CACHE = {}


def get_comparison(network):
    key = id(network)
    if key not in _COMPARISON_CACHE:
        # One DCubeSpec worker task per (protocol, WiFi-level) grid
        # point on the 48-node D-Cube deployment (workers rebuild it
        # from the default topology spec); for the same seed the results
        # do not depend on the worker count.
        _COMPARISON_CACHE[key] = benchmark_session(network).dcube(
            num_rounds=NUM_ROUNDS,
            num_sources=5,
            seed=5,
        )
    return _COMPARISON_CACHE[key]


def test_fig7a_dcube_reliability(benchmark, pretrained_network):
    comparison = benchmark.pedantic(
        get_comparison, args=(pretrained_network,), rounds=1, iterations=1
    )
    level_names = {0: "no interference", 1: "WiFi level 1", 2: "WiFi level 2"}
    rows = []
    for level in comparison.levels():
        row = [level_names[level]]
        for protocol in ("lwb", "dimmer", "crystal"):
            row.append(comparison.get(protocol, level).reliability)
        rows.append(row)
    print()
    print(format_table(
        ["scenario", "LWB", "Dimmer", "Crystal"],
        rows,
        title="Fig. 7a: D-Cube reliability (48 nodes, unseen WiFi, no retraining)",
    ))
    # Shape: without interference everyone is (nearly) perfect.
    assert comparison.get("dimmer", 0).reliability > 0.95
    # Under the strongest WiFi level Dimmer clearly beats best-effort LWB...
    assert comparison.get("dimmer", 2).reliability >= comparison.get("lwb", 2).reliability + 0.05
    # ...and sits within reach of the hand-tuned Crystal.
    assert comparison.get("dimmer", 2).reliability >= comparison.get("crystal", 2).reliability - 0.15
