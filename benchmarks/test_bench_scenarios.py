"""Dimmer vs baselines under the dynamic scenario families.

The mobile-jammer family drags a Jamlab-style jammer across the
deployment (spatially moving interference the paper never evaluates);
the node-churn family lets traffic sources drop off the bus and rejoin.
Static LWB (``N_TX = 3``), Dimmer (DQN adaptivity) and the PID baseline
run the same scripted scenarios; the grid fans out through the
:class:`~repro.experiments.runner.ParallelRunner` and the aggregated
results are printed as tables; the benchmark writes no files (the
committed ``BENCH_scenarios.json`` keeps earlier recorded numbers as
history).

Expected shape: under the patrolling jammer the adaptive protocols buy
reliability with extra radio-on time compared to static LWB; under pure
churn (no interference) every protocol delivers, since leaving nodes
are removed from the schedule.
"""

from figure_helpers import benchmark_session

from repro.experiments.reporting import format_table
from repro.experiments.runner import network_payload, stable_seed
from repro.experiments.spec import UNSET, MobileJammerSpec, NodeChurnSpec

FAMILIES = ("mobile_jammer", "node_churn")
SPEC_TYPES = {"mobile_jammer": MobileJammerSpec, "node_churn": NodeChurnSpec}
PROTOCOLS = ("lwb", "dimmer", "pid")
ROUNDS = 30
RUNS = 2
SEED = 9


def run_scenario_grid(network):
    session = benchmark_session()
    payload = network_payload(network)
    specs = []
    for family in FAMILIES:
        for protocol in PROTOCOLS:
            for run_index in range(RUNS):
                specs.append(
                    SPEC_TYPES[family](
                        protocol=protocol,
                        rounds=ROUNDS,
                        network=payload if protocol == "dimmer" else UNSET,
                        seed=stable_seed(SEED, family, protocol, run_index),
                        label=f"{family}:{protocol}#{run_index}",
                    )
                )
    flat = session.run_entries(specs)
    grid = {}
    cursor = 0
    for family in FAMILIES:
        for protocol in PROTOCOLS:
            entries = flat[cursor: cursor + RUNS]
            cursor += RUNS
            grid[(family, protocol)] = {
                "reliability": sum(e["reliability"] for e in entries) / RUNS,
                "radio_on_ms": sum(e["radio_on_ms"] for e in entries) / RUNS,
                "energy_j": sum(e["energy_j"] for e in entries) / RUNS,
            }
    return grid


def test_scenario_families_dimmer_vs_baselines(benchmark, pretrained_network):
    grid = benchmark.pedantic(
        run_scenario_grid, args=(pretrained_network,), rounds=1, iterations=1
    )

    for family in FAMILIES:
        rows = [
            [
                protocol,
                grid[(family, protocol)]["reliability"],
                grid[(family, protocol)]["radio_on_ms"],
                grid[(family, protocol)]["energy_j"],
            ]
            for protocol in PROTOCOLS
        ]
        print()
        print(format_table(
            ["protocol", "reliability", "radio-on [ms]", "energy [J]"],
            rows,
            title=f"{family}: Dimmer vs baselines ({RUNS} runs x {ROUNDS} rounds)",
        ))

    # Every protocol keeps the bus usable in both families.
    for (family, protocol), metrics in grid.items():
        assert 0.5 < metrics["reliability"] <= 1.0, (family, protocol)
        assert metrics["radio_on_ms"] > 0.0
        assert metrics["energy_j"] > 0.0

    # Under the patrolling jammer the adaptive protocols match or beat
    # static LWB on reliability and pay for it with radio-on time.
    jammer = {protocol: grid[("mobile_jammer", protocol)] for protocol in PROTOCOLS}
    assert jammer["dimmer"]["reliability"] >= jammer["lwb"]["reliability"] - 0.02
    assert jammer["pid"]["reliability"] >= jammer["lwb"]["reliability"] - 0.02
    assert jammer["dimmer"]["radio_on_ms"] > jammer["lwb"]["radio_on_ms"]

    # Churn without interference: leaving sources are dropped from the
    # schedule, so reliability stays near-perfect for every protocol.
    for protocol in PROTOCOLS:
        assert grid[("node_churn", protocol)]["reliability"] >= 0.95
