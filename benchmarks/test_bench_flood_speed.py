"""Throughput benchmark: flood path and round path of the flood engines.

Measures, on 50- to 500-node topologies under the controlled-jamming
environment of the interference sweep:

* **flood path** — floods/sec of the per-node reference loop vs the
  vectorized engine (clean and interfered), plus LWB rounds/sec on an
  8-source workload.  The "scalar" column times ``run_reference`` of
  ``tests/reference_flood.py`` — the per-node loop the ``"scalar"``
  engine is pinned to bit for bit — not the ``"scalar"`` engine
  itself, which runs the vectorized phase loop with the per-node draw
  order and would measure that loop against itself;
* **round path** — rounds/sec of the production round path
  (``NodeStateArray`` + one batched phase loop for all data slots) on a
  32-slot round workload — the broadcast-style round shape the paper's
  ``N`` sources produce at scale — under the batched reception kernel.

Results are printed as tables; the benchmark writes no files.  The
committed ``BENCH_flood_speed.json`` keeps the numbers recorded by
earlier engine generations as history, and ``perfbench/`` records the
end-to-end and per-layer timings.  Enforced bars are in-run ratios, not
absolute rates (shared VMs show ~2x CPU-steal swings, so only
comparisons within one run are trustworthy):

vectorized >= 5x the per-node reference loop on the interfered flood
workload at every size, >= 2x on the clean flood and the 8-source round
workloads.  The round-path rate is printed, not gated.

Tier-1 runs the 50- and 100-node points (``TIER1_SIZES``).  Nearly
all of the benchmark's time at 200 and 500 nodes goes to timing the
per-node reference loop, so those points run in CI's benchmark smoke
step instead, as ``REPRO_BENCH_SIZES=200,500`` (comma-separated node
counts select any of ``SIZES``), with the same bars.
"""

import functools
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.experiments.reporting import format_table
from repro.experiments.scenarios import jamming_interference
from repro.net.channels import ChannelHopper
from repro.net.glossy import GlossyFlood
from repro.net.link import LinkModel
from repro.net.lwb import LWBRoundEngine, Schedule
from repro.net.node import NodeStateArray
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import random_topology

# The per-node reference lives with the tests; pytest only puts
# ``tests/`` on the import path when it collects that directory.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from reference_flood import run_reference  # noqa: E402

#: Engines of the flood-path comparison tables.
ENGINE_COMPARISON = ("scalar", "vectorized")

#: Per-size workload: the per-node reference is O(N^2)-ish per flood, so
#: larger topologies run fewer floods to keep the benchmark quick.  The
#: small sizes time for only tens of milliseconds per repeat, so they
#: take more repeats to keep their best-of rates clear of CPU-steal
#: bursts.
SIZES = {
    50: {"floods": 150, "rounds": 10, "repeats": 7},
    100: {"floods": 120, "rounds": 8, "repeats": 5},
    200: {"floods": 60, "rounds": 6, "repeats": 3},
    500: {"floods": 20, "rounds": 2, "repeats": 3},
}
ROUND_SOURCES = 8

#: Sizes run when ``REPRO_BENCH_SIZES`` is unset (see the docstring).
TIER1_SIZES = (50, 100)

#: Round-path workload: data slots per round and timed rounds per size.
ROUND_PATH_SLOTS = 32
ROUND_PATH_ROUNDS = {50: 10, 100: 8, 200: 6, 500: 4}


def _selected_sizes():
    """Benchmark sizes, optionally filtered via ``REPRO_BENCH_SIZES``."""
    override = os.environ.get("REPRO_BENCH_SIZES")
    if not override:
        return {size: SIZES[size] for size in TIER1_SIZES}
    wanted = {int(token) for token in override.split(",") if token.strip()}
    selected = {size: workload for size, workload in SIZES.items() if size in wanted}
    if not selected:
        raise ValueError(f"REPRO_BENCH_SIZES={override!r} selects no known size")
    return selected


def _flood_timer(topology, engine, interference, floods):
    """Seconds for ``floods`` single floods under one engine, per call."""
    flood = GlossyFlood(
        topology, LinkModel(topology, seed=1), rng=np.random.default_rng(0), engine=engine
    )
    # The "scalar" column times the per-node oracle (see the docstring).
    run = functools.partial(run_reference, flood) if engine == "scalar" else flood.run
    run(initiator=0, n_tx=3, interference=interference)  # warm caches

    def timer():
        start = time.perf_counter()
        for index in range(floods):
            run(
                initiator=topology.node_ids[index % topology.num_nodes],
                n_tx=3,
                interference=interference,
                start_ms=index * 22.0,
            )
        return time.perf_counter() - start

    return timer


def _round_timer(topology, engine, interference, rounds):
    """Seconds for ``rounds`` LWB rounds of the 8-source workload, per call."""
    sources = topology.node_ids[:ROUND_SOURCES]

    def timer():
        simulator = NetworkSimulator(
            topology,
            SimulatorConfig(
                round_period_s=1.0, channel_hopping=False, engine=engine, seed=7
            ),
            sources=sources,
        )
        simulator.set_interference(interference)
        if engine == "scalar":
            # The round engine floods through ``flood.run`` (run_batch
            # loops it under the scalar engine), so shadowing it on the
            # instance puts the whole round on the per-node oracle.
            flood = simulator.engine.flood
            flood.run = functools.partial(run_reference, flood)
        simulator.run_round(n_tx=3)  # warm caches
        start = time.perf_counter()
        for _ in range(rounds):
            simulator.run_round(n_tx=3)
        return time.perf_counter() - start

    return timer


def _round_path_timer(topology, interference, rounds):
    """Seconds for ``rounds`` rounds of the 32-slot round path, per call.

    Every call drives a fresh ``NodeStateArray`` store through the
    production round path.
    """
    slots = tuple(topology.node_ids[:ROUND_PATH_SLOTS])

    def timer():
        round_engine = LWBRoundEngine(
            topology,
            hopper=ChannelHopper(enabled=False),
            rng=np.random.default_rng(7),
            engine="vectorized",
        )
        store = NodeStateArray(topology.node_ids, coordinator=topology.coordinator)
        round_engine.run_round(  # warm caches
            store,
            Schedule(round_index=0, n_tx=3, slots=slots),
            interference=interference,
        )
        start = time.perf_counter()
        for index in range(rounds):
            round_engine.run_round(
                store,
                Schedule(round_index=index + 1, n_tx=3, slots=slots),
                start_ms=(index + 1) * 1000.0,
                interference=interference,
            )
        return time.perf_counter() - start

    return timer


def _interleaved_rates(workloads, repeats):
    """Best-of-``repeats`` rates of ``{name: (timer, count)}`` workloads.

    The workloads are interleaved within every repeat, so machine-speed
    drift hits both sides of every in-run ratio alike.
    """
    best = {name: float("inf") for name in workloads}
    for _ in range(repeats):
        for name, (timer, _count) in workloads.items():
            best[name] = min(best[name], timer())
    return {name: count / best[name] for name, (_timer, count) in workloads.items()}


def _benchmark_size(num_nodes, workload):
    topology = random_topology(num_nodes, seed=3)
    interference = jamming_interference(topology, 0.2)
    floods, rounds = workload["floods"], workload["rounds"]
    timers = {
        "floods_per_sec_clean": (
            lambda engine: _flood_timer(topology, engine, None, floods), floods
        ),
        "floods_per_sec_interfered": (
            lambda engine: _flood_timer(topology, engine, interference, floods), floods
        ),
        "rounds_per_sec_interfered": (
            lambda engine: _round_timer(topology, engine, interference, rounds), rounds
        ),
    }
    # The two engines of every metric run adjacent within each repeat.
    workloads = {
        (engine, metric): (make_timer(engine), count)
        for metric, (make_timer, count) in timers.items()
        for engine in ENGINE_COMPARISON
    }
    round_path_rounds = ROUND_PATH_ROUNDS[num_nodes]
    round_path = {
        "rounds_per_sec": (
            _round_path_timer(topology, interference, round_path_rounds),
            round_path_rounds,
        )
    }
    rates = _interleaved_rates({**workloads, **round_path}, workload["repeats"])
    results = {engine: {} for engine in ENGINE_COMPARISON}
    for engine, metric in workloads:
        results[engine][metric] = rates[engine, metric]
    speedups = {
        metric: results["vectorized"][metric] / results["scalar"][metric]
        for metric in results["scalar"]
    }
    return results, speedups, rates["rounds_per_sec"]


def test_flood_engine_throughput():
    all_speedups = {}
    for num_nodes, workload in _selected_sizes().items():
        results, speedups, round_path_rate = _benchmark_size(num_nodes, workload)
        all_speedups[num_nodes] = speedups

        rows = [
            [
                metric,
                results["scalar"][metric],
                results["vectorized"][metric],
                speedups[metric],
            ]
            for metric in sorted(speedups)
        ]
        print()
        print(
            format_table(
                ["metric", "scalar", "vectorized", "speedup"],
                rows,
                title=f"Flood engine throughput ({num_nodes} nodes)",
            )
        )
        print(
            format_table(
                ["workload", "rounds/sec"],
                [[f"{ROUND_PATH_SLOTS}-slot round", round_path_rate]],
                title=f"Round path ({num_nodes} nodes)",
            )
        )

    # The vectorized engine must pay for itself at every size: >= 5x on
    # the interfered flood workload, and well ahead everywhere else.
    for num_nodes, speedups in all_speedups.items():
        assert speedups["floods_per_sec_interfered"] >= 5.0, num_nodes
        assert speedups["floods_per_sec_clean"] >= 2.0, num_nodes
        assert speedups["rounds_per_sec_interfered"] >= 2.0, num_nodes

