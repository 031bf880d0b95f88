"""Throughput benchmark: flood path and round path of the flood engines.

Measures, on 50- to 500-node topologies under the controlled-jamming
environment of the interference sweep:

* **flood path** — floods/sec of the per-node reference loop vs the
  vectorized engine (clean and interfered), plus LWB rounds/sec on an
  8-source workload.  The "scalar" column times
  ``GlossyFlood._run_oracle`` — the per-node loop the ``"scalar"``
  engine is pinned to bit for bit — not the ``"scalar"`` engine
  itself, which runs the vectorized phase loop with the per-node draw
  order and would measure that loop against itself;
* **round path** — rounds/sec of the production round path
  (``NodeStateArray`` + one batched phase loop for all data slots) on a
  32-slot round workload — the broadcast-style round shape the paper's
  ``N`` sources produce at scale — under the exact batched reception
  kernel and under the log-matmul engine (``"vectorized-log"``), timed
  interleaved, next to the log kernel's measured max probability
  deviation from the exact product;
* **round path at scale** — 1000- and 2000-node round-path-only points
  (the scalar flood path would take minutes there) over a shared
  ``LinkModel``.

Results are printed as tables; the benchmark writes no files.  The
committed ``BENCH_flood_speed.json`` keeps the numbers recorded by
earlier engine generations as history, and ``perfbench/`` records the
end-to-end and per-layer timings.  Enforced bars are in-run ratios, not
absolute rates (shared VMs show ~2x CPU-steal swings, so only
comparisons within one run are trustworthy):

* vectorized >= 5x the per-node reference loop on the interfered
  flood workload at every size, >= 2x on the clean flood and the
  8-source round workloads;
* the log-matmul round path >= 1.5x the exact batched kernel at 1000
  and 2000 nodes;
* the log kernel's max probability deviation from the exact product
  below 1e-9, measured on links forced into the gray zone (PRR
  0.05-0.95) — the generated topologies have almost none, and on near
  0/1 factors the two kernels agree exactly.

``REPRO_BENCH_SIZES`` (comma-separated node counts) restricts the sweep
— CI's smoke step runs ``REPRO_BENCH_SIZES=50`` and the log-mode smoke
``REPRO_BENCH_SIZES=1000``.
"""

import os
import time

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

#: Engines of the flood-path comparison tables (the log engine only
#: differs on the batched round path, so it is measured there instead).
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

#: Round-path workload: data slots per round and timed rounds per size.
ROUND_PATH_SLOTS = 32
ROUND_PATH_ROUNDS = {50: 10, 100: 8, 200: 6, 500: 4, 1000: 2, 2000: 1}

#: Round-path engines timed back to back: the exact batched kernel
#: (what every simulator runs by default) and the log-matmul engine.
ROUND_PATH_ENGINES = {
    "rounds_per_sec": "vectorized",
    "rounds_per_sec_log": "vectorized-log",
}

#: Round-path-only points at 1000/2000 nodes, over one shared LinkModel.
XL_ROUND_PATH_SIZES = (1000, 2000)
XL_ROUND_PATH_REPEATS = 2

#: In-run bars: the log-matmul round path vs the exact batched kernel.
#: The recorded history puts the ratio at 1.9x, 2.6x and 2.4x for 500,
#: 1000 and 2000 nodes; below 1000 nodes the shared round bookkeeping
#: dominates, so only the two large sizes are gated.
LOG_BARS_VS_EXACT_KERNEL = {1000: 1.5, 2000: 1.5}

#: Upper bound on the log kernel's probability deviation from the exact
#: masked product, measured on gray-zone links.
LOG_DEVIATION_BOUND = 1e-9

#: Share of a topology's links forced into the gray zone for the
#: deviation measurement.
GRAY_LINK_SHARE = 0.2


def _selected_sizes():
    """Benchmark sizes, optionally filtered via ``REPRO_BENCH_SIZES``.

    Returns ``(sizes, xl_sizes)``: the full-comparison sizes (flood
    path + round path) and the round-path-only 1000/2000-node points.
    """
    override = os.environ.get("REPRO_BENCH_SIZES")
    if not override:
        return dict(SIZES), list(XL_ROUND_PATH_SIZES)
    wanted = {int(token) for token in override.split(",") if token.strip()}
    selected = {size: workload for size, workload in SIZES.items() if size in wanted}
    xl_selected = [size for size in XL_ROUND_PATH_SIZES if size in wanted]
    if not selected and not xl_selected:
        raise ValueError(f"REPRO_BENCH_SIZES={override!r} selects no known size")
    return selected, xl_selected


def _flood_timer(topology, engine, interference, floods):
    """Seconds for ``floods`` single floods under one engine, per call."""
    flood = GlossyFlood(
        topology, LinkModel(topology, seed=1), rng=np.random.default_rng(0), engine=engine
    )
    # The "scalar" column times the per-node oracle (see the docstring).
    run = flood._run_oracle if engine == "scalar" else flood.run
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
            flood.run = flood._run_oracle
        simulator.run_round(n_tx=3)  # warm caches
        start = time.perf_counter()
        for _ in range(rounds):
            simulator.run_round(n_tx=3)
        return time.perf_counter() - start

    return timer


def _round_path_timer(topology, engine, interference, rounds, link_model=None):
    """Seconds for ``rounds`` rounds of the 32-slot round path, per call.

    Every call drives a fresh ``NodeStateArray`` store through the
    production round path.  Passing ``link_model`` shares one PRR
    matrix between engines (its O(N^2) construction dominates setup at
    1000+ nodes).
    """
    slots = tuple(topology.node_ids[:ROUND_PATH_SLOTS])

    def timer():
        round_engine = LWBRoundEngine(
            topology,
            link_model=link_model,
            hopper=ChannelHopper(enabled=False),
            rng=np.random.default_rng(7),
            engine=engine,
        )
        store = NodeStateArray(
            topology.node_ids,
            positions=topology.positions,
            coordinator=topology.coordinator,
        )
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


def _add_gray_links(link_model, seed=0):
    """Force a seeded share of ``link_model``'s links into the gray zone.

    The generated topologies cut links off far above the midpoint of
    the logistic PRR curve, so nearly every link has a PRR of 0 or
    close to 1 — factors on which the exact and log kernels agree to
    the bit.  Overriding :data:`GRAY_LINK_SHARE` of the existing links
    with PRRs drawn from [0.05, 0.95] exercises the log/exp round trip.
    """
    prr = link_model.prr_matrix()
    ids = link_model.topology.node_ids
    senders, receivers = np.nonzero(np.triu(prr > 0.0, k=1))
    rng = np.random.default_rng(seed)
    chosen = rng.random(len(senders)) < GRAY_LINK_SHARE
    values = rng.uniform(0.05, 0.95, size=int(chosen.sum()))
    for a, b, value in zip(senders[chosen], receivers[chosen], values):
        link_model.set_link_quality(ids[a], ids[b], float(value))
    return link_model


def _log_kernel_deviation(link_model, samples=20, seed=0):
    """Measured max |exact - log| probability deviation on one topology.

    Samples transmitter sets of several densities and compares the
    exact failure products against the log-matmul back-transform —
    the recorded number documents how "approximate-but-close" the
    ``vectorized-log`` engine actually is on gray-zone links.
    """
    prr = link_model.prr_matrix()
    failure = 1.0 - prr
    log_failure = link_model.log_failure_matrix()
    n = prr.shape[0]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for num_tx in (2, max(2, n // 20), max(2, n // 4), max(2, n // 2)):
        for _ in range(samples):
            tx = np.sort(rng.choice(n, size=min(num_tx, n), replace=False))
            exact = 1.0 - failure[tx].prod(axis=0)
            mask = np.zeros(n)
            mask[tx] = 1.0
            approximate = -np.expm1(mask @ log_failure)
            worst = max(worst, float(np.abs(exact - approximate).max()))
    return worst


def _round_path_entry(rates, deviation):
    """Assemble the ``round_path`` summary from timed rates."""
    return {
        "log_max_abs_deviation": deviation,
        **rates,
        "log_speedup_vs_exact_kernel": rates["rounds_per_sec_log"] / rates["rounds_per_sec"],
    }


def _round_path_workloads(topology, interference, rounds, link_model=None):
    """``{name: (timer, rounds)}`` for every :data:`ROUND_PATH_ENGINES` entry."""
    return {
        name: (_round_path_timer(topology, engine, interference, rounds, link_model), rounds)
        for name, engine in ROUND_PATH_ENGINES.items()
    }


def _benchmark_xl_round_path(num_nodes):
    """Round-path-only point at 1000/2000 nodes."""
    topology = random_topology(num_nodes, seed=3)
    link_model = LinkModel(topology, seed=1)
    link_model.prr_matrix()  # build once, shared below
    interference = jamming_interference(topology, 0.2)
    rates = _interleaved_rates(
        _round_path_workloads(
            topology, interference, ROUND_PATH_ROUNDS[num_nodes], link_model
        ),
        XL_ROUND_PATH_REPEATS,
    )
    # Timing is done; the shared model may now take the gray overrides.
    deviation = _log_kernel_deviation(_add_gray_links(link_model), samples=8)
    return _round_path_entry(rates, deviation)


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
    round_path = _round_path_workloads(
        topology, interference, ROUND_PATH_ROUNDS.get(num_nodes, rounds)
    )
    rates = _interleaved_rates({**workloads, **round_path}, workload["repeats"])
    results = {engine: {} for engine in ENGINE_COMPARISON}
    for engine, metric in workloads:
        results[engine][metric] = rates[engine, metric]
    speedups = {
        metric: results["vectorized"][metric] / results["scalar"][metric]
        for metric in results["scalar"]
    }
    deviation = _log_kernel_deviation(
        _add_gray_links(LinkModel(topology, seed=1)), samples=10
    )
    round_rates = {name: rates[name] for name in round_path}
    return results, speedups, _round_path_entry(round_rates, deviation)


def _print_round_path(num_nodes, round_path):
    rows = [[
        f"{ROUND_PATH_SLOTS}-slot round",
        round_path["rounds_per_sec"],
        round_path["rounds_per_sec_log"],
        round_path["log_speedup_vs_exact_kernel"],
    ]]
    print(
        format_table(
            ["workload", "exact kernel", "log matmul", "log ratio"],
            rows,
            title=f"Round path ({num_nodes} nodes, "
                  f"gray-link log dev {round_path['log_max_abs_deviation']:.2e})",
        )
    )


def test_flood_engine_throughput():
    sizes, xl_sizes = _selected_sizes()
    all_speedups = {}
    round_paths = {}
    for num_nodes, workload in sizes.items():
        results, speedups, round_path = _benchmark_size(num_nodes, workload)
        all_speedups[num_nodes] = speedups
        round_paths[num_nodes] = round_path

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
        _print_round_path(num_nodes, round_path)

    for num_nodes in xl_sizes:
        round_paths[num_nodes] = _benchmark_xl_round_path(num_nodes)
        print()
        _print_round_path(num_nodes, round_paths[num_nodes])

    # The vectorized engine must pay for itself at every size: >= 5x on
    # the interfered flood workload, and well ahead everywhere else.
    for num_nodes, speedups in all_speedups.items():
        assert speedups["floods_per_sec_interfered"] >= 5.0, num_nodes
        assert speedups["floods_per_sec_clean"] >= 2.0, num_nodes
        assert speedups["rounds_per_sec_interfered"] >= 2.0, num_nodes

    # The log-matmul mode must buy its approximation at scale, and stay
    # within its documented deviation envelope on gray-zone links.
    for num_nodes, round_path in round_paths.items():
        log_bar = LOG_BARS_VS_EXACT_KERNEL.get(num_nodes)
        if log_bar is not None:
            assert round_path["log_speedup_vs_exact_kernel"] >= log_bar, (
                num_nodes,
                round_path,
            )
        assert 0.0 < round_path["log_max_abs_deviation"] < LOG_DEVIATION_BOUND, (
            num_nodes,
            round_path,
        )
