"""The three benchmark workloads, each a closed-loop job through ``Session``.

Each workload function takes the client's session, the shipped policy payload and
the workload seed, fixes the job's inputs, and returns a callable that
runs one job and returns a :class:`JobOutput`.  Every run of the job
uses the same inputs, so every run must produce the same shard outputs.

* ``kiel_sweep`` — Fig. 5: {lwb, dimmer, pid} x interference ratios
  0-35 %, one run each, ``SweepSpec`` shards on the 18-node Kiel testbed,
  75 rounds at a 4 s period.  The batched data-slot kernel and jammer /
  ambient interference dominate; the Dimmer controller runs every round.
* ``dcube_collection`` — Fig. 7: {lwb, dimmer, crystal} x WiFi levels
  0-2, ``DCubeSpec`` shards on the 48-node D-Cube deployment,
  aperiodic 5-source collection to one sink, 100 rounds.  Single-flood
  ``GlossyFlood.run`` dominates (Crystal's floods and every control
  slot); few, uneven shards, so the Crystal shards set the job time.
* ``trace_train`` — ``TrainingPipeline.collect_traces`` of the default
  training episodes through the session's runner (72 short
  ``trace_episode`` shards), then DQN training on the recorded trace in
  the client.  The trace file goes to a temporary directory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Fig. 5 grid.
KIEL_PROTOCOLS = ("lwb", "dimmer", "pid")
KIEL_RATIOS = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35)
KIEL_RUNS = 1
KIEL_ROUNDS = 75
KIEL_ROUND_PERIOD_S = 4.0
#: Every spec with an engine field sets it explicitly.
ENGINE = "vectorized"

#: Fig. 7 grid.
DCUBE_PROTOCOLS = ("lwb", "dimmer", "crystal")
DCUBE_LEVELS = (0, 1, 2)
DCUBE_ROUNDS = 100

#: DQN iterations of the ``trace_train`` job (``TrainingProfile.fast``).
TRAIN_ITERATIONS = 8000


@dataclass
class JobOutput:
    """What one job produced and how long it took (host seconds)."""

    wall_s: float
    #: Host seconds of the simulation phase and the rounds it simulated
    #: (LWB rounds, Crystal epochs or trace-simulator rounds).
    sim_s: float
    rounds: int
    #: One output per shard, in a fixed order; ``None`` marks a failed shard.
    shards: List[Optional[Any]]
    #: Simulated statistics for readers: group -> {statistic: value}.
    summary: Dict[str, Dict[str, float]] = field(default_factory=dict)
    train_iterations: int = 0
    train_s: float = 0.0


def _ok(entry: Any) -> bool:
    from repro.experiments.runner import FAILURE_KEY

    return not (isinstance(entry, dict) and entry.get(FAILURE_KEY))


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


def kiel_specs(payload: dict, seed: int) -> list:
    """The ``SweepSpec`` shards of one ``kiel_sweep`` job."""
    from repro.experiments.runner import stable_seed
    from repro.experiments.spec import UNSET, SweepSpec

    return [
        SweepSpec(
            protocol=protocol,
            ratio=ratio,
            topology={"kind": "kiel"},
            rounds=KIEL_ROUNDS,
            round_period_s=KIEL_ROUND_PERIOD_S,
            engine=ENGINE,
            network=payload if protocol == "dimmer" else UNSET,
            # The per-shard seeds of Session.sweep, mixed from the workload seed.
            seed=stable_seed(seed, protocol, round(ratio * 100), run_index),
            label=f"sweep:{protocol}@{ratio:.2f}#{run_index}",
        )
        for protocol in KIEL_PROTOCOLS
        for ratio in KIEL_RATIOS
        for run_index in range(KIEL_RUNS)
    ]


def kiel_sweep(session, payload: dict, seed: int, workdir: Path) -> Callable[[], JobOutput]:
    specs = kiel_specs(payload, seed)

    def job() -> JobOutput:
        start = time.perf_counter()
        results = session.run_grid(specs, collect_errors=True)
        wall = time.perf_counter() - start
        shards = [result if _ok(result) else None for result in results]
        summary = {}
        for protocol in KIEL_PROTOCOLS:
            ok = [r for s, r in zip(specs, shards) if s.protocol == protocol and r is not None]
            summary[protocol] = {
                "reliability": _mean([r.reliability for r in ok]),
                "radio_on_ms": _mean([r.radio_on_ms for r in ok]),
            }
        return JobOutput(wall, wall, KIEL_ROUNDS * len(specs), shards, summary)

    return job


def dcube_collection(session, payload: dict, seed: int, workdir: Path) -> Callable[[], JobOutput]:
    from repro.experiments.spec import UNSET, DCubeSpec

    # The order and parameters of Session.dcube; DCubeSpec has no engine
    # field (LWB and Dimmer use the SimulatorConfig default, Crystal the
    # GlossyFlood constructor default "scalar").
    specs = [
        DCubeSpec(
            protocol=protocol,
            level=level,
            topology={"kind": "dcube"},
            num_rounds=DCUBE_ROUNDS,
            num_sources=5,
            max_retries=5,
            network=payload if protocol == "dimmer" else UNSET,
            seed=seed,
            label=f"dcube:{protocol}@L{level}",
        )
        for level in DCUBE_LEVELS
        for protocol in DCUBE_PROTOCOLS
    ]

    def job() -> JobOutput:
        start = time.perf_counter()
        results = session.run_grid(specs, collect_errors=True)
        wall = time.perf_counter() - start
        shards = [result if _ok(result) else None for result in results]
        summary = {}
        for spec, result in zip(specs, shards):
            if result is not None:
                summary[f"{spec.protocol}@L{spec.level}"] = {
                    "reliability": result.reliability,
                    "radio_on_ms": result.average_radio_on_ms,
                }
        return JobOutput(wall, wall, DCUBE_ROUNDS * len(specs), shards, summary)

    return job


def trace_train(session, payload: dict, seed: int, workdir: Path) -> Callable[[], JobOutput]:
    from repro.experiments.runner import RunnerError
    from repro.experiments.training import TrainingPipeline, TrainingProfile
    from repro.net.topology import kiel_testbed
    from repro.rl.dqn import DQNAgent

    pipeline = TrainingPipeline(
        topology=kiel_testbed(),
        topology_spec={"kind": "kiel"},
        profile=TrainingProfile.fast(),
        data_dir=workdir,
        seed=seed,
    )
    n_values = pipeline.feature_config.n_max + 1
    episodes = len(pipeline.episodes) * pipeline.profile.trace_repetitions
    shard_count = episodes * n_values + 1  # the trace slices plus the training

    def job() -> JobOutput:
        start = time.perf_counter()
        try:
            trace = pipeline.collect_traces(force=True, runner=session.runner)
        except RunnerError:
            wall = time.perf_counter() - start
            return JobOutput(wall, wall, 0, [None] * shard_count)
        recorded = time.perf_counter()
        agent = DQNAgent(pipeline.agent_config())
        agent.train(pipeline.build_environment(trace), iterations=TRAIN_ITERATIONS)
        end = time.perf_counter()

        # One output per (episode, N_TX) slice — the content of one
        # trace_episode shard — then the trained weights.
        shards: List[Optional[Any]] = []
        summary: Dict[str, Dict[str, float]] = {}
        for records in trace.episodes():
            for n_tx in range(n_values):
                shards.append([
                    [r.node_ids, r.reliability_array, r.radio_on_array,
                     r.interference_ratio, r.had_losses]
                    for r in records if r.n_tx == n_tx
                ])
        for n_tx in range(n_values):
            chosen = [r for r in trace if r.n_tx == n_tx]
            summary[f"n_tx={n_tx}"] = {
                "reliability": _mean([float(r.reliability_array.mean()) for r in chosen]),
                "radio_on_ms": _mean([float(r.radio_on_array.mean()) for r in chosen]),
            }
        shards.append(agent.online.get_weights())
        return JobOutput(
            wall_s=end - start,
            sim_s=recorded - start,
            rounds=len(trace),
            shards=shards,
            summary=summary,
            train_iterations=TRAIN_ITERATIONS,
            train_s=end - recorded,
        )

    return job


WORKLOADS: Dict[str, Callable[..., Callable[[], JobOutput]]] = {
    "kiel_sweep": kiel_sweep,
    "dcube_collection": dcube_collection,
    "trace_train": trace_train,
}
