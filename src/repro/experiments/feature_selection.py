"""Fig. 4b — DQN input-feature selection (§V-B).

The paper sweeps two dimensions of the DQN input vector:

* **Number of input nodes K** (Fig. 4b-i): how many worst-reliability
  devices feed the network.  Very small K leads to over-conservative
  policies (energy wasted), K = all overfits the deployment; the paper
  selects K = 10.
* **History size M** (Fig. 4b-ii): how many past-round loss indicators
  feed the network.  No history makes the DQN react to transient losses;
  the paper selects M = 2.

Both panels also show the flash footprint of the resulting quantized
DQN.  For every swept value several models are trained independently
and their evaluation metrics averaged, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro.experiments.training import TrainingPipeline, TrainingProfile
from repro.net.topology import Topology
from repro.rl.features import FeatureConfig
from repro.rl.trace_env import EpisodeSpec, SimulationEnvironment

#: Episodes used to evaluate trained models: mild and heavy interference
#: plus calm periods, mirroring the evaluation dataset of §V-B.
EVALUATION_EPISODES: Sequence[EpisodeSpec] = (
    ((10, 0.0),),
    ((3, 0.0), (6, 0.10), (3, 0.0)),
    ((3, 0.0), (6, 0.30), (3, 0.0)),
    ((4, 0.05), (4, 0.0), (4, 0.20)),
)


@dataclass
class FeatureSweepPoint:
    """Aggregated evaluation of one feature-configuration value."""

    value: int
    radio_on_ms: float
    radio_on_std_ms: float
    reliability: float
    reliability_std: float
    dqn_size_kb: float
    models: int


@dataclass
class FeatureSweepResult:
    """Full sweep result (one Fig. 4b panel)."""

    dimension: str
    points: List[FeatureSweepPoint] = field(default_factory=list)

    def values(self) -> List[int]:
        """Swept values in order."""
        return [point.value for point in self.points]

    def point(self, value: int) -> FeatureSweepPoint:
        """Look up the sweep point for a given value."""
        for entry in self.points:
            if entry.value == value:
                return entry
        raise KeyError(f"no sweep point for value {value}")


def _evaluate_model(
    agent,
    feature_config: FeatureConfig,
    topology: Topology,
    episodes: Sequence[EpisodeSpec],
    evaluation_repeats: int,
    seed: int,
) -> tuple:
    """Greedy-evaluate one trained model on simulation episodes."""
    environment = SimulationEnvironment(
        topology=topology,
        feature_config=feature_config,
        episodes=episodes,
        initial_n_tx=3,
        seed=seed,
    )
    reliabilities: List[float] = []
    radio_on: List[float] = []
    total_episodes = evaluation_repeats * len(episodes)
    quantized = agent.quantize()
    for _ in range(total_episodes):
        state = environment.reset()
        done = False
        while not done:
            action = quantized.predict_action(state)
            step = environment.step(action)
            state = step.state
            done = step.done
            reliabilities.append(float(step.info["reliability"]))
            radio_on.append(float(step.info["radio_on_ms"]))
    return float(np.mean(reliabilities)), float(np.mean(radio_on)), quantized.report().flash_kb


def feature_config_for(dimension: str, value: int) -> FeatureConfig:
    """The feature configuration one sweep point trains with."""
    if dimension == "input_nodes":
        return FeatureConfig(num_input_nodes=value, history_size=2)
    if dimension == "history":
        return FeatureConfig(num_input_nodes=10, history_size=value)
    raise ValueError(f"unknown sweep dimension: {dimension!r}")


def train_and_evaluate_point(
    dimension: str,
    value: int,
    topology: Topology,
    profile: TrainingProfile,
    training_episodes: Sequence[EpisodeSpec],
    evaluation_episodes: Sequence[EpisodeSpec],
    evaluation_repeats: int,
    data_dir: Optional[Path],
    train_seed: int,
    eval_seed: int,
) -> tuple:
    """Train one model for one swept value and greedy-evaluate it.

    This is the unit of work of the ``feature_sweep_point`` runner
    experiment; returns ``(reliability, radio_on_ms, dqn_size_kb)``.
    """
    config = feature_config_for(dimension, value)
    pipeline = TrainingPipeline(
        topology=topology,
        feature_config=config,
        profile=profile,
        episodes=training_episodes,
        seed=train_seed,
        **({"data_dir": data_dir} if data_dir is not None else {}),
    )
    agent, _ = pipeline.train()
    return _evaluate_model(
        agent, config, topology, evaluation_episodes, evaluation_repeats, seed=eval_seed
    )
