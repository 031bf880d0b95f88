"""Reinforcement-learning substrate.

Everything Dimmer's learning machinery needs, implemented from scratch
on top of numpy:

* :mod:`repro.rl.qnetwork` — a small fully-connected Q-network (the
  paper uses one 30-neuron ReLU hidden layer) with SGD/Adam training.
* :mod:`repro.rl.quantized` — fixed-point quantization of a trained
  network for embedded inference on 16-bit MCUs (2-byte weights, 4-byte
  accumulators, scale 100) with flash/RAM footprint accounting.
* :mod:`repro.rl.replay_buffer` — experience replay.
* :mod:`repro.rl.dqn` — the DQN agent (epsilon-greedy with linear
  annealing, target network, discount factor 0.7).
* :mod:`repro.rl.exp3` — the Exp3 adversarial multi-armed bandit used by
  the distributed forwarder selection.
* :mod:`repro.rl.features` — the Table-I state encoding (K worst nodes,
  one-hot N_TX, M history bits).
* :mod:`repro.rl.reward` — the Eq. 3 reward function.
* :mod:`repro.rl.environment` / :mod:`repro.rl.trace_env` — the RL
  environment protocol, the simulation-backed training environment, the
  trace recorder and the trace-replay environment.
"""

from repro.rl.dqn import DQNAgent, DQNConfig, EpsilonSchedule, TrainingResult
from repro.rl.environment import Action, Environment, StepResult
from repro.rl.exp3 import Exp3
from repro.rl.features import FeatureConfig, FeatureEncoder
from repro.rl.qnetwork import QNetwork
from repro.rl.quantized import QuantizationReport, QuantizedNetwork
from repro.rl.replay_buffer import ReplayBuffer
from repro.rl.reward import RewardConfig, compute_reward
from repro.rl.trace_env import (
    DecisionPoint,
    SimulationEnvironment,
    TraceEnvironment,
    TraceRecorder,
)

__all__ = [
    "DQNAgent",
    "DQNConfig",
    "EpsilonSchedule",
    "TrainingResult",
    "Action",
    "Environment",
    "StepResult",
    "Exp3",
    "FeatureConfig",
    "FeatureEncoder",
    "QNetwork",
    "QuantizationReport",
    "QuantizedNetwork",
    "ReplayBuffer",
    "RewardConfig",
    "compute_reward",
    "DecisionPoint",
    "SimulationEnvironment",
    "TraceEnvironment",
    "TraceRecorder",
]
