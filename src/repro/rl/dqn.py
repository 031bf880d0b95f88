"""Deep Q-Network agent and offline training loop.

Reproduces the training procedure of §IV-B: the DQN (31 inputs, one
30-neuron ReLU hidden layer, 3 outputs) is trained for a configurable
number of iterations with an epsilon-greedy behaviour policy whose
exploration probability is annealed linearly from 100 % to 1 % over the
first half of training and kept at 1 % afterwards, with a discount
factor of 0.7.  Training runs offline against a trace or simulation
environment; the result is then quantized and shipped to the
(simulated) embedded coordinator for inference only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.rl.environment import Environment
from repro.rl.qnetwork import QNetwork, huber_terms
from repro.rl.quantized import QuantizedNetwork
from repro.rl.replay_buffer import ReplayBuffer

#: Gradient steps of :meth:`DQNAgent.train` whose replay indices are
#: drawn by one generator call and whose losses are reduced together.
BLOCK = 256
#: Iterations between two calls of :meth:`DQNAgent.train`'s callback.
CALLBACK_INTERVAL = 1000


@dataclass(frozen=True)
class EpsilonSchedule:
    """Linearly annealed epsilon-greedy exploration schedule.

    The paper anneals the random-action probability from 100 % to 1 %
    linearly over 100 000 steps (half of the 200 000 training
    iterations) and keeps it at 1 % afterwards.
    """

    start: float = 1.0
    end: float = 0.01
    anneal_steps: int = 100_000

    def __post_init__(self) -> None:
        if not 0.0 <= self.end <= self.start <= 1.0:
            raise ValueError("require 0 <= end <= start <= 1")
        if self.anneal_steps <= 0:
            raise ValueError("anneal_steps must be positive")

    def value(self, step: int) -> float:
        """Exploration probability at training step ``step``."""
        if step < 0:
            raise ValueError("step must be non-negative")
        if step >= self.anneal_steps:
            return self.end
        fraction = step / self.anneal_steps
        return self.start + (self.end - self.start) * fraction


@dataclass
class DQNConfig:
    """Hyper-parameters of the DQN agent.

    Defaults follow the paper where specified (discount factor 0.7,
    31-30-3 architecture, epsilon annealing) and use common DQN practice
    elsewhere (replay buffer, target network, Adam).
    """

    state_size: int = 31
    num_actions: int = 3
    hidden_sizes: tuple = (30,)
    discount: float = 0.7
    learning_rate: float = 1e-3
    batch_size: int = 32
    buffer_capacity: int = 50_000
    target_sync_interval: int = 500
    train_start: int = 500
    train_interval: int = 1
    epsilon: EpsilonSchedule = field(default_factory=EpsilonSchedule)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must be in [0, 1)")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.target_sync_interval <= 0:
            raise ValueError("target_sync_interval must be positive")

    @property
    def layer_sizes(self) -> tuple:
        """Full layer layout of the Q-network."""
        return (self.state_size, *self.hidden_sizes, self.num_actions)


@dataclass
class TrainingResult:
    """Summary of a training run."""

    steps: int
    episodes: int
    episode_rewards: List[float]
    losses: List[float]
    final_epsilon: float


class DQNAgent:
    """DQN agent with replay buffer and target network.

    Parameters
    ----------
    config:
        Hyper-parameters; ``config.state_size`` must match the
        environment's state size.
    """

    def __init__(self, config: Optional[DQNConfig] = None) -> None:
        self.config = config if config is not None else DQNConfig()
        self.online = QNetwork(self.config.layer_sizes, seed=self.config.seed)
        self.target = QNetwork(self.config.layer_sizes, seed=self.config.seed)
        self.target.copy_from(self.online)
        self.buffer = ReplayBuffer(self.config.buffer_capacity, seed=self.config.seed)
        self._rng = np.random.default_rng(self.config.seed)
        self.total_steps = 0
        # Pending TD errors at the taken actions and those actions, one
        # row per gradient step; allocated by the first gradient step.
        self._errors: Optional[np.ndarray] = None
        self._error_actions: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Acting
    # ------------------------------------------------------------------
    def epsilon(self) -> float:
        """Current exploration probability."""
        return self.config.epsilon.value(self.total_steps)

    def act(self, state: np.ndarray, greedy: bool = False) -> int:
        """Select an action for ``state``.

        ``greedy=True`` bypasses exploration (used at evaluation /
        deployment time, when the quantized network runs on the mote).
        """
        if not greedy and self._rng.random() < self.epsilon():
            return int(self._rng.integers(0, self.config.num_actions))
        return self.online.predict_action(state)

    def q_values(self, state: np.ndarray) -> np.ndarray:
        """Q-values of the online network for ``state``."""
        return self.online.forward(state)

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def _store(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool,
    ) -> bool:
        """Push a transition and count the step; return whether a
        gradient step is due now."""
        self.buffer.push(state, action, reward, next_state, done)
        self.total_steps += 1
        return (
            len(self.buffer) >= max(self.config.train_start, self.config.batch_size)
            and self.total_steps % self.config.train_interval == 0
        )

    def _sync_target(self) -> None:
        if self.total_steps % self.config.target_sync_interval == 0:
            self.target.copy_from(self.online)

    def _learn(self, batch: Tuple[np.ndarray, ...], row: int) -> None:
        """One gradient step on a replay batch (the training core).

        The taken actions' TD errors go to row ``row`` of the pending
        error block, from which :meth:`_losses` reduces the losses.
        """
        states, actions, rewards, next_states, dones = batch
        if self._errors is None:
            shape = (BLOCK, self.config.batch_size)
            self._errors = np.empty(shape)
            self._error_actions = np.empty(shape, dtype=np.int64)
        targets = np.maximum.reduce(self.target.forward_batch(next_states), axis=1)
        targets *= self.config.discount
        targets *= ~dones
        targets += rewards
        self.online.fit_actions(
            states, actions, targets, self.config.learning_rate, self._errors[row]
        )
        self._error_actions[row] = actions

    def _losses(self, count: int) -> List[float]:
        """Huber losses of the first ``count`` pending gradient steps.

        Each step's loss is the mean over its ``(batch, actions)`` error
        matrix, which is 0 off the taken actions: the terms are laid out
        that way and summed by one row-wise reduction, which adds each
        row in the order ``np.mean`` adds the step's matrix.
        """
        if not count:
            return []
        batch = self._errors.shape[1]
        layout = np.zeros((count, batch, self.config.num_actions))
        layout[np.arange(count)[:, None], np.arange(batch), self._error_actions[:count]] = (
            huber_terms(self._errors[:count])
        )
        layout = layout.reshape(count, -1)
        return (np.add.reduce(layout, axis=1) / layout.shape[1]).tolist()

    def observe(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool,
    ) -> Optional[float]:
        """Store a transition and (possibly) run one training step.

        Returns the training loss when a gradient step was taken,
        ``None`` otherwise.
        """
        loss = self.train_batch() if self._store(state, action, reward, next_state, done) else None
        self._sync_target()
        return loss

    def train_batch(self) -> float:
        """Sample a mini-batch from the replay buffer and fit the online net.

        The one-step case of :meth:`train`'s core: one draw, one
        gradient step, one loss.
        """
        self._learn(self.buffer.sample(self.config.batch_size), 0)
        return self._losses(1)[0]

    def _index_block(self, remaining: int) -> np.ndarray:
        """Replay indices of the next gradient steps, drawn in one call.

        Called at a gradient step with ``remaining`` loop iterations
        left before the block must end, this one included.  From here
        on every ``train_interval``-th iteration takes a step (the
        buffer never shrinks), after a push that grows the buffer by one
        slot up to its capacity, so the buffer length at each step is
        known.
        """
        interval = self.config.train_interval
        count = min(BLOCK, (remaining - 1) // interval + 1)
        sizes = np.minimum(
            len(self.buffer) + interval * np.arange(count), self.buffer.capacity
        )
        return self.buffer.draw(sizes, self.config.batch_size)

    # ------------------------------------------------------------------
    # Full training loop
    # ------------------------------------------------------------------
    def train(
        self,
        environment: Environment,
        iterations: int = 200_000,
        callback: Optional[Callable[[int, Dict], None]] = None,
    ) -> TrainingResult:
        """Train against ``environment`` for ``iterations`` agent steps.

        The environment is reset whenever an episode terminates; the
        training step budget (not the episode count) bounds the run, as
        in the paper's 200 000-iteration training.

        Each iteration does what :meth:`observe` does, with the same
        result bit for bit, but in blocks of up to ``BLOCK`` gradient
        steps: their replay indices come from one generator call and
        their losses from one reduction.  A block ends at the run's end
        and, with a ``callback``, at the callback's iteration, so the
        callback sees every loss so far and may use the agent freely.
        When an exception cuts a block short, the replay buffer's
        generator is left where one draw per step taken would leave it.
        """
        if environment.state_size != self.config.state_size:
            raise ValueError(
                "environment state size does not match the agent configuration "
                f"({environment.state_size} != {self.config.state_size})"
            )
        episode_rewards: List[float] = []
        losses: List[float] = []
        state = environment.reset()
        episode_reward = 0.0
        episodes = 0
        # The current block of replay indices; row k is the k-th
        # gradient step's, and its error is in row k of the loss block.
        block = np.empty((0, 0), dtype=np.int64)
        drawn = 0
        try:
            for step in range(iterations):
                action = self.act(state)
                result = environment.step(action)
                if self._store(state, action, result.reward, result.state, result.done):
                    if drawn == len(block):
                        losses += self._losses(drawn)
                        end = iterations
                        if callback is not None:
                            end = min(end, (step // CALLBACK_INTERVAL + 1) * CALLBACK_INTERVAL)
                        block = self._index_block(end - step)
                        drawn = 0
                    drawn += 1
                    self._learn(self.buffer.gather(block[drawn - 1]), drawn - 1)
                self._sync_target()
                episode_reward += result.reward
                state = result.state
                if result.done:
                    episode_rewards.append(episode_reward)
                    episodes += 1
                    episode_reward = 0.0
                    state = environment.reset()
                if callback is not None and (step + 1) % CALLBACK_INTERVAL == 0:
                    losses += self._losses(drawn)
                    block, drawn = block[:0], 0
                    callback(step + 1, {
                        "epsilon": self.epsilon(),
                        "episodes": episodes,
                        "recent_loss": float(np.mean(losses[-200:])) if losses else float("nan"),
                    })
        finally:
            if drawn < len(block):
                self.buffer.undraw(drawn)
        losses += self._losses(drawn)
        return TrainingResult(
            steps=iterations,
            episodes=episodes,
            episode_rewards=episode_rewards,
            losses=losses,
            final_epsilon=self.epsilon(),
        )

    def evaluate(
        self,
        environment: Environment,
        episodes: int = 10,
        use_quantized: bool = False,
    ) -> Dict[str, float]:
        """Run greedy evaluation episodes and report aggregate metrics."""
        network = self.quantize() if use_quantized else None
        rewards: List[float] = []
        reliabilities: List[float] = []
        radio_on: List[float] = []
        for _ in range(episodes):
            state = environment.reset()
            total = 0.0
            done = False
            while not done:
                if network is not None:
                    action = network.predict_action(state)
                else:
                    action = self.act(state, greedy=True)
                result = environment.step(action)
                total += result.reward
                state = result.state
                done = result.done
                if "reliability" in result.info:
                    reliabilities.append(float(result.info["reliability"]))
                if "radio_on_ms" in result.info:
                    radio_on.append(float(result.info["radio_on_ms"]))
            rewards.append(total)
        metrics: Dict[str, float] = {"average_reward": float(np.mean(rewards))}
        if reliabilities:
            metrics["average_reliability"] = float(np.mean(reliabilities))
        if radio_on:
            metrics["average_radio_on_ms"] = float(np.mean(radio_on))
        return metrics

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def quantize(self, scale: int = 100) -> QuantizedNetwork:
        """Quantize the online network for embedded inference."""
        return QuantizedNetwork(self.online, scale=scale)

    def save(self, path) -> None:
        """Persist the online network weights."""
        self.online.save(path)

    def load(self, path) -> None:
        """Load previously saved weights into both online and target nets."""
        network = QNetwork.load(path)
        self.online.copy_from(network)
        self.target.copy_from(network)
