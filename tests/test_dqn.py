"""Tests for the DQN agent and its training loop."""

import cProfile
import hashlib

import numpy as np
import pytest

from repro.net.trace import TraceRecord, TraceSet
from repro.rl.dqn import BLOCK, CALLBACK_INTERVAL, DQNAgent, DQNConfig, EpsilonSchedule
from repro.rl.environment import Environment, StepResult
from repro.rl.features import FeatureConfig
from repro.rl.trace_env import TraceEnvironment


class CorridorEnvironment(Environment):
    """A tiny deterministic environment with a known optimal policy.

    The agent sits at an integer position in [0, 4]; action 2 moves
    right, action 0 moves left, action 1 stays.  Reward is 1.0 when the
    agent is at position 4, else 0.  Episodes last 8 steps.  The optimal
    policy therefore always moves right.
    """

    def __init__(self) -> None:
        self.position = 0
        self.steps = 0

    @property
    def state_size(self) -> int:
        return 5

    def _state(self) -> np.ndarray:
        state = np.zeros(5)
        state[self.position] = 1.0
        return state

    def reset(self) -> np.ndarray:
        self.position = 0
        self.steps = 0
        return self._state()

    def step(self, action: int) -> StepResult:
        if action == 2:
            self.position = min(4, self.position + 1)
        elif action == 0:
            self.position = max(0, self.position - 1)
        self.steps += 1
        reward = 1.0 if self.position == 4 else 0.0
        return StepResult(state=self._state(), reward=reward, done=self.steps >= 8, info={})


class TestEpsilonSchedule:
    def test_linear_annealing(self):
        schedule = EpsilonSchedule(start=1.0, end=0.0, anneal_steps=100)
        assert schedule.value(0) == pytest.approx(1.0)
        assert schedule.value(50) == pytest.approx(0.5)
        assert schedule.value(100) == pytest.approx(0.0)
        assert schedule.value(500) == pytest.approx(0.0)

    def test_paper_defaults(self):
        schedule = EpsilonSchedule()
        assert schedule.start == 1.0
        assert schedule.end == 0.01
        assert schedule.anneal_steps == 100_000

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError):
            EpsilonSchedule(start=0.1, end=0.5)
        with pytest.raises(ValueError):
            EpsilonSchedule(anneal_steps=0)
        with pytest.raises(ValueError):
            EpsilonSchedule().value(-1)


class TestDQNConfig:
    def test_paper_architecture(self):
        config = DQNConfig()
        assert config.layer_sizes == (31, 30, 3)
        assert config.discount == pytest.approx(0.7)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            DQNConfig(discount=1.0)
        with pytest.raises(ValueError):
            DQNConfig(batch_size=0)


class TestDQNAgent:
    def test_act_greedy_matches_online_network(self):
        agent = DQNAgent(DQNConfig(state_size=5, seed=0))
        state = np.zeros(5)
        assert agent.act(state, greedy=True) == agent.online.predict_action(state)

    def test_greedy_act_draws_no_random_numbers(self):
        # Greedy evaluation between training steps must not shift the
        # exploration stream the training run draws from.
        agent = DQNAgent(DQNConfig(state_size=5, seed=0))
        before = agent._rng.bit_generator.state
        for _ in range(5):
            agent.act(np.ones(5), greedy=True)
        assert agent._rng.bit_generator.state == before

    def test_exploration_at_start_is_random(self):
        agent = DQNAgent(DQNConfig(state_size=5, seed=0))
        actions = {agent.act(np.zeros(5)) for _ in range(50)}
        assert len(actions) > 1

    def test_observe_fills_buffer(self):
        agent = DQNAgent(DQNConfig(state_size=5, seed=0))
        agent.observe(np.zeros(5), 1, 0.5, np.ones(5), False)
        assert len(agent.buffer) == 1
        assert agent.total_steps == 1

    def test_target_network_syncs(self):
        config = DQNConfig(state_size=5, target_sync_interval=3, train_start=1000, seed=0)
        agent = DQNAgent(config)
        agent.online.weights[0][0, 0] += 5.0
        for _ in range(3):
            agent.observe(np.zeros(5), 0, 0.0, np.zeros(5), False)
        assert agent.target.weights[0][0, 0] == pytest.approx(agent.online.weights[0][0, 0])

    def test_learns_corridor_task(self):
        config = DQNConfig(
            state_size=5,
            hidden_sizes=(16,),
            discount=0.9,
            learning_rate=5e-3,
            train_start=64,
            target_sync_interval=200,
            epsilon=EpsilonSchedule(anneal_steps=1500),
            seed=0,
        )
        agent = DQNAgent(config)
        result = agent.train(CorridorEnvironment(), iterations=4000)
        assert result.episodes > 100
        # The optimal return is 4 (reaching the goal at step 4 of 8);
        # a trained agent should get most of it.
        tail = max(1, len(result.episode_rewards) // 10)
        assert np.mean(result.episode_rewards[-tail:]) >= 3.0
        # And the greedy policy should move right from the start state.
        start = np.zeros(5)
        start[0] = 1.0
        assert agent.act(start, greedy=True) == 2

    def test_train_checks_state_size(self):
        agent = DQNAgent(DQNConfig(state_size=7, seed=0))
        with pytest.raises(ValueError):
            agent.train(CorridorEnvironment(), iterations=10)

    def test_quantize_produces_embedded_network(self):
        agent = DQNAgent(DQNConfig(seed=0))
        quantized = agent.quantize()
        assert quantized.report().flash_bytes > 0

    def test_save_load_roundtrip(self, tmp_path):
        agent = DQNAgent(DQNConfig(state_size=5, seed=0))
        path = tmp_path / "agent.json"
        agent.save(path)
        other = DQNAgent(DQNConfig(state_size=5, seed=99))
        other.load(path)
        state = np.ones(5)
        assert np.allclose(agent.online(state), other.online(state))

    def test_train_batch_after_load_moves_loaded_network(self, tmp_path):
        # The optimizer must update the parameters load() wrote, not a
        # buffer the loaded values were rebound away from.
        path = tmp_path / "agent.json"
        DQNAgent(DQNConfig(state_size=5, seed=0)).save(path)
        agent = DQNAgent(DQNConfig(state_size=5, batch_size=4, seed=1))
        rng = np.random.default_rng(0)
        for _ in range(8):
            agent.buffer.push(rng.uniform(-1, 1, 5), int(rng.integers(3)), 1.0,
                              rng.uniform(-1, 1, 5), False)
        agent.load(path)
        state = np.ones(5)
        loaded = agent.online.forward(state).copy()
        agent.train_batch()
        assert not np.array_equal(agent.online.forward(state), loaded)


def synthetic_trace(seed: int, episodes: int = 2, rounds: int = 12, n_max: int = 3) -> TraceSet:
    """A seeded trace of 6 nodes, built without the simulator (engine-independent)."""
    rng = np.random.default_rng(seed)
    trace = TraceSet()
    round_index = 0
    for _ in range(episodes):
        trace.start_episode()
        for _ in range(rounds):
            for n_tx in range(n_max + 1):
                reliabilities = np.minimum(1.0, rng.uniform(0.3, 1.2, size=6) + 0.1 * n_tx)
                trace.append(TraceRecord(
                    round_index=round_index,
                    n_tx=n_tx,
                    node_ids=list(range(6)),
                    reliability_array=reliabilities,
                    radio_on_array=rng.uniform(2.0, 20.0, size=6),
                    had_losses=bool(reliabilities.min() < 1.0),
                ))
            round_index += 1
    return trace


class TestTrainingFingerprint:
    """Bit-for-bit pin of a training run that wraps the replay buffer.

    256 buffer slots against about 2000 stored transitions: the buffer
    fills after 256 steps and then overwrites its oldest transitions,
    which the paper-scale profiles do but the fast profile never does.
    The target network syncs 40 times and the trace environment draws
    random episodes and start offsets, so the digests cover the replay
    ring order, the Adam state, the target sync and the environment's
    state encoding together.
    """

    WEIGHTS_SHA256 = "41c4e761fda26ad438597e14e809391805cb9f154a2eee5360eba5694f7dac59"
    LOSSES_SHA256 = "a77691338a13e66c266d0da47b0722fb8f43b24318bb575ced3a34c7bdd66043"

    def train_digests(self, call=lambda train: train()):
        """Train the pinned run through ``call``; return the two digests."""
        features = FeatureConfig(num_input_nodes=4, history_size=2, n_max=3)
        environment = TraceEnvironment(
            synthetic_trace(seed=0), feature_config=features, episode_length=10, seed=3
        )
        agent = DQNAgent(DQNConfig(
            state_size=features.input_size,
            buffer_capacity=256,
            train_start=64,
            target_sync_interval=50,
            epsilon=EpsilonSchedule(anneal_steps=1000),
            seed=5,
        ))
        result = call(lambda: agent.train(environment, iterations=2000))
        assert len(agent.buffer) == agent.buffer.capacity
        assert (result.episodes, len(result.losses)) == (200, 1937)
        parameters = agent.online.weights + agent.online.biases
        weights_digest = hashlib.sha256(b"".join(p.tobytes() for p in parameters)).hexdigest()
        losses_digest = hashlib.sha256(np.asarray(result.losses, dtype=float).tobytes()).hexdigest()
        return weights_digest, losses_digest

    def test_wrapped_buffer_training_is_pinned(self):
        assert self.train_digests() == (self.WEIGHTS_SHA256, self.LOSSES_SHA256)

    def test_training_runs_under_a_profiler(self):
        # A profiler hook holds extra references to the buffer's arrays
        # while they grow; the run must complete and train the same net.
        profiler = cProfile.Profile()
        digests = self.train_digests(profiler.runcall)
        assert digests == (self.WEIGHTS_SHA256, self.LOSSES_SHA256)


class StepFailure(Exception):
    pass


def fail_once(function, fail_at):
    """``function``, raising ``StepFailure`` instead at its ``fail_at``-th call."""
    calls = []

    def wrapped(*args):
        calls.append(None)
        if len(calls) == fail_at:
            raise StepFailure
        return function(*args)

    return wrapped


def observe_loop(agent, environment, iterations, callback=None):
    """``DQNAgent.train`` as a loop of one ``observe`` per step; returns
    the losses and the episode rewards."""
    losses, episode_rewards = [], []
    state = environment.reset()
    episode_reward = 0.0
    for step in range(iterations):
        action = agent.act(state)
        result = environment.step(action)
        loss = agent.observe(state, action, result.reward, result.state, result.done)
        if loss is not None:
            losses.append(loss)
        episode_reward += result.reward
        state = result.state
        if result.done:
            episode_rewards.append(episode_reward)
            episode_reward = 0.0
            state = environment.reset()
        if callback is not None and (step + 1) % CALLBACK_INTERVAL == 0:
            callback(step + 1, {"recent_loss": float(np.mean(losses[-200:]))})
    return losses, episode_rewards


class TestTrainEqualsObserveLoop:
    """``train`` draws replay indices and reduces losses in blocks; it must
    train exactly what one ``observe`` call per step trains."""

    def run_pair(
        self, runs, callback=True, sample_in_callback=False, fail=None, fail_at=None, **overrides
    ):
        """Train two equal agents, one through ``train`` and one through
        ``observe``, over ``runs`` (iteration counts, one call each).
        ``fail`` ("step" or "fit") names the call that raises once, at
        its ``fail_at``-th call; the run it cuts short is skipped."""
        features = FeatureConfig(num_input_nodes=4, history_size=2, n_max=3)
        config = dict(
            state_size=features.input_size,
            buffer_capacity=1500,
            train_start=64,
            target_sync_interval=50,
            epsilon=EpsilonSchedule(anneal_steps=1000),
            seed=5,
        )
        config.update(overrides)
        results = []
        for trainer in ("train", "observe"):
            agent = DQNAgent(DQNConfig(**config))
            environment = TraceEnvironment(
                synthetic_trace(seed=0), feature_config=features, episode_length=10, seed=3
            )
            if fail == "step":
                environment.step = fail_once(environment.step, fail_at)
            elif fail == "fit":
                agent.online.fit_actions = fail_once(agent.online.fit_actions, fail_at)
            losses, rewards, reported, samples = [], [], [], []

            def report(step, info):
                reported.append(info["recent_loss"])
                if sample_in_callback:
                    samples.append(agent.buffer.sample(4)[1].tolist())

            for iterations in runs:
                try:
                    if trainer == "train":
                        result = agent.train(
                            environment, iterations=iterations, callback=report if callback else None
                        )
                        run_losses, run_rewards = result.losses, result.episode_rewards
                    else:
                        run_losses, run_rewards = observe_loop(
                            agent, environment, iterations, report if callback else None
                        )
                except StepFailure:
                    continue
                losses += run_losses
                rewards += run_rewards
            results.append((agent, losses, rewards, reported, samples))
        (trained, *train_out), (observed, *observe_out) = results
        assert train_out == observe_out
        for network in ("online", "target"):
            for got, want in zip(
                getattr(trained, network).weights + getattr(trained, network).biases,
                getattr(observed, network).weights + getattr(observed, network).biases,
            ):
                assert got.tobytes() == want.tobytes()
        assert trained.buffer._rng.bit_generator.state == observed.buffer._rng.bit_generator.state
        assert trained._rng.bit_generator.state == observed._rng.bit_generator.state
        return train_out

    def test_iterations_not_a_multiple_of_the_block(self):
        losses, _, reported, _ = self.run_pair([2300])
        assert len(losses) == 2300 - 63
        assert (2300 - 63) % BLOCK
        assert len(reported) == 2

    def test_every_second_step_without_callback(self):
        losses, _, _, _ = self.run_pair([2300], callback=False, train_interval=2)
        assert len(losses) == len(range(64, 2301, 2))

    def test_second_call_continues_a_filled_buffer(self):
        # The second call's blocks start at a buffer that holds 1100
        # transitions and fills to capacity (1500) during the call.
        losses, _, reported, _ = self.run_pair([1100, 1300])
        assert len(losses) == 2400 - 63
        assert len(reported) == 2

    def test_callback_may_sample_the_buffer(self):
        # No block of indices is pending when the callback runs.
        _, _, reported, samples = self.run_pair([2300], sample_in_callback=True)
        assert len(reported) == len(samples) == 2

    @pytest.mark.parametrize("fail, fail_at", [("step", 200), ("fit", 137)])
    @pytest.mark.parametrize("callback", [True, False])
    def test_failure_inside_a_block_takes_back_its_unused_draws(self, fail, fail_at, callback):
        # The failure cuts the first run inside its first block (its
        # gradient steps 1 to 256, at iterations 64 to 319); training
        # goes on in a second run.  A failed gradient step has drawn its
        # batch, as ``sample`` has before the step fails.
        losses, _, _, _ = self.run_pair([2300, 900], callback=callback, fail=fail, fail_at=fail_at)
        assert len(losses) == 900
