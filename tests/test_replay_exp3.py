"""Tests for the replay buffer and the Exp3 bandit."""

import numpy as np
import pytest

from repro.rl.exp3 import Exp3
from repro.rl.replay_buffer import ReplayBuffer


class TestReplayBuffer:
    def test_push_and_len(self):
        buffer = ReplayBuffer(capacity=10, seed=0)
        buffer.push(np.zeros(3), 1, 0.5, np.ones(3), False)
        assert len(buffer) == 1

    def test_capacity_evicts_oldest(self):
        buffer = ReplayBuffer(capacity=3, seed=0)
        for i in range(5):
            buffer.push(np.full(2, i), 0, float(i), np.full(2, i + 1), False)
        assert len(buffer) == 3
        assert len(buffer) == buffer.capacity

    def test_sample_shapes(self):
        buffer = ReplayBuffer(capacity=100, seed=0)
        for i in range(20):
            buffer.push(np.full(4, i), i % 3, float(i), np.full(4, i + 1), i % 2 == 0)
        states, actions, rewards, next_states, dones = buffer.sample(8)
        assert states.shape == (8, 4)
        assert actions.shape == (8,)
        assert rewards.shape == (8,)
        assert next_states.shape == (8, 4)
        assert dones.dtype == bool

    def test_sample_from_empty_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(seed=0).sample(4)

    def test_invalid_batch_size_rejected(self):
        buffer = ReplayBuffer(seed=0)
        buffer.push(np.zeros(2), 0, 0.0, np.zeros(2), False)
        with pytest.raises(ValueError):
            buffer.sample(0)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0)

    def test_clear(self):
        buffer = ReplayBuffer(seed=0)
        buffer.push(np.zeros(2), 0, 0.0, np.zeros(2), False)
        buffer.clear()
        assert len(buffer) == 0

    def test_wrapped_ring_sample_is_pinned(self):
        # 7 transitions into 5 slots: transitions 5 and 6 overwrite
        # slots 0 and 1, so slot i holds transition [5, 6, 2, 3, 4][i].
        # Consecutive transitions share their state arrays except after
        # the episode end at transition 3.
        buffer = ReplayBuffer(capacity=5, seed=0)
        states = [np.array([float(i), -float(i)]) for i in range(8)]
        for i in range(7):
            state = states[i].copy() if i == 4 else states[i]
            buffer.push(state, i % 3, float(i), states[i + 1], i == 3)
        states, actions, rewards, next_states, dones = buffer.sample(16)
        expected = np.array([4, 3, 2, 6, 6, 5, 5, 5, 5, 4, 3, 4, 2, 3, 4, 3], dtype=float)
        np.testing.assert_array_equal(states, np.stack([expected, -expected], axis=1))
        np.testing.assert_array_equal(next_states, np.stack([expected + 1, -expected - 1], axis=1))
        np.testing.assert_array_equal(actions, [1, 0, 2, 0, 0, 2, 2, 2, 2, 1, 0, 1, 2, 0, 1, 0])
        np.testing.assert_array_equal(rewards, expected)
        np.testing.assert_array_equal(dones, expected == 3)
        assert states.dtype == rewards.dtype == np.float64
        assert actions.dtype == np.int64

    def test_matches_list_ring_through_growth_and_wrap(self):
        # Reference: a plain list ring of transitions.  1500 slots and
        # 4000 pushes grow every array past its first allocation and
        # then wrap the ring, with episode ends breaking the chain of
        # shared states.  The last 1600 pushes share no state object,
        # so the live transitions use all 2 * capacity rows.
        capacity = 1500
        buffer = ReplayBuffer(capacity=capacity, seed=4)
        reference = []
        rng = np.random.default_rng(1)
        state = rng.normal(size=3)
        for i in range(4000):
            next_state = rng.normal(size=3)
            done = i % 37 == 36
            transition = (state, i % 3, float(i), next_state, done)
            buffer.push(*transition)
            if len(reference) < capacity:
                reference.append(transition)
            else:
                reference[i % capacity] = transition
            if done:
                state = rng.normal(size=3)
            else:
                state = next_state.copy() if i >= 2400 else next_state
        # 16 draws per slot on average reach every slot.
        indices = np.random.default_rng(4).integers(0, capacity, size=16 * capacity)
        assert len(np.unique(indices)) == capacity
        batch = buffer.sample(16 * capacity)
        for column, values in enumerate(batch):
            expected = np.array([reference[i][column] for i in indices])
            np.testing.assert_array_equal(values, expected)

    def test_push_stores_every_field(self):
        buffer = ReplayBuffer(capacity=4, seed=0)
        buffer.push(np.zeros(2), 1, 0.5, np.ones(2), True)
        states, actions, rewards, next_states, dones = buffer.sample(1)
        assert actions[0] == 1
        assert dones[0]
        assert rewards[0] == 0.5
        np.testing.assert_array_equal(states, [[0.0, 0.0]])
        np.testing.assert_array_equal(next_states, [[1.0, 1.0]])

    @pytest.mark.parametrize("batch", [32, 7])
    def test_block_draw_equals_per_step_samples(self, batch):
        """One ``draw`` over the buffer lengths of 700 coming steps equals
        700 ``sample`` calls made after each push, and leaves the
        generator in the same state.  The lengths cross two growth steps
        of the arrays (1024 and 1280 slots) and the capacity (1500), after
        which the ring wraps."""
        capacity = 1500
        stepwise = ReplayBuffer(capacity=capacity, seed=9)
        blockwise = ReplayBuffer(capacity=capacity, seed=9)
        rng = np.random.default_rng(2)

        def push_both():
            state, next_state = rng.normal(size=(2, 3))
            transition = (state, int(rng.integers(3)), float(rng.normal()), next_state,
                          bool(rng.random() < 0.1))
            stepwise.push(*transition)
            blockwise.push(*transition)

        for _ in range(1000):
            push_both()
        steps = 700
        sizes = np.minimum(len(blockwise) + 1 + np.arange(steps), capacity)
        block = blockwise.draw(sizes, batch)
        assert block.shape == (steps, batch)
        for row in block:
            push_both()
            expected = stepwise.sample(batch)
            for got, want in zip(blockwise.gather(row), expected):
                np.testing.assert_array_equal(got, want)
        assert len(blockwise) == capacity
        assert blockwise._rng.bit_generator.state == stepwise._rng.bit_generator.state

    @pytest.mark.parametrize("used", [0, 3, 10])
    def test_undraw_leaves_the_state_of_the_rows_used(self, used):
        drawn = ReplayBuffer(capacity=50, seed=9)
        stepwise = ReplayBuffer(capacity=50, seed=9)
        sizes = np.arange(20, 30)
        drawn.draw(sizes, 4)
        drawn.undraw(used)
        for size in sizes[:used]:
            stepwise._rng.integers(0, size, size=4)
        assert drawn._rng.bit_generator.state == stepwise._rng.bit_generator.state


class TestExp3:
    def test_initial_probabilities_uniform(self):
        bandit = Exp3(num_arms=2, gamma=0.2, seed=0)
        assert np.allclose(bandit.probabilities(), [0.5, 0.5])

    def test_probabilities_sum_to_one(self):
        bandit = Exp3(num_arms=4, gamma=0.3, seed=0)
        for _ in range(20):
            arm = bandit.select_arm()
            bandit.update(arm, 0.7)
        assert bandit.probabilities().sum() == pytest.approx(1.0)

    def test_rewarded_arm_gains_probability(self):
        bandit = Exp3(num_arms=2, gamma=0.2, seed=0)
        for _ in range(30):
            bandit.update(0, 1.0)
        assert bandit.probabilities()[0] > 0.8
        assert bandit.best_arm() == 0

    def test_exploration_floor_preserved(self):
        bandit = Exp3(num_arms=2, gamma=0.2, seed=0)
        for _ in range(200):
            bandit.update(0, 1.0)
        # Even a dominant arm leaves gamma/K probability to the other one.
        assert bandit.probabilities()[1] >= 0.1 - 1e-9

    def test_reset_arm_restores_initial_weight(self):
        bandit = Exp3(num_arms=2, gamma=0.3, seed=0)
        for _ in range(10):
            bandit.update(1, 1.0)
        bandit.reset_arm(1)
        assert bandit.weights[1] == pytest.approx(1.0)

    def test_full_reset(self):
        bandit = Exp3(num_arms=2, gamma=0.3, seed=0)
        bandit.update(0, 1.0)
        bandit.reset()
        assert np.allclose(bandit.weights, [1.0, 1.0])

    def test_weights_clipped_at_max(self):
        bandit = Exp3(num_arms=2, gamma=1.0, max_weight=100.0, seed=0)
        for _ in range(500):
            bandit.update(0, 1.0)
        assert bandit.weights[0] <= 100.0

    def test_adapts_to_adversarial_switch(self):
        bandit = Exp3(num_arms=2, gamma=0.3, seed=1)
        for _ in range(40):
            bandit.update(0, 1.0)
            bandit.update(1, 0.0)
        assert bandit.best_arm() == 0
        for _ in range(120):
            bandit.update(0, 0.0)
            bandit.update(1, 1.0)
        assert bandit.best_arm() == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Exp3(num_arms=1)
        with pytest.raises(ValueError):
            Exp3(gamma=0.0)
        with pytest.raises(ValueError):
            Exp3(initial_weights=(1.0,))
        with pytest.raises(ValueError):
            Exp3(initial_weights=(1.0, 0.0))

    def test_invalid_updates_rejected(self):
        bandit = Exp3(seed=0)
        with pytest.raises(ValueError):
            bandit.update(5, 1.0)
        with pytest.raises(ValueError):
            bandit.update(0, 2.0)

    def test_selection_counts_draws(self):
        bandit = Exp3(seed=0)
        for _ in range(5):
            bandit.select_arm()
        assert bandit.total_draws == 5
