"""Tests for the numpy Q-network."""

import json

import numpy as np
import pytest

from repro.rl.qnetwork import QNetwork, huber_terms


class TestConstruction:
    def test_paper_architecture_parameter_count(self):
        network = QNetwork((31, 30, 3))
        # 31*30 + 30 weights+biases for the hidden layer, 30*3 + 3 for output.
        assert network.num_parameters == 31 * 30 + 30 + 30 * 3 + 3 == 1053

    def test_input_output_sizes(self):
        network = QNetwork((31, 30, 3))
        assert network.input_size == 31
        assert network(np.zeros(31)).shape == (3,)

    def test_invalid_layouts_rejected(self):
        with pytest.raises(ValueError):
            QNetwork((31,))
        with pytest.raises(ValueError):
            QNetwork((31, 0, 3))
        with pytest.raises(ValueError):
            QNetwork((31, 30, 3), hidden_activation="tanh")

    def test_seeded_initialization_reproducible(self):
        a, b = QNetwork(seed=3), QNetwork(seed=3)
        x = np.zeros(31)
        assert np.allclose(a(x), b(x))


class TestForward:
    def test_single_and_batch_agree(self):
        network = QNetwork(seed=0)
        x = np.random.default_rng(0).uniform(-1, 1, size=(4, 31))
        batch = network(x)
        singles = np.stack([network(row) for row in x])
        assert np.allclose(batch, singles)

    def test_output_shape(self):
        network = QNetwork(seed=0)
        assert network(np.zeros(31)).shape == (3,)
        assert network(np.zeros((5, 31))).shape == (5, 3)

    def test_wrong_input_size_rejected(self):
        with pytest.raises(ValueError):
            QNetwork(seed=0)(np.zeros(30))

    def test_predict_action_is_argmax(self):
        network = QNetwork(seed=0)
        x = np.random.default_rng(1).uniform(-1, 1, 31)
        assert network.predict_action(x) == int(np.argmax(network(x)))


class PerLayerReference:
    """Action-masked Huber steps computed layer by layer, with per-group
    SGD or Adam updates, on a copy of a network's weights."""

    def __init__(self, network):
        params = network.get_weights()
        self.weights, self.biases = params["weights"], params["biases"]
        self.groups = self.weights + self.biases
        self.m = [np.zeros_like(p) for p in self.groups]
        self.v = [np.zeros_like(p) for p in self.groups]
        self.t = 0

    def step(self, x, targets, actions, learning_rate, optimizer):
        """One step; returns the mini-batch's Huber loss."""
        last = len(self.weights) - 1
        batch = len(x)
        pre, post = [], [x]
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            pre.append(post[-1] @ w + b)
            post.append(pre[-1] if layer == last else np.maximum(pre[-1], 0.0))
        full = post[-1].copy()
        full[np.arange(batch), actions] = targets
        error = post[-1] - full
        quadratic = np.minimum(np.abs(error), 1.0)
        loss = float(np.mean(0.5 * quadratic**2 + (np.abs(error) - quadratic)))
        upstream = np.clip(error, -1.0, 1.0) / batch
        grads = [None] * len(self.groups)
        for layer in range(last, -1, -1):
            grads[layer] = post[layer].T @ upstream
            grads[last + 1 + layer] = upstream.sum(axis=0)
            if layer > 0:
                upstream = (upstream @ self.weights[layer].T) * (pre[layer - 1] > 0.0)
        self.t += 1
        for i, (p, g) in enumerate(zip(self.groups, grads)):
            if optimizer == "sgd":
                p -= learning_rate * g
                continue
            self.m[i] = 0.9 * self.m[i] + (1 - 0.9) * g
            self.v[i] = 0.999 * self.v[i] + (1 - 0.999) * g**2
            m_hat = self.m[i] / (1 - 0.9**self.t)
            v_hat = self.v[i] / (1 - 0.999**self.t)
            p -= learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        return loss


class TestTraining:
    def test_training_reduces_loss_on_fixed_targets(self):
        network = QNetwork((4, 16, 2), seed=0)
        rng = np.random.default_rng(0)
        states = rng.uniform(-1, 1, size=(64, 4))
        targets = np.stack([states[:, 0] + states[:, 1], states[:, 2] - states[:, 3]], axis=1)
        first = network.train_step(states, targets, learning_rate=1e-2, loss="mse")
        for _ in range(300):
            last = network.train_step(states, targets, learning_rate=1e-2, loss="mse")
        assert last < first * 0.5

    def test_action_masked_training_moves_only_selected_action(self):
        network = QNetwork((4, 8, 3), seed=1)
        state = np.ones((1, 4))
        before = network(state[0]).copy()
        for _ in range(50):
            network.train_step(state, np.array([5.0]), actions=np.array([1]), learning_rate=1e-2)
        after = network(state[0])
        assert abs(after[1] - 5.0) < abs(before[1] - 5.0)

    def test_sgd_optimizer_supported(self):
        network = QNetwork((4, 8, 2), seed=0)
        loss = network.train_step(np.ones((2, 4)), np.zeros((2, 2)), optimizer="sgd")
        assert loss >= 0.0

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_matches_per_layer_reference(self, optimizer):
        # The flat vectors must agree with the per-layer reference bit
        # for bit over 20 action-masked Huber steps on a 3-layer net.
        network = QNetwork((6, 5, 4, 3), seed=0)
        reference = PerLayerReference(network)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=(8, 6))
            targets = rng.normal(size=8)
            actions = rng.integers(0, 3, size=8)
            loss = reference.step(x, targets, actions, 1e-2, optimizer)
            got = network.train_step(x, targets, actions=actions, learning_rate=1e-2, optimizer=optimizer)
            assert got == loss
            for got, expected in zip(network.weights + network.biases, reference.groups):
                np.testing.assert_array_equal(got, expected)

    def test_fit_actions_matches_reference_and_train_step(self):
        # The DQN step works on the taken actions only; weights and the
        # loss from its errors equal the per-layer reference's and
        # train_step's bit for bit.
        fitted = QNetwork((6, 5, 4, 3), seed=0)
        stepped = fitted.clone()
        reference = PerLayerReference(fitted)
        rng = np.random.default_rng(2)
        errors = np.empty(8)
        for _ in range(30):
            x = rng.normal(size=(8, 6))
            targets = rng.normal(size=8) * 3.0
            actions = rng.integers(0, 3, size=8)
            expected_loss = reference.step(x, targets, actions, 1e-2, "adam")
            loss = stepped.train_step(x, targets, actions=actions, learning_rate=1e-2)
            fitted.fit_actions(x, actions, targets, 1e-2, errors)
            terms = np.zeros((8, 3))
            terms[np.arange(8), actions] = huber_terms(errors)
            assert float(np.mean(terms)) == loss == expected_loss
            for got, expected in zip(fitted.weights + fitted.biases, reference.groups):
                assert got.tobytes() == expected.tobytes()
            for got, expected in zip(stepped.weights + stepped.biases, reference.groups):
                assert got.tobytes() == expected.tobytes()

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ValueError):
            QNetwork((4, 8, 2), seed=0).train_step(np.ones((1, 4)), np.zeros((1, 2)), optimizer="rmsprop")

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError):
            QNetwork((4, 8, 2), seed=0).gradients(np.ones((1, 4)), np.zeros((1, 2)), loss="l1")


class TestWeightManagement:
    def test_clone_is_independent(self):
        network = QNetwork(seed=0)
        twin = network.clone()
        x = np.random.default_rng(0).uniform(-1, 1, 31)
        assert np.allclose(network(x), twin(x))
        twin.weights[0][0, 0] += 1.0
        assert not np.allclose(network(x), twin(x))

    def test_copy_from_requires_same_architecture(self):
        with pytest.raises(ValueError):
            QNetwork((31, 30, 3)).copy_from(QNetwork((31, 20, 3)))

    def test_set_weights_shape_checked(self):
        network = QNetwork((4, 8, 2))
        params = network.get_weights()
        params["weights"][0] = np.zeros((3, 8))
        with pytest.raises(ValueError):
            network.set_weights(params)

    def test_set_weights_bias_shape_checked(self):
        network = QNetwork((4, 8, 2))
        params = network.get_weights()
        params["biases"][1] = np.zeros(3)
        with pytest.raises(ValueError):
            network.set_weights(params)

    def test_set_weights_copies_into_existing_storage(self):
        network = QNetwork((4, 8, 2), seed=0)
        views = network.weights + network.biases
        params = QNetwork((4, 8, 2), seed=1).get_weights()
        network.set_weights(params)
        for view, expected in zip(views, params["weights"] + params["biases"]):
            assert view is not expected
            np.testing.assert_array_equal(view, expected)
        assert all(a is b for a, b in zip(views, network.weights + network.biases))

    def test_save_load_roundtrip(self, tmp_path):
        network = QNetwork(seed=0)
        path = tmp_path / "net.json"
        network.save(path)
        loaded = QNetwork.load(path)
        x = np.random.default_rng(2).uniform(-1, 1, 31)
        assert np.allclose(network(x), loaded(x))

    def test_save_writes_one_dumps(self, tmp_path):
        network = QNetwork((4, 8, 2), seed=3)
        path = tmp_path / "net.json"
        network.save(path)
        payload = {
            "layer_sizes": [4, 8, 2],
            "hidden_activation": network.hidden_activation,
            "weights": [w.tolist() for w in network.weights],
            "biases": [b.tolist() for b in network.biases],
        }
        assert path.read_bytes() == json.dumps(payload).encode("utf-8")
