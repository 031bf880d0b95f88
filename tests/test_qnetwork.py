"""Tests for the numpy Q-network."""

import json

import numpy as np
import pytest

from repro.rl.qnetwork import QNetwork


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
        # Reference: per-layer backward pass and per-group updates with
        # the same elementwise formulas; the flat vectors must agree bit
        # for bit over 20 action-masked Huber steps on a 3-layer net.
        network = QNetwork((6, 5, 4, 3), seed=0)
        params = network.get_weights()
        groups = params["weights"] + params["biases"]
        m = [np.zeros_like(p) for p in groups]
        v = [np.zeros_like(p) for p in groups]
        rng = np.random.default_rng(1)
        for t in range(1, 21):
            x = rng.normal(size=(8, 6))
            targets = rng.normal(size=8)
            actions = rng.integers(0, 3, size=8)
            pre, post = [], [x]
            for layer, (w, b) in enumerate(zip(params["weights"], params["biases"])):
                pre.append(post[-1] @ w + b)
                post.append(pre[-1] if layer == 2 else np.maximum(pre[-1], 0.0))
            full = post[-1].copy()
            full[np.arange(8), actions] = targets
            upstream = np.clip(post[-1] - full, -1.0, 1.0) / 8
            grads = [None] * 6
            for layer in (2, 1, 0):
                grads[layer] = post[layer].T @ upstream
                grads[3 + layer] = upstream.sum(axis=0)
                if layer > 0:
                    upstream = (upstream @ params["weights"][layer].T) * (pre[layer - 1] > 0.0)
            for i, (p, g) in enumerate(zip(groups, grads)):
                if optimizer == "sgd":
                    p -= 1e-2 * g
                    continue
                m[i] = 0.9 * m[i] + (1 - 0.9) * g
                v[i] = 0.999 * v[i] + (1 - 0.999) * g**2
                m_hat = m[i] / (1 - 0.9**t)
                v_hat = v[i] / (1 - 0.999**t)
                p -= 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
            network.train_step(x, targets, actions=actions, learning_rate=1e-2, optimizer=optimizer)
            for got, expected in zip(network.weights + network.biases, groups):
                np.testing.assert_array_equal(got, expected)

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
