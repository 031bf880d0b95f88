"""Fully-connected Q-network.

The paper's DQN is deliberately tiny — one fully-connected hidden layer
of 30 ReLU neurons plus a 3-neuron linear output — so that it fits the
flash and RAM of a TelosB-class device after quantization.  This module
implements that network (and arbitrary other layer layouts) in plain
numpy, with enough training machinery (mini-batch gradients, SGD and
Adam, Huber or MSE loss) to run the offline DQN training of §IV-B.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class QNetwork:
    """A small multi-layer perceptron used as a Q-function approximator.

    Parameters
    ----------
    layer_sizes:
        Sizes of every layer, input and output included.  Dimmer's
        network is ``(31, 30, 3)``.
    seed:
        Seed for the weight initialization.
    hidden_activation:
        Only ``"relu"`` is supported (what the paper uses); the output
        layer is always linear, as usual for Q-value regression.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int] = (31, 30, 3),
        seed: Optional[int] = None,
        hidden_activation: str = "relu",
    ) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("at least an input and an output layer are required")
        if any(size <= 0 for size in layer_sizes):
            raise ValueError("layer sizes must be positive")
        if hidden_activation != "relu":
            raise ValueError("only the 'relu' hidden activation is supported")
        self.layer_sizes: Tuple[int, ...] = tuple(int(s) for s in layer_sizes)
        self.hidden_activation = hidden_activation
        # One contiguous parameter vector and one gradient vector; the
        # per-layer weights and biases are views into them, so the
        # optimizers update every parameter group in one vector step.
        pairs = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        size = sum(fan_in * fan_out + fan_out for fan_in, fan_out in pairs)
        self._parameters = np.zeros(size)
        self._gradient = np.zeros(size)
        self.weights, self.biases = self._layer_views(self._parameters)
        self._grad_weights, self._grad_biases = self._layer_views(self._gradient)
        rng = np.random.default_rng(seed)
        for weights, (fan_in, fan_out) in zip(self.weights, pairs):
            # He initialization suits ReLU hidden layers.
            scale = np.sqrt(2.0 / fan_in)
            weights[...] = rng.normal(0.0, scale, size=(fan_in, fan_out))
        self._adam_m = np.zeros(size)
        self._adam_v = np.zeros(size)
        self._adam_t = 0

    def _layer_views(self, flat: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Per-layer weight and bias views into a flat parameter-sized vector."""
        weights: List[np.ndarray] = []
        biases: List[np.ndarray] = []
        offset = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            weights.append(flat[offset: offset + fan_in * fan_out].reshape(fan_in, fan_out))
            offset += fan_in * fan_out
            biases.append(flat[offset: offset + fan_out])
            offset += fan_out
        return weights, biases

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def input_size(self) -> int:
        """Number of inputs the network expects."""
        return self.layer_sizes[0]

    @property
    def num_parameters(self) -> int:
        """Total number of trainable parameters (weights plus biases)."""
        return self._parameters.size

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Compute Q-values for a single state or a batch of states."""
        x = np.asarray(inputs, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[np.newaxis, :]
        if x.shape[1] != self.input_size:
            raise ValueError(
                f"expected input of size {self.input_size}, got {x.shape[1]}"
            )
        activations = x
        last = len(self.weights) - 1
        for index, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = activations @ w + b
            activations = z if index == last else np.maximum(z, 0.0)
        return activations[0] if single else activations

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    def predict_action(self, state: np.ndarray) -> int:
        """Greedy action for a single state."""
        return int(np.argmax(self.forward(state)))

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _forward_cached(self, x: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Forward pass keeping pre- and post-activation values per layer."""
        pre: List[np.ndarray] = []
        post: List[np.ndarray] = [x]
        last = len(self.weights) - 1
        activations = x
        for index, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = activations @ w + b
            pre.append(z)
            activations = z if index == last else np.maximum(z, 0.0)
            post.append(activations)
        return pre, post

    def gradients(
        self,
        states: np.ndarray,
        targets: np.ndarray,
        actions: Optional[np.ndarray] = None,
        loss: str = "huber",
    ) -> Tuple[List[np.ndarray], List[np.ndarray], float]:
        """Compute loss gradients for a mini-batch.

        When ``actions`` is given, only the Q-value of the taken action
        contributes to the loss (the usual DQN regression); ``targets``
        is then a vector of scalar TD targets.  Without ``actions``,
        ``targets`` must have the full output shape.  The returned
        gradients are views into the network's gradient buffer, which
        the next call overwrites.
        """
        x = np.asarray(states, dtype=float)
        if x.ndim == 1:
            x = x[np.newaxis, :]
        batch = x.shape[0]
        pre, post = self._forward_cached(x)
        output = post[-1]

        if actions is not None:
            actions = np.asarray(actions, dtype=int)
            scalar_targets = np.asarray(targets, dtype=float).reshape(batch)
            full_targets = output.copy()
            full_targets[np.arange(batch), actions] = scalar_targets
        else:
            full_targets = np.asarray(targets, dtype=float).reshape(output.shape)

        error = output - full_targets
        if loss == "mse":
            delta = error
            loss_value = float(np.mean(error**2))
        elif loss == "huber":
            clip = 1.0
            delta = np.clip(error, -clip, clip)
            quadratic = np.minimum(np.abs(error), clip)
            linear = np.abs(error) - quadratic
            loss_value = float(np.mean(0.5 * quadratic**2 + clip * linear))
        else:
            raise ValueError(f"unsupported loss: {loss}")

        upstream = delta / batch
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(post[layer].T, upstream, out=self._grad_weights[layer])
            np.add.reduce(upstream, axis=0, out=self._grad_biases[layer])
            if layer > 0:
                upstream = upstream @ self.weights[layer].T
                upstream = upstream * (pre[layer - 1] > 0.0)
        return self._grad_weights, self._grad_biases, loss_value

    def train_step(
        self,
        states: np.ndarray,
        targets: np.ndarray,
        actions: Optional[np.ndarray] = None,
        learning_rate: float = 1e-3,
        optimizer: str = "adam",
        loss: str = "huber",
    ) -> float:
        """Run one gradient step on a mini-batch and return the loss."""
        _, _, loss_value = self.gradients(states, targets, actions, loss=loss)
        if optimizer == "sgd":
            self._parameters -= learning_rate * self._gradient
        elif optimizer == "adam":
            self._adam_update(learning_rate)
        else:
            raise ValueError(f"unsupported optimizer: {optimizer}")
        return loss_value

    def _adam_update(
        self,
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        """One Adam step over the whole parameter vector."""
        self._adam_t += 1
        t = self._adam_t
        grads = self._gradient
        m = self._adam_m
        v = self._adam_v
        # In place, but each element sees the same operations in the
        # same order as m = beta1 * m + (1 - beta1) * g (and likewise v).
        m *= beta1
        m += (1 - beta1) * grads
        v *= beta2
        v += (1 - beta2) * grads**2
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        self._parameters -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)

    # ------------------------------------------------------------------
    # Weight management
    # ------------------------------------------------------------------
    def get_weights(self) -> Dict[str, List[np.ndarray]]:
        """Return copies of all weights and biases."""
        return {
            "weights": [w.copy() for w in self.weights],
            "biases": [b.copy() for b in self.biases],
        }

    def set_weights(self, parameters: Dict[str, List[np.ndarray]]) -> None:
        """Load weights and biases (shapes must match).

        The values are copied into the existing parameter vector, so the
        optimizer state and every view of the parameters stay attached.
        """
        weights = parameters["weights"]
        biases = parameters["biases"]
        if len(weights) != len(self.weights) or len(biases) != len(self.biases):
            raise ValueError("parameter structure does not match the network")
        for target, source in zip(self.weights, weights):
            if target.shape != np.asarray(source).shape:
                raise ValueError("weight shape mismatch")
        for target, source in zip(self.biases, biases):
            if target.shape != np.asarray(source).shape:
                raise ValueError("bias shape mismatch")
        for target, source in zip(self.weights + self.biases, [*weights, *biases]):
            target[...] = source

    def copy_from(self, other: "QNetwork") -> None:
        """Copy another network's parameters into this one (target-network sync)."""
        if other.layer_sizes != self.layer_sizes:
            raise ValueError("cannot copy weights between different architectures")
        self._parameters[...] = other._parameters

    def clone(self) -> "QNetwork":
        """Return a deep copy of this network."""
        twin = QNetwork(self.layer_sizes, hidden_activation=self.hidden_activation)
        twin.copy_from(self)
        return twin

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Path) -> None:
        """Serialize the architecture and parameters to a JSON file.

        Encoded in one ``json.dumps`` call (the C encoder), byte for byte
        what ``json.dump`` writes.
        """
        payload = {
            "layer_sizes": list(self.layer_sizes),
            "hidden_activation": self.hidden_activation,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "QNetwork":
        """Load a network previously written by :meth:`save`."""
        with Path(path).open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
        network = cls(payload["layer_sizes"], hidden_activation=payload["hidden_activation"])
        network.set_weights(
            {
                "weights": [np.array(w, dtype=float) for w in payload["weights"]],
                "biases": [np.array(b, dtype=float) for b in payload["biases"]],
            }
        )
        return network
