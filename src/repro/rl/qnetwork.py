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

#: Error magnitude at which the Huber loss turns from quadratic to linear.
HUBER_CLIP = 1.0
#: Adam's decay rates of the first and second moment, and its epsilon.
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def huber_terms(errors: np.ndarray) -> np.ndarray:
    """Elementwise Huber loss of ``errors``; a mini-batch's loss is their mean."""
    quadratic = np.minimum(np.abs(errors), HUBER_CLIP)
    linear = np.abs(errors) - quadratic
    return 0.5 * quadratic**2 + HUBER_CLIP * linear


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
        # Adam's moments m and v, one after the other in one vector.
        self._adam_moments = np.zeros(2 * size)
        self._adam_m = self._adam_moments[:size]
        self._adam_v = self._adam_moments[size:]
        self._adam_t = 0
        # Training workspace (see _workspace) and Adam's scratch vectors,
        # allocated by the first training call that needs them.
        self._offsets: Optional[np.ndarray] = None
        self._activations: List[np.ndarray] = []
        self._deltas: List[np.ndarray] = []
        self._adam_scratch: Optional[Tuple[np.ndarray, ...]] = None

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
    def _workspace(self, batch: int) -> None:
        """Allocate the training buffers of a ``batch``-row mini-batch.

        Called by every training forward pass; the buffers are made on
        the first one (and again when the batch size changes), so a
        network that only runs :meth:`forward` never allocates them.
        """
        if self._offsets is not None and len(self._offsets) == batch:
            return
        # Flat index of each output row's first element.
        self._offsets = np.arange(batch) * self.layer_sizes[-1]
        self._activations = [np.empty((batch, size)) for size in self.layer_sizes[1:]]
        self._deltas = [np.empty((batch, size)) for size in self.layer_sizes[1:]]

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """Q-values of a float64 batch ``x``, computed in the training
        workspace.

        The values equal :meth:`forward`'s (``np.dot`` and ``@`` make the
        same product of one shape), without its input checks and
        allocations; the next training call overwrites them.  Each
        layer's activations stay in the workspace for the backward pass
        (ReLU in place: ``post > 0`` equals ``pre > 0``).
        """
        self._workspace(len(x))
        last = len(self.weights) - 1
        activations = x
        for index, (w, b, out) in enumerate(zip(self.weights, self.biases, self._activations)):
            np.dot(activations, w, out=out)
            out += b
            if index != last:
                np.maximum(out, 0.0, out=out)
            activations = out
        return activations

    def _backward(self, x: np.ndarray, delta: np.ndarray) -> None:
        """Write the gradients of ``delta`` (the output-layer error, already
        divided by the batch size) into the gradient vector."""
        for layer in range(len(self.weights) - 1, -1, -1):
            inputs = self._activations[layer - 1] if layer else x
            np.dot(inputs.T, delta, out=self._grad_weights[layer])
            np.add.reduce(delta, axis=0, out=self._grad_biases[layer])
            if layer:
                hidden = self._deltas[layer - 1]
                np.dot(delta, self.weights[layer].T, out=hidden)
                hidden *= inputs > 0.0
                delta = hidden

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
        output = self.forward_batch(x)

        if actions is not None:
            # The error is exactly 0 at the actions not taken.
            actions = np.asarray(actions, dtype=int)
            scalar_targets = np.asarray(targets, dtype=float).reshape(batch)
            rows = np.arange(batch)
            error = np.zeros_like(output)
            error[rows, actions] = output[rows, actions] - scalar_targets
        else:
            error = output - np.asarray(targets, dtype=float).reshape(output.shape)

        if loss == "mse":
            delta = error
            loss_value = float(np.mean(error**2))
        elif loss == "huber":
            delta = np.clip(error, -HUBER_CLIP, HUBER_CLIP)
            loss_value = float(np.mean(huber_terms(error)))
        else:
            raise ValueError(f"unsupported loss: {loss}")
        self._backward(x, delta / batch)
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

    def fit_actions(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        targets: np.ndarray,
        learning_rate: float,
        errors: np.ndarray,
    ) -> None:
        """One Adam step on the Huber loss of the taken actions' Q-values.

        The DQN step: the same update as ``train_step(states, targets,
        actions, learning_rate)``, bit for bit, but the loss is left to
        the caller.  ``errors`` receives ``output[i, actions[i]] -
        targets[i]``, from which :func:`huber_terms` gives the loss
        terms (every other output's error is 0).  ``states`` must be a
        float64 matrix and ``actions`` integers in ``[0, outputs)``.
        """
        batch = len(states)
        output = self.forward_batch(states)
        taken = self._offsets + actions
        np.subtract(output.take(taken), targets, out=errors)
        # np.clip's value, without its Python-level dispatch.
        clipped = np.maximum(errors, -HUBER_CLIP)
        np.minimum(clipped, HUBER_CLIP, out=clipped)
        clipped /= batch
        delta = self._deltas[-1]
        delta.fill(0.0)
        delta.put(taken, clipped)
        self._backward(states, delta)
        self._adam_update(learning_rate)

    def _adam_update(self, learning_rate: float) -> None:
        """One Adam step over the whole parameter vector.

        ``m`` and ``v`` are the two halves of one vector, so one
        operation updates both; each element sees the same operations
        in the same order as ``m = beta1 * m + (1 - beta1) * g``, ``v =
        beta2 * v + (1 - beta2) * g**2`` and ``p -= lr * m_hat /
        (sqrt(v_hat) + eps)``.
        """
        beta1, beta2 = ADAM_BETAS
        size = self._parameters.size
        if self._adam_scratch is None:
            # Each moment-sized row: the betas, the (1 - beta)s, the
            # moments' update terms (from g, then from g**2), and the
            # step (m_hat, then v_hat).
            decay, gain, terms, step = np.empty((4, 2 * size))
            decay[...] = np.repeat(ADAM_BETAS, size)
            gain[...] = np.repeat([1 - beta1, 1 - beta2], size)
            self._adam_scratch = (
                decay, gain, terms, terms[:size], terms[size:], step[:size], step[size:]
            )
        decay, gain, terms, gradient_terms, square_terms, m_hat, v_hat = self._adam_scratch
        self._adam_t += 1
        t = self._adam_t
        gradient_terms[...] = self._gradient
        np.square(self._gradient, out=square_terms)
        terms *= gain
        self._adam_moments *= decay
        self._adam_moments += terms
        np.divide(self._adam_m, 1 - beta1**t, out=m_hat)
        np.divide(self._adam_v, 1 - beta2**t, out=v_hat)
        np.sqrt(v_hat, out=v_hat)
        v_hat += ADAM_EPS
        m_hat *= learning_rate
        m_hat /= v_hat
        self._parameters -= m_hat

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
