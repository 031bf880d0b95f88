"""State encoding of Dimmer's DQN (Table I of the paper).

The coordinator aggregates the feedback it collected during a round
into a fixed-size input vector:

=============  =======================  ==============================
Input          Number of rows           Normalization
=============  =======================  ==============================
Radio-on time  K (10 in the paper)      [0, 20 ms]   -> [-1, 1]
Reliability    K (10)                   [50, 100 %]  -> [-1, 1]
N parameter    N_max + 1 (9)            one-hot encoding
History        M (2)                    -1 if losses, otherwise +1
=============  =======================  ==============================

Only the K devices with the *lowest* reliability feed the network; this
keeps the input size independent of the deployment size, so the same
DQN runs unmodified on the 18-node testbed and on the 48-node D-Cube.
Nodes from which no feedback was received are filled in pessimistically
(0 % reliability, 100 % radio-on time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass(frozen=True)
class FeatureConfig:
    """Shape of the DQN input vector.

    Parameters
    ----------
    num_input_nodes:
        K — number of worst-reliability devices whose feedback feeds the
        DQN (the paper selects 10 after the Fig. 4b sweep).
    history_size:
        M — number of past-round loss indicators (the paper selects 2).
    n_max:
        Maximum retransmission parameter; the one-hot N_TX block has
        ``n_max + 1`` entries (values 0..N_max).
    max_radio_on_ms:
        Upper bound of the radio-on normalization range (one slot).
    reliability_floor:
        Reliabilities below this value saturate at -1 (50 % in the paper).
    """

    num_input_nodes: int = 10
    history_size: int = 2
    n_max: int = 8
    max_radio_on_ms: float = 20.0
    reliability_floor: float = 0.5

    def __post_init__(self) -> None:
        if self.num_input_nodes <= 0:
            raise ValueError("num_input_nodes must be positive")
        if self.history_size < 0:
            raise ValueError("history_size must be non-negative")
        if self.n_max <= 0:
            raise ValueError("n_max must be positive")
        if not 0.0 <= self.reliability_floor < 1.0:
            raise ValueError("reliability_floor must be in [0, 1)")
        if self.max_radio_on_ms <= 0:
            raise ValueError("max_radio_on_ms must be positive")

    @property
    def input_size(self) -> int:
        """Total number of elements of the input vector."""
        return 2 * self.num_input_nodes + (self.n_max + 1) + self.history_size


#: The paper's evaluation configuration: K=10, M=2, N_max=8 -> 31 inputs.
PAPER_FEATURE_CONFIG = FeatureConfig()


class FeatureEncoder:
    """Builds DQN input vectors from per-node feedback.

    The encoder is stateful only through the loss-history ring buffer;
    reliability/radio-on feedback is passed in explicitly for every
    encoding call.
    """

    def __init__(self, config: FeatureConfig = PAPER_FEATURE_CONFIG) -> None:
        self.config = config
        self._history: List[float] = [1.0] * config.history_size

    @property
    def input_size(self) -> int:
        """Size of the encoded vectors."""
        return self.config.input_size

    # ------------------------------------------------------------------
    # Normalization helpers
    # ------------------------------------------------------------------
    def normalize_radio_on(self, radio_on_ms: float) -> float:
        """Map a radio-on time in [0, max] ms to [-1, 1]."""
        clamped = min(max(radio_on_ms, 0.0), self.config.max_radio_on_ms)
        return 2.0 * clamped / self.config.max_radio_on_ms - 1.0

    def normalize_reliability(self, reliability: float) -> float:
        """Map a reliability in [floor, 1] to [-1, 1]; below the floor saturates at -1."""
        reliability = min(max(reliability, 0.0), 1.0)
        floor = self.config.reliability_floor
        if reliability <= floor:
            return -1.0
        return 2.0 * (reliability - floor) / (1.0 - floor) - 1.0

    # ------------------------------------------------------------------
    # History management
    # ------------------------------------------------------------------
    def record_history(self, had_losses: bool) -> None:
        """Push the outcome of the latest round into the history buffer."""
        if self.config.history_size == 0:
            return
        self._history.insert(0, -1.0 if had_losses else 1.0)
        del self._history[self.config.history_size:]

    def reset_history(self) -> None:
        """Reset the history to the all-good state."""
        self._history = [1.0] * self.config.history_size

    @property
    def history(self) -> List[float]:
        """Current history entries, most recent first."""
        return list(self._history)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_arrays(
        self,
        node_ids: Sequence[int],
        reliabilities: np.ndarray,
        radio_on_ms: np.ndarray,
        n_tx: int,
    ) -> np.ndarray:
        """Build the Table-I input vector.

        Parameters
        ----------
        node_ids:
            Nodes the feedback covers.
        reliabilities, radio_on_ms:
            Per-node packet reception rate and per-slot radio-on time
            observed during the last round, aligned with ``node_ids``.
            They must cover every expected node, which is what a
            :class:`~repro.core.statistics.GlobalView` or a
            :class:`~repro.net.trace.TraceRecord` guarantees: silent
            nodes are already filled in pessimistically.
        n_tx:
            Retransmission parameter currently in force (one-hot encoded).

        The worst-``K`` selection ranks by ``(reliability, node id)``
        via one ``lexsort``; deployments smaller than ``K`` pad with
        perfectly healthy entries.
        """
        config = self.config
        if not 0 <= n_tx <= config.n_max:
            raise ValueError(f"n_tx must be within [0, {config.n_max}]")
        ids = np.asarray(node_ids, dtype=np.int64)
        worst = np.lexsort((ids, reliabilities))[: config.num_input_nodes]
        radio_rows = [self.normalize_radio_on(float(radio_on_ms[i])) for i in worst]
        reliability_rows = [self.normalize_reliability(float(reliabilities[i])) for i in worst]
        while len(radio_rows) < config.num_input_nodes:
            radio_rows.append(-1.0)
            reliability_rows.append(1.0)

        one_hot = [0.0] * (config.n_max + 1)
        one_hot[n_tx] = 1.0

        vector = np.array(
            radio_rows + reliability_rows + one_hot + self._history, dtype=float
        )
        if vector.shape[0] != config.input_size:
            raise AssertionError("encoded vector has an unexpected size")
        return vector

    def encode_round_arrays(
        self,
        node_ids: Sequence[int],
        reliabilities: np.ndarray,
        radio_on_ms: np.ndarray,
        n_tx: int,
        had_losses: bool,
    ) -> np.ndarray:
        """Encode a round outcome and update the history buffer.

        This is the coordinator's per-round entry point: it first builds
        the state using the history *before* this round (so the history
        rows describe past rounds, as in the paper), then records this
        round's outcome for subsequent encodings.
        """
        vector = self.encode_arrays(node_ids, reliabilities, radio_on_ms, n_tx)
        self.record_history(had_losses)
        return vector
