"""Radio-on-time and energy accounting.

The paper's two headline metrics are reliability and radio-on time (the
time the radio spent listening or transmitting per slot, averaged over
all slots, counting slots in which no packet was received).  Energy in
Fig. 7b is derived from the accumulated radio-on time via the radio's
power model.

:class:`RadioOnLedger` is the one radio-on accumulator: the node-state
store keeps one for the feedback headers, the simulator one for its
energy totals, and Crystal one for its per-epoch accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.net.radio import RadioModel


class RadioOnLedger:
    """Array-backed radio-on accounting for a whole network at once.

    Lifetime totals and a bounded window of recent slots live in NumPy
    arrays aligned with the network's node order; every write records
    all nodes, so the slot counter and the ring cursor are shared.  All
    slots of one :meth:`record_round` call share the same per-slot value
    per node — exactly how the round engine accounts radio-on time.

    The per-node recent average (what the Dimmer feedback header
    reports) sums the window oldest first with sequential adds, which
    keeps the headers bit-identical to a per-node list of the last
    ``window`` values.
    """

    def __init__(self, num_nodes: int, window: int = 8) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.total_ms = np.zeros(num_nodes)
        self.slot_count = 0
        #: Ring buffer of the last ``window`` per-slot values per node.
        self._recent = np.zeros((window, num_nodes))
        self._recent_len = 0
        self._cursor = 0

    def record_round(self, per_slot_ms: np.ndarray, num_slots: int = 1) -> None:
        """Record ``num_slots`` slots, each costing ``per_slot_ms`` per node."""
        per_slot_ms = np.asarray(per_slot_ms, dtype=float)
        if per_slot_ms.shape != self.total_ms.shape:
            raise ValueError("per_slot_ms must have one entry per node")
        if (per_slot_ms < 0).any():
            raise ValueError("radio_on_ms must be non-negative")
        if num_slots <= 0:
            raise ValueError("num_slots must be positive")
        self.total_ms += per_slot_ms * num_slots
        self.slot_count += num_slots
        fill = min(num_slots, self.window)
        rows = (self._cursor + np.arange(fill)) % self.window
        self._recent[rows] = per_slot_ms
        self._cursor = (self._cursor + fill) % self.window
        self._recent_len = min(self.window, self._recent_len + num_slots)

    def recent_averages_ms(self, rows: np.ndarray) -> np.ndarray:
        """Radio-on time of nodes ``rows`` averaged over the recent window.

        Sums the window oldest first with sequential float64 adds, one
        window slot at a time across all ``rows``, which is bit-identical
        to Python's ``sum`` over a per-node list of the last ``window``
        values.
        """
        length = self._recent_len
        totals = np.zeros(len(rows))
        if length == 0:
            return totals
        if length < self.window:
            order = range(length)
        else:
            order = [(self._cursor + offset) % self.window for offset in range(self.window)]
        window = self._recent[:, rows]
        for row in order:
            totals += window[row]
        return totals / length

    def reset(self) -> None:
        """Forget all accumulated accounting."""
        self.total_ms[:] = 0.0
        self.slot_count = 0
        self._recent[:] = 0.0
        self._recent_len = 0
        self._cursor = 0


@dataclass
class EnergyModel:
    """Converts accumulated radio-on time into energy figures.

    Parameters
    ----------
    radio:
        Electrical model of the radio.
    tx_fraction:
        Approximate share of the radio-on time spent transmitting
        (Glossy alternates RX and TX phases).
    """

    radio: RadioModel = field(default_factory=RadioModel)
    tx_fraction: float = 0.3

    def energy_j(self, radio_on_ms: float) -> float:
        """Energy in joules of ``radio_on_ms`` of accumulated radio-on time."""
        return self.radio.radio_on_energy_mj(radio_on_ms, self.tx_fraction) / 1000.0
