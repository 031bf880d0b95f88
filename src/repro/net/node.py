"""Node state of a whole deployment, as struct-of-arrays storage.

Each node keeps its role, current retransmission parameter and its
local statistics (reliability and radio-on time, fed back to the
coordinator through the two-byte Dimmer header).

:class:`NodeStateArray` holds that state for every node at once —
``node_ids``-aligned NumPy arrays for roles, ``n_tx``, sync flags and
the reliability counters, and one :class:`~repro.net.energy.RadioOnLedger`
for the radio-on window — so the LWB round engine updates the whole
network with masked vector operations and zero per-node Python calls.
The headers a round's packets carry are read with
:meth:`NodeStateArray.feedback_arrays` and reported on the round's
:class:`~repro.net.lwb.RoundResult`; no node keeps a table of the
headers it overheard.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.energy import RadioOnLedger


class NodeRole(enum.Enum):
    """Role of a node within the Dimmer network."""

    COORDINATOR = "coordinator"
    FORWARDER = "forwarder"
    PASSIVE = "passive"


#: Integer role codes used by the struct-of-arrays backing.
ROLE_COORDINATOR, ROLE_FORWARDER, ROLE_PASSIVE = 0, 1, 2

_ROLE_TO_CODE = {
    NodeRole.COORDINATOR: ROLE_COORDINATOR,
    NodeRole.FORWARDER: ROLE_FORWARDER,
    NodeRole.PASSIVE: ROLE_PASSIVE,
}


class NodeStateArray:
    """Struct-of-arrays node state for a whole deployment.

    Attributes
    ----------
    node_ids:
        Node ids in array index order.
    index:
        ``node id -> array index`` lookup.
    role_codes:
        Per-node role as an ``int8`` code (``ROLE_COORDINATOR`` /
        ``ROLE_FORWARDER`` / ``ROLE_PASSIVE``).
    n_tx:
        Per-node retransmission parameter.
    synchronized:
        Whether the node decoded the most recent schedule.
    packets_expected, packets_received:
        Per-round reliability counters (the feedback-header estimate).
    radio_on:
        :class:`~repro.net.energy.RadioOnLedger` — per-node radio-on
        accumulators (recent window + lifetime totals), one slot per
        round.
    """

    def __init__(
        self,
        node_ids: Sequence[int],
        coordinator: Optional[int] = None,
        default_n_tx: int = 3,
        window: int = 8,
    ) -> None:
        if default_n_tx < 0:
            raise ValueError("n_tx must be non-negative")
        self.node_ids: Tuple[int, ...] = tuple(node_ids)
        n = len(self.node_ids)
        if len(set(self.node_ids)) != n:
            raise ValueError("node_ids must be unique")
        self.index: Dict[int, int] = {node: i for i, node in enumerate(self.node_ids)}
        self.ids_array = np.array(self.node_ids, dtype=np.int64)
        self.role_codes = np.full(n, ROLE_FORWARDER, dtype=np.int8)
        if coordinator is not None:
            if coordinator not in self.index:
                raise ValueError("coordinator must be part of node_ids")
            self.role_codes[self.index[coordinator]] = ROLE_COORDINATOR
        self.n_tx = np.full(n, default_n_tx, dtype=np.int64)
        self.synchronized = np.ones(n, dtype=bool)
        self.packets_expected = np.zeros(n, dtype=np.int64)
        self.packets_received = np.zeros(n, dtype=np.int64)
        self.radio_on = RadioOnLedger(n, window=window)

    # ------------------------------------------------------------------
    # Vectorized round-path operations
    # ------------------------------------------------------------------
    def effective_n_tx(self) -> np.ndarray:
        """Per-node retransmissions actually performed given the roles."""
        return np.where(self.role_codes == ROLE_PASSIVE, np.int64(0), self.n_tx)

    def apply_n_tx_where(self, mask: np.ndarray, n_tx: int) -> None:
        """Apply a new global retransmission parameter to masked nodes."""
        if n_tx < 0:
            raise ValueError("n_tx must be non-negative")
        self.n_tx[mask] = n_tx

    def reliability(self) -> np.ndarray:
        """Per-node packet reception rate (1.0 where nothing was expected)."""
        expected = self.packets_expected
        return np.divide(
            self.packets_received,
            expected,
            out=np.ones(len(self.node_ids)),
            where=expected > 0,
        )

    def feedback_arrays(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The Dimmer feedback headers nodes ``rows`` would send now.

        Returns ``(radio_on_ms, reliability)`` aligned with ``rows``.
        The reliability ratio is one float64 division of the counters
        (exact integers, so it equals Python's ``int / int``) and the
        radio-on average sums the recent window in chronological order,
        as a node holding plain per-slot lists would compute it.
        """
        return self.radio_on.recent_averages_ms(rows), self.reliability()[rows]

    def record_round_statistics(
        self,
        packets_expected: np.ndarray,
        packets_received: np.ndarray,
        per_slot_radio_on_ms: np.ndarray,
    ) -> None:
        """Batch-update every node's statistics at the end of a round."""
        self.packets_expected[:] = packets_expected
        self.packets_received[:] = packets_received
        self.radio_on.record_round(per_slot_radio_on_ms)

    def set_role(self, node_id: int, role: NodeRole) -> None:
        """Set one node's role, enforcing the coordinator demotion guard."""
        index = self.index[node_id]
        if (
            self.role_codes[index] == ROLE_COORDINATOR
            and role is not NodeRole.COORDINATOR
        ):
            raise ValueError("the coordinator cannot be demoted")
        self.role_codes[index] = _ROLE_TO_CODE[role]

    def set_role_codes(self, codes: np.ndarray) -> None:
        """Bulk-apply per-node role codes (coordinator rows are protected).

        Rows currently holding ``ROLE_COORDINATOR`` keep it regardless of
        the incoming code — the bulk counterpart of :meth:`set_role`'s
        demotion guard, used by the protocol's forwarder-selection role
        updates.
        """
        codes = np.asarray(codes, dtype=np.int8)
        if codes.shape != self.role_codes.shape:
            raise ValueError("codes must have one entry per node")
        keep = self.role_codes == ROLE_COORDINATOR
        self.role_codes[:] = np.where(keep, self.role_codes, codes)

    def forwarder_ids(self) -> List[int]:
        """Sorted ids of nodes forwarding floods (coordinator included)."""
        mask = self.role_codes != ROLE_PASSIVE
        return sorted(self.ids_array[mask].tolist())

    def passive_ids(self) -> List[int]:
        """Sorted ids of nodes currently acting as passive receivers."""
        mask = self.role_codes == ROLE_PASSIVE
        return sorted(self.ids_array[mask].tolist())
