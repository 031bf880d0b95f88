"""Statistics collector and global network view.

Dimmer closes its feedback loop without any extra transmissions: every
source piggybacks a two-byte performance header on its data packet, and
the coordinator (like every other node) collects whatever headers it
managed to receive.  Reliability is additionally estimated from the
schedule — a packet announced for a slot but not received is counted as
lost — and nodes the coordinator heard nothing from are filled in with
pessimistic values (0 % reliability, 100 % radio-on time).

The resulting :class:`GlobalView` holds its per-node values as NumPy
arrays aligned with its sorted ``node_ids``; no per-node dicts.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.net.lwb import RoundResult, observer_view_arrays


class GlobalView:
    """The coordinator's snapshot of network performance after a round.

    Per-node observables are NumPy arrays aligned with :attr:`node_ids`
    (the sorted ids of the nodes the observer accounts for); the
    statistics collector assembles them without per-node dict
    bookkeeping, and the DQN encodes them as they are.

    Attributes
    ----------
    node_ids:
        Nodes covered by the view, sorted.
    reliability_array:
        Per-node packet reception rate as known to the coordinator
        (from feedback headers, the coordinator's own measurements and
        pessimistic fill-ins).
    radio_on_array:
        Per-node per-slot radio-on time, same provenance.
    missing_feedback_array:
        Per-node flag: the coordinator did not receive the node's data
        packet (and therefore its feedback) this round.
    had_losses:
        Whether the view contains evidence of losses anywhere in the
        network (any reliability below 100 %).
    round_index:
        Round the view was assembled from.
    """

    __slots__ = (
        "node_ids",
        "reliability_array",
        "radio_on_array",
        "missing_feedback_array",
        "had_losses",
        "round_index",
    )

    def __init__(
        self,
        node_ids: Sequence[int],
        reliability_array: np.ndarray,
        radio_on_array: np.ndarray,
        missing_feedback_array: np.ndarray,
        had_losses: bool = False,
        round_index: int = 0,
    ) -> None:
        self.node_ids = tuple(node_ids)
        self.reliability_array = reliability_array
        self.radio_on_array = radio_on_array
        self.missing_feedback_array = missing_feedback_array
        self.had_losses = had_losses
        self.round_index = round_index

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def worst_reliability(self) -> float:
        """Lowest per-node reliability in the view (1.0 for an empty view)."""
        if len(self.node_ids) == 0:
            return 1.0
        return float(self.reliability_array.min())

    def average_reliability(self) -> float:
        """Mean per-node reliability in the view (1.0 for an empty view)."""
        if len(self.node_ids) == 0:
            return 1.0
        return float(self.reliability_array.sum()) / len(self.node_ids)


class StatisticsCollector:
    """Assembles :class:`GlobalView` snapshots at a given node.

    The collector is written from the coordinator's perspective (that is
    where the DQN runs) but works identically at any observer node, which
    is what the distributed forwarder selection relies on.

    Parameters
    ----------
    observer:
        Node at which the statistics are collected.
    expected_nodes:
        Every node the observer expects feedback from.
    pessimistic_radio_on_ms:
        Radio-on value attributed to silent nodes (a full slot).
    loss_history_window:
        Number of recent views kept for the "is the network calm?"
        decision of the controller.
    """

    def __init__(
        self,
        observer: int,
        expected_nodes: Sequence[int],
        pessimistic_radio_on_ms: float = 20.0,
        loss_history_window: int = 16,
    ) -> None:
        if loss_history_window <= 0:
            raise ValueError("loss_history_window must be positive")
        self.observer = observer
        self.expected_nodes = [n for n in expected_nodes]
        self.pessimistic_radio_on_ms = pessimistic_radio_on_ms
        self.loss_history_window = loss_history_window
        self._views: List[GlobalView] = []

    # ------------------------------------------------------------------
    # View construction
    # ------------------------------------------------------------------
    def build_view(self, result: RoundResult) -> GlobalView:
        """Build the observer's global view from one round's outcome.

        Only information the observer could legitimately have is used:
        the feedback headers of data packets the observer itself
        received, the observer's own local statistics, and the schedule
        (to detect missing packets).
        """
        node_ids, reliabilities, radio_on, missing_mask = observer_view_arrays(
            result,
            observer=self.observer,
            expected_nodes=self.expected_nodes,
            pessimistic_radio_on_ms=self.pessimistic_radio_on_ms,
        )
        view = GlobalView(
            node_ids=node_ids,
            reliability_array=reliabilities,
            radio_on_array=radio_on,
            missing_feedback_array=missing_mask,
            had_losses=bool((reliabilities < 1.0).any()),
            round_index=result.round_index,
        )
        self._views.append(view)
        del self._views[: -self.loss_history_window]
        return view

    # ------------------------------------------------------------------
    # History queries
    # ------------------------------------------------------------------
    @property
    def latest_view(self) -> Optional[GlobalView]:
        """Most recent view, if any round has been observed yet."""
        return self._views[-1] if self._views else None

    def recent_views(self, count: int) -> List[GlobalView]:
        """The last ``count`` views, oldest first."""
        if count <= 0:
            return []
        return self._views[-count:]

    def calm_rounds(self) -> int:
        """Number of consecutive most-recent rounds without any losses."""
        calm = 0
        for view in reversed(self._views):
            if view.had_losses:
                break
            calm += 1
        return calm

    def reset(self) -> None:
        """Forget all collected history."""
        self._views.clear()
