"""Statistics collector and global network view.

Dimmer closes its feedback loop without any extra transmissions: every
source piggybacks a two-byte performance header on its data packet, and
the coordinator (like every other node) collects whatever headers it
managed to receive.  Reliability is additionally estimated from the
schedule — a packet announced for a slot but not received is counted as
lost — and nodes the coordinator heard nothing from are filled in with
pessimistic values (0 % reliability, 100 % radio-on time).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.net.lwb import RoundResult, observer_view_arrays
from repro.net.packet import DimmerFeedbackHeader


class GlobalView:
    """The coordinator's snapshot of network performance after a round.

    Since PR 3 the view is array-backed: the per-node reliabilities and
    radio-on times live in NumPy arrays aligned with :attr:`node_ids`
    (that is how the statistics collector assembles it, without per-node
    dict bookkeeping), and the dict attributes of the original API are
    lazy views materialized on first access.  Views can equivalently be
    built from per-node dicts.

    Attributes
    ----------
    reliabilities:
        Per-node packet reception rate as known to the coordinator
        (from feedback headers, the coordinator's own measurements and
        pessimistic fill-ins).
    radio_on_ms:
        Per-node per-slot radio-on time, same provenance.
    missing_feedback:
        Nodes whose data packet (and therefore feedback) the coordinator
        did not receive this round.
    had_losses:
        Whether the view contains evidence of losses anywhere in the
        network (any reliability below 100 %).
    round_index:
        Round the view was assembled from.
    """

    __slots__ = (
        "node_ids",
        "had_losses",
        "round_index",
        "_rel_arr",
        "_radio_arr",
        "_missing_mask",
        "_rel_map",
        "_radio_map",
        "_missing_list",
    )

    def __init__(
        self,
        reliabilities: Union[Dict[int, float], np.ndarray],
        radio_on_ms: Union[Dict[int, float], np.ndarray],
        missing_feedback: Optional[Union[List[int], np.ndarray]] = None,
        had_losses: bool = False,
        round_index: int = 0,
        node_ids: Optional[Sequence[int]] = None,
    ) -> None:
        self.round_index = round_index
        if isinstance(reliabilities, np.ndarray):
            if node_ids is None:
                raise ValueError("node_ids is required for array-backed construction")
            self.node_ids = tuple(node_ids)
            self._rel_arr = np.asarray(reliabilities, dtype=float)
            self._radio_arr = np.asarray(radio_on_ms, dtype=float)
            if missing_feedback is None:
                self._missing_mask = np.zeros(len(self.node_ids), dtype=bool)
                self._missing_list: Optional[List[int]] = []
            elif isinstance(missing_feedback, np.ndarray):
                self._missing_mask = np.asarray(missing_feedback, dtype=bool)
                self._missing_list = None
            else:
                self._missing_mask = None
                self._missing_list = list(missing_feedback)
            self._rel_map: Optional[Dict[int, float]] = None
            self._radio_map: Optional[Dict[int, float]] = None
        else:
            self.node_ids = tuple(reliabilities)
            self._rel_map = dict(reliabilities)
            self._radio_map = dict(radio_on_ms)
            self._missing_list = list(missing_feedback) if missing_feedback is not None else []
            self._missing_mask = None
            self._rel_arr = None
            self._radio_arr = None
        self.had_losses = had_losses

    # ------------------------------------------------------------------
    # Array accessors
    # ------------------------------------------------------------------
    @property
    def reliability_array(self) -> np.ndarray:
        """Per-node reliabilities in :attr:`node_ids` order."""
        if self._rel_arr is None:
            self._rel_arr = np.fromiter(
                (float(self._rel_map[n]) for n in self.node_ids),
                dtype=float,
                count=len(self.node_ids),
            )
        return self._rel_arr

    @property
    def radio_on_array(self) -> np.ndarray:
        """Per-node per-slot radio-on times in :attr:`node_ids` order."""
        if self._radio_arr is None:
            self._radio_arr = np.fromiter(
                (float(self._radio_map[n]) for n in self.node_ids),
                dtype=float,
                count=len(self.node_ids),
            )
        return self._radio_arr

    # ------------------------------------------------------------------
    # Dict views (API-compatibility shims)
    # ------------------------------------------------------------------
    @property
    def reliabilities(self) -> Dict[int, float]:
        """Per-node reliability as known to the observer."""
        if self._rel_map is None:
            self._rel_map = dict(zip(self.node_ids, self._rel_arr.tolist()))
        return self._rel_map

    @property
    def radio_on_ms(self) -> Dict[int, float]:
        """Per-node per-slot radio-on time as known to the observer."""
        if self._radio_map is None:
            self._radio_map = dict(zip(self.node_ids, self._radio_arr.tolist()))
        return self._radio_map

    @property
    def missing_feedback(self) -> List[int]:
        """Sorted nodes whose feedback the observer did not receive."""
        if self._missing_list is None:
            self._missing_list = [
                node for node, flag in zip(self.node_ids, self._missing_mask.tolist()) if flag
            ]
        return self._missing_list

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
            reliabilities=reliabilities,
            radio_on_ms=radio_on,
            missing_feedback=missing_mask,
            had_losses=bool((reliabilities < 1.0).any()),
            round_index=result.round_index,
            node_ids=node_ids,
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

    def losses_in_last(self, count: int) -> bool:
        """Whether any of the last ``count`` views showed losses."""
        return any(view.had_losses for view in self.recent_views(count))

    def reset(self) -> None:
        """Forget all collected history."""
        self._views.clear()
