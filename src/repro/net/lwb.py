"""Low-power Wireless Bus (LWB) round engine.

LWB turns a multi-hop network into a logical shared bus: a coordinator
(host) schedules periodic communication rounds.  A round starts with a
control slot in which the coordinator floods the schedule (and, in
Dimmer, the new retransmission parameter or a forwarder-selection
command); a series of data slots follows, one per scheduled source,
each executed as a Glossy flood.

Nodes that fail to decode the schedule are unsynchronized for that
round: they cannot participate in the data slots, miss every packet and
keep their radio on trying to re-synchronize — which is exactly why
plain LWB's energy consumption rises under interference (§V-E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.net.channels import ChannelHopper
from repro.net.glossy import FloodRequest, FloodResult, GlossyFlood, RoundSteps, run_steps
from repro.net.interference import InterferenceSource, NoInterference
from repro.net.link import LinkModel
from repro.net.node import NodeStateArray
from repro.net.packet import DEFAULT_PACKET_BYTES, DataPacket, SchedulePacket
from repro.net.radio import RadioModel
from repro.net.topology import Topology


@dataclass(frozen=True)
class Schedule:
    """Round schedule computed by the coordinator.

    Attributes
    ----------
    round_index:
        Monotonically increasing round counter.
    n_tx:
        Global retransmission parameter to apply for this round.
    slots:
        Source node of each data slot, in slot order.
    forwarder_selection:
        When True, the coordinator signals an interference-free round in
        which the designated ``learning_node`` may run its local
        multi-armed bandit learning step.
    learning_node:
        Node allowed to (re)draw its forwarder/passive role this round.
    """

    round_index: int
    n_tx: int
    slots: Sequence[int]
    forwarder_selection: bool = False
    learning_node: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_tx < 0:
            raise ValueError("n_tx must be non-negative")

    def to_packet(self, coordinator: int) -> SchedulePacket:
        """Serialize the schedule into its control-slot packet."""
        return SchedulePacket(
            source=coordinator,
            n_tx=self.n_tx,
            slots=tuple(self.slots),
            forwarder_selection=self.forwarder_selection,
            learning_node=self.learning_node,
            round_index=self.round_index,
        )


class RoundResult:
    """Outcome of a full LWB/Dimmer round.

    Per-node aggregates are NumPy arrays aligned with :attr:`node_ids`
    (the topology order); per-slot ones are aligned with the schedule's
    data slots.

    Attributes
    ----------
    slot_floods:
        One :class:`~repro.net.glossy.FloodResult` per data slot, in
        slot order; a slot whose source missed the schedule holds the
        empty flood.
    header_radio_on_array, header_reliability_array:
        The Dimmer feedback header each data slot's packet carried (the
        source's radio-on time and reliability); NaN where the slot
        carried none (an empty slot, or a round without feedback).
    synchronized_array:
        Per-node flag: did the node decode this round's schedule?
    radio_on_array:
        Whole-round radio-on time of each node.
    packets_expected_array, packets_received_array:
        Packets each node was scheduled to receive / actually received
        this round.
    """

    __slots__ = (
        "round_index",
        "schedule",
        "start_ms",
        "control_flood",
        "slot_floods",
        "header_radio_on_array",
        "header_reliability_array",
        "node_ids",
        "synchronized_array",
        "radio_on_array",
        "packets_expected_array",
        "packets_received_array",
    )

    def __init__(
        self,
        round_index: int,
        schedule: Schedule,
        start_ms: float,
        control_flood: FloodResult,
        slot_floods: List[FloodResult],
        header_radio_on_array: np.ndarray,
        header_reliability_array: np.ndarray,
        node_ids: Sequence[int],
        synchronized_array: np.ndarray,
        radio_on_array: np.ndarray,
        packets_expected_array: np.ndarray,
        packets_received_array: np.ndarray,
    ) -> None:
        self.round_index = round_index
        self.schedule = schedule
        self.start_ms = start_ms
        self.control_flood = control_flood
        self.slot_floods = slot_floods
        self.header_radio_on_array = header_radio_on_array
        self.header_reliability_array = header_reliability_array
        self.node_ids = tuple(node_ids)
        self.synchronized_array = synchronized_array
        self.radio_on_array = radio_on_array
        self.packets_expected_array = packets_expected_array
        self.packets_received_array = packets_received_array

    # ------------------------------------------------------------------
    # Scalar accessors
    # ------------------------------------------------------------------
    def _position(self, node: int) -> int:
        """Array index of ``node``, or ``-1`` when absent."""
        try:
            return self.node_ids.index(node)
        except ValueError:
            return -1

    def packets_expected_at(self, node: int) -> int:
        """Expected-packet count of one node (0 when unknown)."""
        position = self._position(node)
        return int(self.packets_expected_array[position]) if position >= 0 else 0

    def packets_received_at(self, node: int) -> int:
        """Received-packet count of one node (0 when unknown)."""
        position = self._position(node)
        return int(self.packets_received_array[position]) if position >= 0 else 0

    def radio_on_at(self, node: int) -> float:
        """Whole-round radio-on time of one node (0.0 when unknown)."""
        position = self._position(node)
        return float(self.radio_on_array[position]) if position >= 0 else 0.0

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes accounted for in this round."""
        return len(self.node_ids)

    @property
    def reliability(self) -> float:
        """Network-wide reliability: received / expected over all destinations."""
        expected = int(self.packets_expected_array.sum())
        if expected == 0:
            return 1.0
        return int(self.packets_received_array.sum()) / expected

    @property
    def had_losses(self) -> bool:
        """True when at least one scheduled packet was missed by a destination."""
        return self.reliability < 1.0

    @property
    def average_radio_on_ms(self) -> float:
        """Radio-on time per slot, averaged over all nodes and slots of the round."""
        num_slots = len(self.slot_floods) + 1  # control slot included
        if len(self.node_ids) == 0 or num_slots == 0:
            return 0.0
        return float(self.radio_on_array.mean()) / num_slots


def average_reliability(results: Sequence[RoundResult]) -> float:
    """Reliability pooled over ``results``: received / expected packets.

    The counts are exact integer sums; no expected packet means 1.0.
    """
    expected = sum(int(result.packets_expected_array.sum()) for result in results)
    received = sum(int(result.packets_received_array.sum()) for result in results)
    return 1.0 if expected == 0 else received / expected


def observer_view_arrays(
    result: RoundResult,
    observer: int,
    expected_nodes: Optional[Sequence[int]] = None,
    pessimistic_radio_on_ms: float = 20.0,
) -> "Tuple[List[int], np.ndarray, np.ndarray, np.ndarray]":
    """Reconstruct what ``observer`` legitimately knows after a round.

    Dimmer closes its feedback loop through the two-byte headers carried
    by data packets: an observer only knows the performance of nodes
    whose packet it received this round; every other scheduled node is
    filled in pessimistically (0 % reliability, 100 % radio-on time) and
    flagged as missing.  The observer's own statistics are exact.  This
    helper is shared by the coordinator-side statistics collector (its
    :class:`~repro.core.statistics.GlobalView`), the trace recorder (so
    training data has the same distribution as deployment inputs) and
    the simulation training environment.

    Returns ``(node_ids, reliabilities, radio_on_ms, missing_mask)``
    with the arrays aligned to the sorted ``node_ids`` list.
    """
    scheduled = set(result.schedule.slots)
    if expected_nodes is not None:
        scheduled &= set(expected_nodes)
    scheduled.add(observer)
    node_ids = sorted(scheduled)
    count = len(node_ids)
    nodes_arr = np.array(node_ids, dtype=np.int64)

    # The headers the observer holds: those of the slots that carried
    # one and whose packet it decoded (its own slots always), from
    # sources in ``node_ids``.  Two slots of one source carry equal
    # headers (both from the statistics the previous round left), so
    # their write order does not matter.
    sources = np.array(result.schedule.slots, dtype=np.int64)
    source_rows = np.minimum(np.searchsorted(nodes_arr, sources), count - 1)
    heard = np.fromiter(
        (flood.received_at(observer) for flood in result.slot_floods),
        dtype=bool,
        count=len(result.slot_floods),
    )
    heard |= sources == observer
    heard &= (nodes_arr[source_rows] == sources) & ~np.isnan(result.header_reliability_array)
    rows = source_rows[heard]

    # Pessimistic defaults, then overlay the received headers, then the
    # observer's own exact statistics.
    rel_arr = np.zeros(count)
    radio_arr = np.full(count, pessimistic_radio_on_ms)
    missing_mask = np.ones(count, dtype=bool)
    rel_arr[rows] = result.header_reliability_array[heard]
    radio_arr[rows] = result.header_radio_on_array[heard]
    missing_mask[rows] = False

    num_slots = len(result.slot_floods) + 1
    observer_row = int(np.searchsorted(nodes_arr, observer))
    expected = result.packets_expected_at(observer)
    received = result.packets_received_at(observer)
    rel_arr[observer_row] = 1.0 if expected == 0 else received / expected
    radio_arr[observer_row] = result.radio_on_at(observer) / num_slots
    missing_mask[observer_row] = False
    return node_ids, rel_arr, radio_arr, missing_mask


class LWBRoundEngine:
    """Executes LWB rounds slot by slot on top of Glossy floods.

    Parameters
    ----------
    topology:
        Deployment to run over.
    link_model, radio:
        Link-quality and radio models (defaults derived from the topology).
    hopper:
        Channel hopper; disable it (``ChannelHopper(enabled=False)``) for
        the single-channel LWB baseline.
    slot_ms:
        Maximum duration of a slot (20 ms in the paper).
    slot_gap_ms:
        Processing gap between consecutive slots.
    packet_bytes:
        Application packet size (30 bytes in the paper).
    rng:
        Random generator shared by all floods of this engine.
    engine:
        Flood engine implementation (``"scalar"`` reference or
        ``"vectorized"``; see :class:`~repro.net.glossy.GlossyFlood`).
        The batched data-slot phase loop is what the engine choice
        accelerates; :attr:`flood` exposes the underlying
        :class:`~repro.net.glossy.GlossyFlood`.
    """

    def __init__(
        self,
        topology: Topology,
        link_model: Optional[LinkModel] = None,
        radio: Optional[RadioModel] = None,
        hopper: Optional[ChannelHopper] = None,
        slot_ms: float = 20.0,
        slot_gap_ms: float = 2.0,
        packet_bytes: int = DEFAULT_PACKET_BYTES,
        rng: Optional[np.random.Generator] = None,
        engine: str = "scalar",
    ) -> None:
        if slot_ms <= 0:
            raise ValueError("slot_ms must be positive")
        self.topology = topology
        self.link_model = link_model if link_model is not None else LinkModel(topology)
        self.radio = radio if radio is not None else RadioModel()
        self.hopper = hopper if hopper is not None else ChannelHopper()
        self.slot_ms = slot_ms
        self.slot_gap_ms = slot_gap_ms
        self.packet_bytes = packet_bytes
        self.rng = rng if rng is not None else np.random.default_rng()
        self._flood = GlossyFlood(topology, self.link_model, self.radio, self.rng, engine=engine)

    @property
    def flood(self) -> GlossyFlood:
        """The flood engine executing this round engine's slots."""
        return self._flood

    @property
    def engine(self) -> str:
        """Name of the flood engine implementation in use."""
        return self._flood.engine

    def _slot_start_ms(self, round_start_ms: float, slot_index: int) -> float:
        """Global start time of slot ``slot_index`` (0 = control slot)."""
        return round_start_ms + slot_index * (self.slot_ms + self.slot_gap_ms)

    def run_round(
        self,
        nodes: NodeStateArray,
        schedule: Schedule,
        start_ms: float = 0.0,
        interference: Optional[InterferenceSource] = None,
        collect_feedback: bool = True,
        destinations: Optional[Sequence[int]] = None,
    ) -> RoundResult:
        """Execute one LWB round: :meth:`round_steps`, each flood request run at once."""
        return run_steps(
            self.round_steps(
                nodes, schedule, start_ms, interference, collect_feedback, destinations
            )
        )

    def round_steps(
        self,
        nodes: NodeStateArray,
        schedule: Schedule,
        start_ms: float = 0.0,
        interference: Optional[InterferenceSource] = None,
        collect_feedback: bool = True,
        destinations: Optional[Sequence[int]] = None,
    ) -> RoundSteps:
        """One LWB round as steps a driver can interleave.

        The generator yields two :class:`~repro.net.glossy.FloodRequest`
        objects — the control slot's flood, then the batch of data-slot
        floods (possibly empty) — is sent each one's results, and
        returns the :class:`RoundResult`.  :meth:`run_round` runs each
        request at once (:func:`~repro.net.glossy.run_steps`); a
        lock-step driver (:func:`~repro.net.glossy.run_lockstep`) runs
        the same step of many simulators as one batched kernel call.

        No per-node Python calls run anywhere: the schedule's ``n_tx``
        broadcasts through the synchronized mask, ``effective_n_tx`` is
        a ``where`` over the role codes, the data slots run as one
        batched phase loop, the slots' feedback headers are one array
        read per field, and the end-of-round statistics of all nodes are
        a single vectorized counter update.

        Parameters
        ----------
        nodes:
            Node state store whose ``node_ids`` equal the topology order
            (what every simulator owns); roles and ``n_tx`` values are
            read (passive receivers flood with ``N_TX = 0``), and
            statistics are updated in place.  Any other input raises
            :class:`ValueError`.
        schedule:
            The schedule computed by the coordinator for this round.
        start_ms:
            Round start on the global clock.
        interference:
            Interference source active during the round.
        collect_feedback:
            When True, data packets carry the source's Dimmer feedback
            header and the result reports it (Dimmer); when False,
            packets are plain LWB packets.
        destinations:
            When given, reliability is only accounted at these nodes
            (the D-Cube data-collection scenario has a single sink);
            ``None`` means broadcast semantics (every node is a
            destination of every packet).
        """
        if not (
            isinstance(nodes, NodeStateArray)
            and nodes.node_ids == self._flood.node_ids
        ):
            raise ValueError(
                "run_round needs a NodeStateArray whose node_ids equal the "
                "topology order"
            )
        interference = interference if interference is not None else NoInterference()
        coordinator = self.topology.coordinator
        index = self.link_model.node_index
        node_ids = nodes.node_ids
        n = len(node_ids)

        # --- Control slot: flood the schedule from the coordinator. -----
        control_channel = self.hopper.control_channel()
        control_packet = schedule.to_packet(coordinator)
        (control_flood,) = yield FloodRequest(
            flood=self._flood,
            initiators=[coordinator],
            n_tx=max(schedule.n_tx, 1),
            packet_bytes=control_packet.total_bytes,
            channels=[control_channel],
            start_times=[self._slot_start_ms(start_ms, 0)],
            interference=interference,
            participants=None,
            max_slot_ms=self.slot_ms,
        )
        synchronized = control_flood.received_array.copy()
        radio_on = control_flood.radio_on_array.copy()
        synchronized[index[coordinator]] = True

        # Synchronized nodes apply the new retransmission parameter
        # immediately after the control slot; roles and n_tx stay
        # constant for the rest of the round.
        nodes.synchronized[:] = synchronized
        nodes.apply_n_tx_where(synchronized, schedule.n_tx)
        effective_n_tx = nodes.effective_n_tx()

        packets_expected = np.zeros(n, dtype=np.int64)
        packets_received = np.zeros(n, dtype=np.int64)
        if destinations is not None:
            destination_mask = np.zeros(n, dtype=bool)
            for node in destinations:
                destination_mask[index[node]] = True
        else:
            destination_mask = np.ones(n, dtype=bool)

        # --- Data slots. -------------------------------------------------
        # The synchronized set is fixed for the rest of the round, so the
        # executed (synced-source) floods are known upfront and run as
        # one batched phase loop; empty slots (source missed the
        # schedule) only contribute accounting.
        slot_channels = [self.hopper.data_channel(i) for i in range(len(schedule.slots))]
        executed = [
            (slot_index, source)
            for slot_index, source in enumerate(schedule.slots)
            if synchronized[index[source]]
        ]
        floods = yield FloodRequest(
            flood=self._flood,
            initiators=[source for _, source in executed],
            n_tx=effective_n_tx,
            packet_bytes=DataPacket(source=coordinator).total_bytes,
            channels=[slot_channels[slot_index] for slot_index, _ in executed],
            start_times=[
                self._slot_start_ms(start_ms, slot_index + 1) for slot_index, _ in executed
            ],
            interference=interference,
            participants=synchronized,
            max_slot_ms=self.slot_ms,
        )
        flood_by_slot = {slot_index: flood for (slot_index, _), flood in zip(executed, floods)}

        # Whole-round reliability accounting in a handful of integer
        # vector operations (integer adds commute, so batching across
        # slots is exact):  every slot expects one packet at every
        # destination except its own source; receptions count wherever a
        # synchronized destination decoded a slot's packet.
        num_data_slots = len(schedule.slots)
        source_rows_all = np.fromiter(
            (index[source] for source in schedule.slots), dtype=np.int64, count=num_data_slots
        )
        packets_expected += num_data_slots * destination_mask
        np.subtract.at(
            packets_expected,
            source_rows_all[destination_mask[source_rows_all]],
            1,
        )
        sync_rows = np.flatnonzero(synchronized)
        if executed:
            received = np.stack([flood.received_array for flood in floods])
            # Per-slot radio-on, scattered into full-network rows in one
            # batched assignment (unsynchronized nodes listen the whole
            # slot); the += below still walks the rows in slot order so
            # the float accumulation stays bit-identical.
            radio_table = np.full((len(executed), n), self.slot_ms)
            radio_table[:, sync_rows] = np.stack([flood.radio_on_array for flood in floods])
            packets_received[sync_rows] += (received & destination_mask[sync_rows]).sum(axis=0)
            executed_rows = np.fromiter(
                (index[source] for _, source in executed), dtype=np.int64, count=len(executed)
            )
            # Sources always decode their own slot; remove their
            # self-counts (a source is not a destination of its slot).
            np.subtract.at(
                packets_received,
                executed_rows[destination_mask[executed_rows]],
                1,
            )

        # Every executed slot's feedback header, from the statistics the
        # previous round left (they change only at the end of a round),
        # one array read per field; slots without a header stay NaN.
        header_radio_on = np.full(num_data_slots, np.nan)
        header_reliability = np.full(num_data_slots, np.nan)
        if collect_feedback and executed:
            executed_slots = [slot_index for slot_index, _ in executed]
            radio_values, reliability_values = nodes.feedback_arrays(executed_rows)
            header_radio_on[executed_slots] = radio_values
            header_reliability[executed_slots] = reliability_values

        slot_floods: List[FloodResult] = []
        executed_index = 0
        for slot_index, source in enumerate(schedule.slots):
            flood = flood_by_slot.get(slot_index)
            if flood is None:
                # The source missed the schedule: the slot stays empty.
                # Synchronized nodes still listen for the announced packet
                # and unsynchronized ones listen trying to re-sync.
                radio_on += self.slot_ms
                flood = FloodResult.empty(
                    initiator=source,
                    node_ids=node_ids,
                    slot_duration_ms=self.slot_ms,
                    channel=slot_channels[slot_index],
                    radio_on_ms=self.slot_ms,
                )
            else:
                radio_on += radio_table[executed_index]
                executed_index += 1
            slot_floods.append(flood)

        # Update the per-node statistics used for the feedback headers of
        # the *next* round in one batched counter update.
        num_slots = len(schedule.slots) + 1
        nodes.record_round_statistics(
            packets_expected, packets_received, radio_on / num_slots
        )

        self.hopper.advance_round(len(schedule.slots))

        return RoundResult(
            round_index=schedule.round_index,
            schedule=schedule,
            start_ms=start_ms,
            control_flood=control_flood,
            slot_floods=slot_floods,
            header_radio_on_array=header_radio_on,
            header_reliability_array=header_reliability,
            node_ids=node_ids,
            synchronized_array=synchronized,
            radio_on_array=radio_on,
            packets_expected_array=packets_expected,
            packets_received_array=packets_received,
        )
