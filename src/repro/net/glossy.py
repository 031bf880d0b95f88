"""Glossy synchronous-transmission floods.

Glossy floods a packet through the whole network within a single slot:
the initiator transmits, every node that receives the packet
retransmits it in the immediately following transmission phase, and
nodes alternate between reception and transmission until they have
transmitted the packet ``N_TX`` times.  Because all retransmitters send
bit-identical packets within sub-microsecond synchronization, concurrent
transmissions interfere constructively (capture effect) and the flood
propagates one hop per phase.

This module simulates a flood at phase granularity: a phase is one
packet airtime plus the RX/TX turnaround.  The simulation produces, for
every participating node, whether it received the packet, in which
phase, how many times it transmitted, and how long its radio stayed on
— exactly the observables Dimmer's feedback loop is built on.  A
:class:`FloodResult` carries them as NumPy vectors aligned with its
``node_ids``; there are no per-node dicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.net.interference import InterferenceSource, NoInterference
from repro.net.link import LinkModel
from repro.net.packet import DEFAULT_PACKET_BYTES
from repro.net.radio import RadioModel
from repro.net.topology import Topology


class FloodResult:
    """Outcome of one Glossy flood (one slot).

    Per-node observables are NumPy vectors aligned with :attr:`node_ids`,
    which is what lets a full LWB round aggregate flood outcomes without
    per-node Python loops.  Both engines return this one representation;
    the scalar engine lists :attr:`node_ids` in participant (draw) order,
    the vectorized engine in topology index order.

    Attributes
    ----------
    initiator:
        Node that originated the flood.
    node_ids:
        Participating nodes, in array index order.
    received_array:
        Per-node flag: did the node decode the packet at least once?
    reception_phase_array:
        Phase index of each node's first successful reception (``-1`` =
        never received).
    transmissions_array:
        Number of times each node transmitted the packet.
    radio_on_array:
        Radio-on time of each node during the slot.
    slot_duration_ms:
        Slot length the flood was executed in.
    channel:
        Channel the flood was executed on.
    """

    __slots__ = (
        "initiator",
        "node_ids",
        "received_array",
        "reception_phase_array",
        "transmissions_array",
        "radio_on_array",
        "slot_duration_ms",
        "channel",
    )

    def __init__(
        self,
        initiator: int,
        node_ids: Sequence[int],
        received_array: np.ndarray,
        reception_phase_array: np.ndarray,
        transmissions_array: np.ndarray,
        radio_on_array: np.ndarray,
        slot_duration_ms: float,
        channel: int,
    ) -> None:
        self.initiator = initiator
        self.node_ids = tuple(node_ids)
        self.received_array = received_array
        self.reception_phase_array = reception_phase_array
        self.transmissions_array = transmissions_array
        self.radio_on_array = radio_on_array
        self.slot_duration_ms = slot_duration_ms
        self.channel = channel

    def received_at(self, node: int) -> bool:
        """Whether ``node`` decoded the packet (absent nodes did not)."""
        try:
            index = self.node_ids.index(node)
        except ValueError:
            return False
        return bool(self.received_array[index])

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def reliability(self) -> float:
        """Fraction of non-initiator participants that received the packet."""
        arr = self.received_array
        try:
            initiator_pos = self.node_ids.index(self.initiator)
        except ValueError:
            # The initiator is not among the participants (an empty slot
            # whose source missed the schedule): every node counts as a
            # destination.
            if arr.shape[0] == 0:
                return 1.0
            return int(arr.sum()) / arr.shape[0]
        if arr.shape[0] <= 1:
            return 1.0
        initiator_ok = bool(arr[initiator_pos])
        return (int(arr.sum()) - initiator_ok) / (arr.shape[0] - 1)

    @property
    def average_radio_on_ms(self) -> float:
        """Radio-on time averaged over every participant."""
        if self.radio_on_array.shape[0] == 0:
            return 0.0
        return float(self.radio_on_array.mean())

    def receivers(self) -> List[int]:
        """Sorted list of nodes that successfully received the packet."""
        return sorted(np.asarray(self.node_ids)[self.received_array].tolist())

    def non_receivers(self) -> List[int]:
        """Sorted list of nodes that never received the packet."""
        return sorted(np.asarray(self.node_ids)[~self.received_array].tolist())

    @classmethod
    def empty(
        cls,
        initiator: int,
        node_ids: Sequence[int],
        slot_duration_ms: float,
        channel: int,
        radio_on_ms: float = 0.0,
    ) -> "FloodResult":
        """A flood in which nothing was received or transmitted.

        Used for slots whose source missed the schedule: every listed
        node idles for ``radio_on_ms`` and nobody decodes anything.
        """
        n = len(node_ids)
        return cls(
            initiator=initiator,
            node_ids=node_ids,
            received_array=np.zeros(n, dtype=bool),
            reception_phase_array=np.full(n, -1, dtype=np.int64),
            transmissions_array=np.zeros(n, dtype=np.int64),
            radio_on_array=np.full(n, float(radio_on_ms)),
            slot_duration_ms=slot_duration_ms,
            channel=channel,
        )


#: Flood engine implementations selectable via ``SimulatorConfig.engine``.
FLOOD_ENGINES = ("scalar", "vectorized")

#: Element budget of one gathered transmitter-row chunk in the batched
#: kernel (float64 count, ~2 MB): keeps the gather and its product
#: inside the cache and the reusable workspace small, without changing
#: results (chunking splits the flood axis, never a flood's factors).
KERNEL_CHUNK_ELEMENTS = 262_144

#: ``episode_of`` of a lone flood run on its own engine (read-only).
_ONE_EPISODE = np.zeros(1, dtype=np.int64)
_ONE_EPISODE.setflags(write=False)

#: Minimum (floods x undecided listeners) row size, in float64
#: elements, for the streaming-accumulator variant of the exact kernel;
#: smaller rows are dispatch-bound and take the chunked gather+reduce.
KERNEL_STREAM_MIN_ROW = 3_072


def _finish_pending_transmissions(
    next_tx: np.ndarray,
    transmissions: np.ndarray,
    n_tx_vec: np.ndarray,
    off_after: np.ndarray,
    on_air: np.ndarray,
    num_phases: int,
    flood_mask: Optional[np.ndarray] = None,
) -> None:
    """Replay the deterministic tail of fully-decoded floods in closed form.

    Once every on-air node of a flood has decoded, no future draw can
    change any state: receptions are no-ops (``received`` is full) and
    re-arming requires an unarmed node, but every on-air node with
    budget left is armed.  Pending transmitters therefore just
    alternate — transmit at ``next_tx``, then every second phase —
    until their budget is spent (radio off right after the last
    transmission) or the slot ends (radio stays on).  Applying that
    schedule directly is bit-identical to iterating the leftover
    phases.  Armed nodes always satisfy ``transmissions < n_tx_vec``
    (spending the budget disarms and switches off in the same phase),
    so the remaining budget below is at least 1.

    ``flood_mask`` restricts the replay to the flagged rows of the
    ``(K, N)`` state arrays, so individual floods retire from the batch
    as soon as they decode while undecided floods keep iterating (their
    draws were generated up front, so their streams are unaffected).
    """
    pending = next_tx >= 0
    if flood_mask is not None:
        pending &= flood_mask[:, None]
    if not pending.any():
        return
    first = next_tx[pending]
    remaining = (n_tx_vec - transmissions)[pending]
    fits = np.maximum(0, (num_phases - first + 1) // 2)
    executed = np.minimum(remaining, fits)
    transmissions[pending] += executed
    finished = executed == remaining
    last_phase = first + 2 * (remaining - 1)
    off_after[pending] = np.where(finished, last_phase + 1, np.int64(-1))
    next_tx[pending] = -1
    # Every on-air node of a decided flood is armed (and therefore
    # pending), so this leaves the flood entirely off air — the later
    # phases' ``done`` bookkeeping must not touch its replayed
    # ``off_after`` values.
    on_air &= ~pending


class GlossyFlood:
    """Phase-level simulator of a single Glossy flood.

    Parameters
    ----------
    topology:
        Deployment the flood runs over.
    link_model:
        Link-quality model used for per-phase reception draws.
    radio:
        Radio timing/energy model (phase duration, maximum slot length).
    rng:
        Random generator used for reception draws; pass a seeded
        generator for reproducible floods.
    engine:
        ``"scalar"`` advances each phase with NumPy state vectors but
        draws like the per-node reference loop of
        ``tests/reference_flood.py`` — one draw per listener with a
        non-zero reception probability, in participant order — so its
        results equal that loop's bit for bit; ``"vectorized"`` draws
        one block per flood up front (statistically equivalent to the
        scalar engine, and :meth:`run_batch` advances whole rounds of
        floods together).
    """

    def __init__(
        self,
        topology: Topology,
        link_model: Optional[LinkModel] = None,
        radio: Optional[RadioModel] = None,
        rng: Optional[np.random.Generator] = None,
        engine: str = "scalar",
    ) -> None:
        self.topology = topology
        self.link_model = link_model if link_model is not None else LinkModel(topology)
        self.radio = radio if radio is not None else RadioModel()
        self.rng = rng if rng is not None else np.random.default_rng()
        self.engine = engine  # validated by the property setter
        #: Failure matrix with an all-ones padding row, cached for the
        #: batched kernel (see :meth:`_failure_padded`).
        self._failure_padded_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: Reusable kernel workspaces (fresh per-phase temporaries cost
        #: more in page faults than the arithmetic they carry).
        self._workspaces: Dict[str, np.ndarray] = {}
        #: Node ids in ``LinkModel.prr_matrix`` index order.
        self.node_ids: Tuple[int, ...] = tuple(topology.node_ids)
        self._ids_arr = np.array(self.node_ids, dtype=np.int64)
        self._n = len(self.node_ids)
        self._node_rows = np.arange(self._n)
        #: Node coordinates in matrix index order, used for batched
        #: interference-penalty evaluation.
        self._coords = np.array(
            [topology.positions[node] for node in self.node_ids], dtype=float
        )

    @property
    def engine(self) -> str:
        """Flood engine implementation (see :data:`FLOOD_ENGINES`).

        Assignment is validated so a misspelled engine can never
        silently select the default vectorized path.
        """
        return self._engine

    @engine.setter
    def engine(self, value: str) -> None:
        if value not in FLOOD_ENGINES:
            raise ValueError(f"engine must be one of {FLOOD_ENGINES}, got {value!r}")
        self._engine = value

    def _n_tx_vector(
        self,
        n_tx: Union[int, Mapping[int, int], np.ndarray],
        part_mask: Optional[np.ndarray],
        part_list: Optional[List[int]],
    ) -> np.ndarray:
        """Expand N_TX into a per-node vector in matrix index order.

        Non-participant entries are zeroed; they are never consumed by
        the engine, but zeroing keeps the vector meaning unambiguous.
        """
        index = self.link_model.node_index
        if isinstance(n_tx, (int, np.integer)):
            if n_tx < 0:
                raise ValueError("n_tx must be non-negative")
            if part_mask is None:
                return np.full(self._n, int(n_tx), dtype=np.int64)
            return np.where(part_mask, np.int64(n_tx), np.int64(0))
        if isinstance(n_tx, np.ndarray):
            vec = np.asarray(n_tx, dtype=np.int64)
            if vec.shape != (self._n,):
                raise ValueError("per-node n_tx vector must have one entry per node")
            if (vec < 0).any():
                raise ValueError("n_tx must be non-negative")
            if part_mask is None:
                return vec.copy()
            return np.where(part_mask, vec, np.int64(0))
        vec = np.zeros(self._n, dtype=np.int64)
        if part_list is None:
            part_list = self._participant_ids(part_mask)
        for node in part_list:
            value = n_tx.get(node, 0)
            if value < 0:
                raise ValueError("n_tx must be non-negative")
            vec[index[node]] = value
        return vec

    def run(
        self,
        initiator: int,
        n_tx: Union[int, Mapping[int, int], np.ndarray] = 3,
        packet_bytes: int = DEFAULT_PACKET_BYTES,
        channel: int = 26,
        start_ms: float = 0.0,
        interference: Optional[InterferenceSource] = None,
        participants: Optional[Union[Sequence[int], np.ndarray]] = None,
        max_slot_ms: Optional[float] = None,
    ) -> FloodResult:
        """Simulate one Glossy flood and return its outcome.

        Under the ``"vectorized"`` engine the flood is the one-flood
        case of the batched phase loop (:meth:`_run_vectorized_batch`).

        Parameters
        ----------
        initiator:
            The node that starts the flood (owns the data slot).
        n_tx:
            A single retransmission count applied to every node, a
            per-node mapping (the forwarder-selection case, where
            passive receivers use 0), or a per-node int vector in
            topology index order.  The initiator always transmits at
            least once, otherwise no flood would take place.
        packet_bytes:
            Total wire size of the flooded packet.
        channel:
            IEEE 802.15.4 channel of the slot.
        start_ms:
            Slot start on the global clock; used to align interference
            bursts with the flood's phases.
        interference:
            Interference source (defaults to none).
        participants:
            Nodes taking part in the slot: a sequence of node ids or a
            boolean mask in topology index order (defaults to every
            node); non-participants keep their radio off and cannot
            receive.
        max_slot_ms:
            Slot length; the flood is truncated when it runs out of slot.
        """
        init_rows, part_rows, part_list, n_tx_rows = self._normalize(
            [initiator], n_tx, participants
        )
        timing = self._slot_timing(packet_bytes, max_slot_ms)
        interference = interference if interference is not None else NoInterference()
        if self.engine == "scalar":
            if part_list is None:
                part_list = self._participant_ids(part_rows)
            return self._run_scalar(
                initiator, part_rows, part_list, n_tx_rows, channel, start_ms, interference,
                *timing,
            )
        return self._run_vectorized_batch(
            [initiator], init_rows, [self], _ONE_EPISODE, part_rows, n_tx_rows,
            [channel], [start_ms], [interference], *timing,
        )[0]

    def _participant_ids(self, part_mask: Optional[np.ndarray]) -> List[int]:
        """Participant ids in index order (every node when ``part_mask`` is None)."""
        return list(self.node_ids) if part_mask is None else self._ids_arr[part_mask].tolist()

    def _normalize(
        self,
        initiators: Sequence[int],
        n_tx: Union[int, Mapping[int, int], np.ndarray],
        participants: Optional[Union[Sequence[int], np.ndarray]],
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[List[int]], np.ndarray]:
        """Validate and normalize the flood arguments of every entry point.

        :meth:`run`, :meth:`run_batch` and :func:`run_flood_requests`
        all pass through here.  ``participants`` and ``n_tx`` take any
        form :meth:`run` accepts, shared by the ``K`` floods, or one row
        per flood as a ``(K, N)`` array in topology index order.
        Returns ``(init_rows, part_rows, part_list, n_tx_rows)``: the
        initiators' matrix rows; the participation mask, ``None`` when
        every node takes part (the fast path); the participant ids when
        ids were given (their order is the scalar engine's draw order);
        and the N_TX budgets (the engines raise each initiator's entry
        to at least 1).  A shared mask or budget is one ``(N,)`` row.
        Every initiator must be a participant of its flood.
        """
        count, n_all = len(initiators), self._n
        index = self.link_model.node_index
        part_mask: Optional[np.ndarray] = None  # shared by every flood
        part_list: Optional[List[int]] = None
        if isinstance(participants, np.ndarray) and participants.ndim == 2:
            if participants.shape != (count, n_all):
                raise ValueError("participant rows must be a (floods, nodes) array")
            part_rows: Optional[np.ndarray] = participants.astype(bool, copy=False)
        else:
            if isinstance(participants, np.ndarray) and participants.dtype == np.bool_:
                if participants.shape != (n_all,):
                    raise ValueError("participant mask must have one entry per node")
                part_mask = participants
            elif participants is not None:
                part_list = list(participants)
                part_mask = np.zeros(n_all, dtype=bool)
                part_mask[[index[node] for node in part_list]] = True
            if part_mask is not None and bool(part_mask.all()):
                part_mask = None  # full participation: use the fast path
            part_rows = part_mask
        rows = [index.get(initiator, -1) for initiator in initiators]
        init_rows = np.array(rows, dtype=np.int64)
        if part_rows is not None and count:
            inside = (
                part_rows[init_rows]
                if part_mask is not None
                else part_rows[np.arange(count), init_rows]
            )
            rows = np.where(inside, init_rows, -1).tolist()
        if -1 in rows:
            raise ValueError(
                f"initiator {initiators[rows.index(-1)]} is not among the participants"
            )
        if isinstance(n_tx, np.ndarray) and n_tx.ndim == 2:
            if n_tx.shape != (count, n_all):
                raise ValueError("n_tx rows must be a (floods, nodes) array")
            if (n_tx < 0).any():
                raise ValueError("n_tx must be non-negative")
            return init_rows, part_rows, part_list, np.asarray(n_tx, dtype=np.int64)
        return init_rows, part_rows, part_list, self._n_tx_vector(n_tx, part_mask, part_list)

    def _slot_timing(
        self, packet_bytes: int, max_slot_ms: Optional[float]
    ) -> Tuple[float, float, int]:
        """``(slot_ms, phase_ms, num_phases)`` of a slot."""
        slot_ms = max_slot_ms if max_slot_ms is not None else self.radio.max_slot_ms
        phase_ms = self.radio.phase_duration_ms(packet_bytes)
        return slot_ms, phase_ms, max(1, int(math.floor(slot_ms / phase_ms)))

    def run_batch(
        self,
        initiators: Sequence[int],
        n_tx: Union[int, Mapping[int, int], np.ndarray],
        packet_bytes: int = DEFAULT_PACKET_BYTES,
        channels: Union[int, Sequence[int]] = 26,
        start_times: Union[float, Sequence[float]] = 0.0,
        interference: Optional[Union[InterferenceSource, Sequence[InterferenceSource]]] = None,
        participants: Optional[Union[Sequence[int], np.ndarray]] = None,
        max_slot_ms: Optional[float] = None,
        floods: Optional[Sequence["GlossyFlood"]] = None,
    ) -> List[FloodResult]:
        """Simulate several independent floods in one batched phase loop.

        Floods never interact — the data slots of one LWB round differ
        only in initiator, channel and start time, and the floods of
        lock-stepped simulators (``floods``) also in their generator,
        links, interference, participants and budgets — so the whole
        group can advance through the phase loop together with ``(K, N)``
        state arrays, amortizing the per-phase NumPy dispatch overhead
        across the batch.

        Under the ``"vectorized"`` engine every flood count, one
        included, runs through the same phase loop
        (:meth:`_run_vectorized_batch`), and the result list is
        **bit-for-bit identical** to ``K`` one-flood calls in order,
        each on its own :class:`GlossyFlood`: the random draws are
        generated flood by flood from each flood's own generator
        (preserving every stream), and every per-phase update applies
        the same arithmetic to the same values — including the batched
        reception kernel, whose masked products interleave only exact
        ``* 1.0`` factors with a lone flood's dense product, and the
        flood-level early exit, which replays the deterministic tail of
        fully-decoded floods in closed form.  The scalar engine loops
        each owner's :meth:`run` attribute.

        Parameters
        ----------
        initiators:
            Initiating node of each flood, in execution order.
        n_tx:
            Retransmission budget shared by all floods (any form
            :meth:`run` accepts), or one row per flood as a ``(K, N)``
            int array in topology index order; each flood's initiator
            transmits at least once.
        channels, start_times:
            Per-flood channel / slot start, or one value for all floods.
        interference:
            One source for all floods, or a list with one per flood.
        participants:
            Participants shared by all floods, in any form :meth:`run`
            accepts (defaults to every node), or one row per flood as a
            ``(K, N)`` boolean array.
        floods:
            The :class:`GlossyFlood` each flood belongs to (default:
            this one for all) — the flood engines of lock-stepped
            simulators over one topology and radio.  Each flood draws
            from its owner's generator and propagates over its owner's
            links.  Under both engines an owner with another node
            order, engine, radio or capture boost raises
            :class:`ValueError`.
        """
        count = len(initiators)
        channel_list = (
            [int(channels)] * count
            if isinstance(channels, (int, np.integer))
            else [int(c) for c in channels]
        )
        start_list = (
            [float(start_times)] * count
            if isinstance(start_times, (int, float, np.integer, np.floating))
            else [float(t) for t in start_times]
        )
        owners = [self] * count if floods is None else list(floods)
        sources = (
            list(interference)
            if isinstance(interference, (list, tuple))
            else [interference] * count
        )
        if len(channel_list) != count or len(start_list) != count:
            raise ValueError("channels and start_times must match initiators")
        if len(owners) != count or len(sources) != count:
            raise ValueError("floods and interference lists must match initiators")

        # Episodes: the distinct owners, in order of first appearance.
        episodes: List[GlossyFlood] = []
        episode_of = np.zeros(count, dtype=np.int64)
        seen: Dict[int, int] = {}
        for k, owner in enumerate(owners):
            episode = seen.get(id(owner))
            if episode is None:
                if owner is not self and (
                    owner.node_ids != self.node_ids
                    or owner.engine != self.engine
                    or owner.radio != self.radio
                    or owner.link_model.capture_boost != self.link_model.capture_boost
                ):
                    raise ValueError(
                        "batched floods need one topology order, engine, radio "
                        "and capture boost"
                    )
                episode = seen[id(owner)] = len(episodes)
                episodes.append(owner)
            episode_of[k] = episode

        if self.engine == "scalar":
            # Each owner's ``run`` attribute, looked up per flood: a
            # caller that shadows it on an instance (the flood-speed
            # benchmark's per-node oracle) sees every flood.
            per_flood_n_tx = isinstance(n_tx, np.ndarray) and n_tx.ndim == 2
            per_flood_part = isinstance(participants, np.ndarray) and participants.ndim == 2
            return [
                owners[k].run(
                    initiator=initiator,
                    n_tx=n_tx[k] if per_flood_n_tx else n_tx,
                    packet_bytes=packet_bytes,
                    channel=channel_list[k],
                    start_ms=start_list[k],
                    interference=sources[k],
                    participants=participants[k] if per_flood_part else participants,
                    max_slot_ms=max_slot_ms,
                )
                for k, initiator in enumerate(initiators)
            ]
        if not count:
            return []

        init_rows, part_rows, _, n_tx_rows = self._normalize(initiators, n_tx, participants)
        return self._run_vectorized_batch(
            list(initiators), init_rows, episodes, episode_of, part_rows, n_tx_rows,
            channel_list, start_list, [s if s is not None else NoInterference() for s in sources],
            *self._slot_timing(packet_bytes, max_slot_ms),
        )

    def _run_scalar(
        self,
        initiator: int,
        part_mask: Optional[np.ndarray],
        participants: List[int],
        n_tx_vec: np.ndarray,
        channel: int,
        start_ms: float,
        interference: InterferenceSource,
        slot_ms: float,
        phase_ms: float,
        num_phases: int,
    ) -> FloodResult:
        """The scalar engine: the NumPy phase loop with the per-node draw order.

        The phase logic is that of :meth:`_run_vectorized_batch` on
        per-node vectors; the draw order is the per-node reference
        loop's (``tests/reference_flood.py``): one draw per listener with a
        non-zero reception probability, in ``participants`` order,
        taken as one ``rng.random(k)`` call per phase (equal to ``k``
        sequential ``rng.random()`` calls); multi-transmitter failure
        products multiply in participant order, and single-transmitter
        probabilities are ``1 - (1 - prr)``, the per-node loop's
        one-factor product.  The result lists the participants in
        participant order, so it equals the per-node loop bit for bit,
        down to the generator state afterwards.
        """
        index = self.link_model.node_index
        n_all = self._n

        received = np.zeros(n_all, dtype=bool)
        reception_phase = np.full(n_all, -1, dtype=np.int64)
        transmissions = np.zeros(n_all, dtype=np.int64)
        next_tx = np.full(n_all, -1, dtype=np.int64)  # -1 = not scheduled
        off_after = np.full(n_all, -1, dtype=np.int64)  # -1 = radio still on

        # The initiator must transmit at least once for the flood to exist.
        init_idx = index[initiator]
        n_tx_vec[init_idx] = max(1, n_tx_vec[init_idx])
        received[init_idx] = True
        reception_phase[init_idx] = 0
        next_tx[init_idx] = 0

        self.link_model.prr_matrix()  # refreshes the cached failure matrix
        link_failure = self.link_model._failure_matrix
        draw_order = np.array([index[node] for node in participants], dtype=np.int64)
        # Index-ordered participants already list transmitters in
        # participant order; only a shuffled list needs reordering.
        tx_order = draw_order if (np.diff(draw_order) < 0).any() else None
        # The per-node loop computes 1 - (1 - prr), which need not
        # round back to prr.
        solo_success = 1.0 - link_failure
        boost_factor = 1.0 + self.link_model.capture_boost
        no_interference = isinstance(interference, NoInterference)
        if not no_interference:
            # Row ``p`` holds the penalties of phase ``p``.
            penalties = interference.penalty_windows(
                self._coords, start_ms + phase_ms * np.arange(num_phases), phase_ms, channel
            )
            penalized_phases = penalties.any(axis=1)
        # Participants whose radio is still on.
        on_air = np.ones(n_all, dtype=bool) if part_mask is None else part_mask.copy()
        for phase in range(num_phases):
            transmit = next_tx == phase
            tx_indices = transmit.nonzero()[0]
            num_tx = len(tx_indices)
            if not num_tx:
                continue
            if num_tx == 1:
                probabilities = solo_success[tx_indices[0]]
            else:
                # Values at transmitter indices get the boost even
                # where only one *other* node transmits, but are never
                # consumed: transmitters draw nothing below.
                if tx_order is not None:
                    tx_indices = tx_order[transmit[tx_order]]
                probabilities = 1.0 - link_failure[tx_indices].prod(axis=0)
                probabilities *= boost_factor
                np.minimum(probabilities, 1.0, out=probabilities)
            if not no_interference and penalized_phases[phase]:
                probabilities = probabilities * (1.0 - penalties[phase])
            # The per-node loop's draws: one per listener with a non-zero
            # probability, in participant order.
            listening = on_air ^ transmit
            listeners = draw_order[listening[draw_order]]
            listeners = listeners[probabilities[listeners] > 0.0]
            success = np.zeros(n_all, dtype=bool)
            if len(listeners):
                uniforms = self.rng.random(len(listeners))
                success[listeners] = uniforms < probabilities[listeners]
            newly = success & ~received
            received |= newly
            reception_phase[newly] = phase
            rearm = success & (transmissions < n_tx_vec) & (next_tx < 0)
            next_tx[rearm] = phase + 1

            transmissions[tx_indices] += 1
            budget_spent = transmissions >= n_tx_vec
            spent = transmit & budget_spent
            again = transmit ^ spent
            next_tx[again] = phase + 2
            next_tx[spent] = -1
            off_after[spent] = phase + 1
            on_air ^= spent

            done = on_air & received & budget_spent & (next_tx < 0)
            if done.any():
                off_after[done] = phase + 1
                on_air ^= done

            if not (next_tx >= 0).any():
                # A decoded flood's transmission tail still draws for its
                # listeners, so unlike the vectorized engine this loop
                # runs it out instead of replaying it in closed form.
                break

        on_phases = np.where(off_after < 0, num_phases, np.minimum(off_after, num_phases))
        radio_on = np.minimum(slot_ms, on_phases * phase_ms)
        # Participant order, like the per-node loop's result.
        return FloodResult(
            initiator=initiator,
            node_ids=participants,
            received_array=received[draw_order],
            reception_phase_array=reception_phase[draw_order],
            transmissions_array=transmissions[draw_order],
            radio_on_array=radio_on[draw_order],
            slot_duration_ms=slot_ms,
            channel=channel,
        )

    def _run_vectorized_batch(
        self,
        initiators: List[int],
        init_rows: np.ndarray,
        episodes: List["GlossyFlood"],
        episode_of: np.ndarray,
        part_rows: Optional[np.ndarray],
        n_tx_rows: np.ndarray,
        channels: List[int],
        start_times: List[float],
        sources: List[InterferenceSource],
        slot_ms: float,
        phase_ms: float,
        num_phases: int,
    ) -> List[FloodResult]:
        """The vectorized engine: ``K >= 1`` independent floods, one phase loop.

        State lives in ``(K, N)`` arrays, one row per flood, in
        :meth:`~repro.net.link.LinkModel.prr_matrix` index order; the
        phase logic is the per-node reference loop's
        (``tests/reference_flood.py``), but each flood draws one
        ``(num_phases, N)`` block up front, so results equal the scalar
        engine's statistically, not bit for bit, and list the
        participants in index order.  Floods without a transmitter get
        an all-zero probability row, which makes every update a no-op
        for them, so a batch equals its floods run one by one bit for
        bit.  ``episode_of`` maps each flood to its owner in
        ``episodes``: the flood draws from its owner's generator and
        propagates over its owner's links and coordinates.
        """
        n_all = self._n
        count = len(initiators)

        # Each initiator has received its packet and transmits in phase
        # 0, at least once.
        received = self._node_rows == init_rows[:, None]
        n_tx_vec = np.maximum(n_tx_rows, received)  # a fresh (K, N) int64 array
        reception_phase = np.full((count, n_all), -1, dtype=np.int64)
        reception_phase[received] = 0
        next_tx = reception_phase.copy()  # -1 = not scheduled
        transmissions = np.zeros((count, n_all), dtype=np.int64)
        off_after = np.full((count, n_all), -1, dtype=np.int64)  # -1 = radio still on

        # One batched draw per flood, in flood order, from the flood's
        # own generator: every episode's stream is consumed exactly as
        # by its floods run one by one.  Each flood fills its own row in
        # place, so no per-flood copies exist next to the table.
        draws = np.empty((count, num_phases, n_all))  # (K, num_phases, N)
        episode_list = episode_of.tolist()
        for k, e in enumerate(episode_list):
            episodes[e].rng.random(out=draws[k])
        prrs = [episode.link_model.prr_matrix() for episode in episodes]
        failures = [episode.link_model._failure_matrix for episode in episodes]
        # The kernel offsets each flood's rows by its episode (row e * N + i).
        stacked = (
            (prrs[0], failures[0])
            if len(episodes) == 1
            else (np.concatenate(prrs), np.concatenate(failures))
        )
        boost_factor = 1.0 + self.link_model.capture_boost
        timelines = self._penalty_timelines(
            episodes, episode_of, sources, start_times, channels, phase_ms, num_phases
        )
        if timelines is None:
            penalized = [False] * num_phases
            survival = None
        else:
            # Phases without a burst on any flood would multiply by
            # exactly 1.0: find them once and skip them.
            penalized = timelines.any(axis=(1, 2)).tolist()
            # (num_phases, K, N), in place unless the table is a lone
            # flood's view of its source's own array.
            survival = np.subtract(1.0, timelines, out=timelines if count > 1 else None)
        del timelines

        on_air = np.ones((count, n_all), dtype=bool)
        if part_rows is not None:
            on_air &= part_rows
        grid = np.zeros((count, n_all)) if count > 1 else None
        live_floods = count
        for phase in range(num_phases):
            # An armed node is always still on air (arming requires the
            # radio on, and armed nodes neither spend out nor finish
            # before their transmission), so the schedule alone decides.
            transmit = next_tx == phase
            tx_flat = transmit.ravel().nonzero()[0]  # flood-major
            if not len(tx_flat):
                # No flood transmits: no state can change this phase.
                continue
            k = int(tx_flat[0]) // n_all
            if count == 1 or tx_flat[-1] < (k + 1) * n_all:
                # One flood transmits: its row, dense over every receiver
                # (a success at a decided node changes no state, since a
                # received on-air node is armed).  The reception fails
                # only if every non-self link fails, with the capture
                # boost rewarding >1 synchronized senders.
                e = episode_list[k]
                if len(tx_flat) == 1:
                    row = prrs[e][tx_flat[0] - k * n_all]
                else:
                    tx_nodes = tx_flat - k * n_all if k else tx_flat
                    row = 1.0 - failures[e][tx_nodes].prod(axis=0)
                    row *= boost_factor
                    np.minimum(row, 1.0, out=row)
                if count == 1:
                    # (1, N), like every operand below: a broadcast
                    # comparison costs more than the view.
                    probabilities = row[None]
                else:
                    grid.fill(0.0)
                    grid[k] = row
                    probabilities = grid
            else:
                # One kernel call covers the whole phase's (flood,
                # receiver) grid, restricted to the undecided listeners
                # of the floods that still have some — the only
                # receivers whose draws can still change state.
                # Inactive rows and decided columns stay zero.
                tx_counts = np.bincount(tx_flat // n_all, minlength=count)
                active = np.flatnonzero(tx_counts)
                undecided = on_air > received
                active = active[undecided[active].any(axis=1)]
                columns = np.flatnonzero(undecided[active].any(axis=0))
                grid.fill(0.0)
                if len(active) and len(columns):
                    self._phase_success_batched(
                        transmit, tx_counts, active, columns, *stacked, boost_factor, grid,
                        episode_of if len(episodes) > 1 else None,
                    )
                probabilities = grid
            if penalized[phase]:
                # Rows without a burst multiply by exactly 1.0 and zero
                # rows stay zero, so one multiply equals the per-flood
                # application.
                probabilities = probabilities * survival[phase]
            # Transmitters cannot listen (transmit is a subset of
            # on_air, so the XOR is exactly "on air and not sending");
            # a draw >= probability fails.
            success = (draws[:, phase] < probabilities) & (on_air ^ transmit)
            newly = success > received  # received now, not before
            received |= newly
            reception_phase[newly] = phase
            # Glossy re-synchronizes on every reception: (re-)arm the
            # next transmission if the node has transmissions left.
            rearm = success & (transmissions < n_tx_vec) & (next_tx < 0)
            next_tx[rearm] = phase + 1

            transmissions += transmit
            budget_spent = transmissions >= n_tx_vec
            spent = transmit & budget_spent
            again = transmit ^ spent  # spent is a subset of transmit
            next_tx[again] = phase + 2  # listen next phase, send after
            next_tx[spent] = -1
            off_after[spent] = phase + 1
            on_air ^= spent  # spent is a subset of on_air

            # Receivers with nothing left to send switch off: passive
            # receivers (N_TX = 0 means their budget is spent from the
            # start) right after their first reception, forwarders once
            # their budget is spent and no transmission is armed.
            done = on_air & received & budget_spent & (next_tx < 0)
            if np.count_nonzero(done):
                off_after[done] = phase + 1
                on_air ^= done  # done is a subset of on_air

            if not np.count_nonzero(next_tx >= 0):
                # No transmission is pending anywhere: no state can change
                # in later phases (nodes still listening stay on until the
                # end of the slot, which the radio-on accounting below
                # covers), so the phase loop can stop early.
                break
            # A flood whose on-air nodes have all decoded evolves
            # deterministically (armed transmitters just spend their
            # budget every second phase, and no draw can change any
            # state), so its leftover phases are replayed in closed form
            # and it retires.  Undecided nodes only ever decode or
            # switch off, so a drop in the count of floods that still
            # have some is exactly the floods that just decided (a lone
            # flood counts its undecided nodes instead: zero exactly
            # when it decided).  The draws were taken up front, so every
            # stream is unchanged.
            undecided = on_air > received
            now_live = np.count_nonzero(
                undecided if count == 1 else np.logical_or.reduce(undecided, axis=1)
            )
            if now_live < live_floods:
                live_floods = now_live
                _finish_pending_transmissions(
                    next_tx, transmissions, n_tx_vec, off_after, on_air, num_phases,
                    flood_mask=~np.logical_or.reduce(undecided, axis=1),
                )
                if not now_live or not np.count_nonzero(next_tx >= 0):
                    break

        # The (K, num_phases, N) tables are done with: free them before
        # the K results exist, which bounds the peak of a large batch.
        del draws, survival
        on_phases = np.where(off_after < 0, num_phases, np.minimum(off_after, num_phases))
        radio_on = np.minimum(slot_ms, on_phases * phase_ms)

        if part_rows is None:
            return [
                FloodResult(
                    initiator=initiator,
                    node_ids=self.node_ids,
                    received_array=received[k],
                    reception_phase_array=reception_phase[k],
                    transmissions_array=transmissions[k],
                    radio_on_array=radio_on[k],
                    slot_duration_ms=slot_ms,
                    channel=channels[k],
                )
                for k, initiator in enumerate(initiators)
            ]
        # Consecutive floods usually share their participant row (one
        # round's slots, or one episode's request): list its rows once.
        shared = part_rows.ndim == 1
        changed = np.zeros(count, dtype=bool)
        changed[0] = True
        if not shared:
            changed[1:] = (part_rows[1:] != part_rows[:-1]).any(axis=1)
        results: List[FloodResult] = []
        for k, initiator in enumerate(initiators):
            if changed[k]:
                rows = np.flatnonzero(part_rows if shared else part_rows[k])
                row_ids = self._ids_arr[rows].tolist()
            results.append(
                FloodResult(
                    initiator=initiator,
                    node_ids=row_ids,
                    received_array=received[k, rows],
                    reception_phase_array=reception_phase[k, rows],
                    transmissions_array=transmissions[k, rows],
                    radio_on_array=radio_on[k, rows],
                    slot_duration_ms=slot_ms,
                    channel=channels[k],
                )
            )
        return results

    @staticmethod
    def _penalty_timelines(
        episodes: List["GlossyFlood"],
        episode_of: np.ndarray,
        sources: List[InterferenceSource],
        start_times: List[float],
        channels: List[int],
        phase_ms: float,
        num_phases: int,
    ) -> Optional[np.ndarray]:
        """Per-phase interference penalties of every flood, ``(num_phases, K, N)``.

        ``None`` when no flood has interference.  Row ``[p, k]`` is the
        penalty of flood ``k``'s phase ``p`` from
        :meth:`~repro.net.interference.InterferenceSource.penalty_windows`
        at its owner's coordinates.  A lone flood makes one call and
        views it as ``(num_phases, 1, N)``.  Otherwise every source's
        windows are row-local (a row depends only on its own start,
        channel and the coordinates), so one call per distinct source
        covers the distinct (start, channel) windows of all floods it
        serves.  Lock-stepped episodes over one topology often carry
        equal sources (the same jammer setting in different protocols'
        runs) and share slot start times, so equal sources are evaluated
        once.
        """
        if len(sources) == 1:
            if isinstance(sources[0], NoInterference):
                return None
            return sources[0].penalty_windows(
                episodes[0]._coords,
                start_times[0] + phase_ms * np.arange(num_phases),
                phase_ms,
                channels[0],
            )[:, None, :]
        groups: List[Tuple[InterferenceSource, "GlossyFlood", List[int]]] = []
        group_of: Dict[Tuple[int, int], int] = {}
        for k, source in enumerate(sources):
            if isinstance(source, NoInterference):
                continue
            episode = int(episode_of[k])
            key = (id(source), episode)
            group = group_of.get(key)
            if group is None:
                owner = episodes[episode]
                group = next(
                    (
                        g
                        for g, (other, other_owner, _) in enumerate(groups)
                        if other_owner.topology is owner.topology and other == source
                    ),
                    len(groups),
                )
                if group == len(groups):
                    groups.append((source, owner, []))
                group_of[key] = group
            groups[group][2].append(k)
        if not groups:
            return None
        n_all = episodes[0]._n
        timelines = np.zeros((num_phases, len(sources), n_all))
        phase_offsets = phase_ms * np.arange(num_phases)
        for source, owner, members in groups:
            window_of: Dict[Tuple[float, int], int] = {}
            slots = [
                window_of.setdefault((start_times[k], channels[k]), len(window_of))
                for k in members
            ]
            window_starts = (
                np.array([start for start, _ in window_of])[:, None] + phase_offsets
            ).ravel()
            window_channels = np.repeat(
                np.array([channel for _, channel in window_of], dtype=np.int64), num_phases
            )
            windows = source.penalty_windows(
                owner._coords, window_starts, phase_ms, window_channels
            ).reshape(len(window_of), num_phases, n_all)
            timelines[:, members, :] = windows[slots].transpose(1, 0, 2)
        return timelines

    def _failure_padded(self, link_failure: np.ndarray) -> np.ndarray:
        """``link_failure`` with an all-ones padding row appended.

        The last row multiplies by exactly ``1.0``, which is what lets the
        batched kernel pad every flood's transmitter list to a shared
        length without changing any product.  Cached per failure matrix
        (link-quality mutations swap the matrix object, refreshing the
        cache).
        """
        cached = self._failure_padded_cache
        if cached is None or cached[0] is not link_failure:
            padded = np.concatenate(
                [link_failure, np.ones((1, link_failure.shape[1]))], axis=0
            )
            cached = (link_failure, padded)
            self._failure_padded_cache = cached
        return cached[1]

    def _workspace(self, name: str, size: int) -> np.ndarray:
        """A reusable float64 scratch vector of at least ``size`` elements.

        The batched kernel runs every phase with differently-shaped
        temporaries; allocating them fresh costs more in page faults
        than the arithmetic they carry, so each named workspace grows
        monotonically and is re-sliced per call.
        """
        buffer = self._workspaces.get(name)
        if buffer is None or buffer.size < size:
            buffer = np.empty(size)
            self._workspaces[name] = buffer
        return buffer[:size]

    def _phase_success_batched(
        self,
        transmit: np.ndarray,
        tx_counts: np.ndarray,
        active: np.ndarray,
        columns: np.ndarray,
        prr: np.ndarray,
        link_failure: np.ndarray,
        boost_factor: float,
        out: np.ndarray,
        episode_of: Optional[np.ndarray] = None,
    ) -> None:
        """Fill ``out[np.ix_(active, columns)]`` with reception probabilities.

        One kernel call evaluates a whole phase: ``active`` flags the
        floods with at least one transmitter and at least one undecided
        listener, ``columns`` the union of their undecided listeners
        (on air, not yet received — the only receivers whose draws can
        still change any state, so restricting the grid is
        bit-identical; every other entry of ``out`` must already be
        zero).

        The masked product
        ``np.prod(np.where(mask[:, :, None], failure[None], 1.0), axis=1)``
        is evaluated without materializing the ``(K, N, N)`` cube — every
        flood's transmitter rows are padded to a shared length with the
        all-ones row of :meth:`_failure_padded`, gathered
        transmitter-major into a reusable workspace, and reduced with
        one ``multiply.reduce`` per chunk.  Transmitter rows that are
        ``1.0`` at every undecided column are dropped up front (exact
        no-op factors), and the remaining factors multiply in the same
        order as a lone flood's dense ``failure[tx].prod(axis=0)`` in
        :meth:`_run_vectorized_batch`, with only exact ``* 1.0`` padding
        appended at segment tails, so results are bit-for-bit identical.  Chunking along the flood
        axis keeps each gather + product inside
        :data:`KERNEL_CHUNK_ELEMENTS` doubles (cache-resident).

        The capture boost applies only to floods with >= 2 transmitters;
        single-transmitter floods are served straight from the PRR
        matrix.

        ``prr`` and ``link_failure`` may stack several episodes' ``(N,
        N)`` matrices episode-major (row ``e * N + i`` is node ``i``'s
        row in episode ``e``'s link model); ``episode_of`` then maps
        each flood to its episode.  Offsetting the transmitter rows keeps
        each flood's factors, and their order, those of its own matrix.
        """
        n = self._n
        counts = tx_counts[active]
        multi = counts >= 2
        single = ~multi  # every active flood has >= 1 transmitter
        num_cols = len(columns)
        if single.any():
            solo_rows = active[single]
            # Exactly one transmitter per solo flood: its PRR row is
            # the success probability (no capture boost).
            solo_tx = transmit[solo_rows].argmax(axis=1)
            if episode_of is not None:
                solo_tx += episode_of[solo_rows] * n
            out[np.ix_(solo_rows, columns)] = prr[np.ix_(solo_tx, columns)]
        if not multi.any():
            return
        rows = active[multi]
        stacked = link_failure.shape[0]  # E * N rows; row E * N pads
        padded = self._failure_padded(link_failure)
        if num_cols < n:
            sliced = self._workspace("columns", (stacked + 1) * num_cols)
            sliced = sliced.reshape(stacked + 1, num_cols)
            np.take(padded, columns, axis=1, out=sliced)
            padded = sliced
        # Transmitters whose failure row is 1.0 at every undecided
        # column contribute exact no-op factors; drop their rows.  The
        # remaining factors keep their ascending order, so the running
        # products match the dense formulation value for value.
        relevant = (padded[:stacked] != 1.0).any(axis=1)
        if episode_of is None:
            tx_used = transmit[rows] & relevant
        else:
            tx_used = transmit[rows] & relevant.reshape(-1, n)[episode_of[rows]]
        counts_used = tx_used.sum(axis=1)
        t_max = max(1, int(counts_used.max()))
        num_multi = len(rows)
        # Padded transmitter-row indices, transmitter-major: the last row
        # is the all-ones row, and a flood with no relevant transmitter
        # keeps an all-padding column (product 1.0 -> probability 0).
        idx = np.full((t_max, num_multi), stacked, dtype=np.int64)
        valid = np.arange(t_max)[None, :] < counts_used[:, None]
        flood_positions, tx_rows = np.nonzero(tx_used)
        if episode_of is not None:
            tx_rows += episode_of[rows][flood_positions] * n
        idx.T[valid] = tx_rows
        if num_multi * num_cols >= KERNEL_STREAM_MIN_ROW:
            # Stream the factors through a cache-resident (A, U)
            # accumulator, one transmitter row set at a time — the same
            # sequential multiplications as the materialized reduce,
            # without writing the gathered factors anywhere.  Below the
            # row-size threshold the per-row dispatches dominate and
            # the chunked gather + reduce wins.
            block = self._workspace("product", num_multi * num_cols)
            block = block.reshape(num_multi, num_cols)
            row = self._workspace("gather", num_multi * num_cols)
            row = row.reshape(num_multi, num_cols)
            np.take(padded, idx[0], axis=0, out=block)
            for position in range(1, t_max):
                np.take(padded, idx[position], axis=0, out=row)
                np.multiply(block, row, out=block)
            np.subtract(1.0, block, out=block)
            block *= boost_factor
            np.minimum(block, 1.0, out=block)
            out[np.ix_(rows, columns)] = block
            return
        flood_budget = max(1, KERNEL_CHUNK_ELEMENTS // max(1, t_max * num_cols))
        for start in range(0, num_multi, flood_budget):
            stop = min(start + flood_budget, num_multi)
            width = (stop - start) * num_cols
            gathered = self._workspace("gather", t_max * width)
            gathered = gathered.reshape(t_max * (stop - start), num_cols)
            np.take(padded, idx[:, start:stop].reshape(-1), axis=0, out=gathered)
            block = self._workspace("product", width)
            np.multiply.reduce(gathered.reshape(t_max, width), axis=0, out=block)
            block = block.reshape(stop - start, num_cols)
            np.subtract(1.0, block, out=block)
            block *= boost_factor
            np.minimum(block, 1.0, out=block)
            out[np.ix_(rows[start:stop], columns)] = block


@dataclass(eq=False)
class FloodRequest:
    """The floods one round step asks its :class:`GlossyFlood` to run.

    Holds :meth:`GlossyFlood.run_batch`'s arguments for one episode's
    floods of one step (a round's control slot, or its data slots).  A
    round step yields the request instead of running it, so a driver can
    run it alone (:meth:`run`, see :func:`run_steps`) or together with
    the same step of other lock-stepped episodes
    (:func:`run_flood_requests`, see :func:`run_lockstep`); both give
    the same results bit for bit.
    """

    flood: GlossyFlood
    initiators: List[int]
    n_tx: Union[int, Mapping[int, int], np.ndarray]
    packet_bytes: int
    channels: List[int]
    start_times: List[float]
    interference: Optional[InterferenceSource] = None
    participants: Optional[Union[Sequence[int], np.ndarray]] = None
    max_slot_ms: Optional[float] = None

    def run(self) -> List[FloodResult]:
        """Execute the request on its own flood engine."""
        return self.flood.run_batch(
            initiators=self.initiators,
            n_tx=self.n_tx,
            packet_bytes=self.packet_bytes,
            channels=self.channels,
            start_times=self.start_times,
            interference=self.interference,
            participants=self.participants,
            max_slot_ms=self.max_slot_ms,
        )


def run_flood_requests(requests: Sequence[FloodRequest]) -> List[List[FloodResult]]:
    """Execute the requests of lock-stepped episodes, batching what fits.

    Vectorized requests that share a slot timing (packet size and slot
    length), a topology order and a radio run as one
    :meth:`GlossyFlood.run_batch` call on the first one's engine, each
    flood with its own episode's generator, links, interference,
    participants and N_TX row; the others run on their own.  Each
    request's results equal its own :meth:`FloodRequest.run` bit for
    bit, and every episode's generator advances exactly as it would
    alone.
    """
    results: List[Optional[List[FloodResult]]] = [None] * len(requests)
    groups: Dict[tuple, List[int]] = {}
    for position, request in enumerate(requests):
        flood = request.flood
        if flood.engine == "vectorized" and request.initiators:
            key = (request.packet_bytes, request.max_slot_ms, flood.node_ids, flood.radio)
            groups.setdefault(key, []).append(position)
        else:
            results[position] = request.run()
    for members in groups.values():
        if len(members) == 1:
            results[members[0]] = requests[members[0]].run()
            continue
        batch = [requests[position] for position in members]
        counts = [len(request.initiators) for request in batch]
        n_all = batch[0].flood._n

        def per_flood(row: np.ndarray, count: int) -> np.ndarray:
            """``(count, N)`` rows of a shared ``(N,)`` row or of per-flood rows."""
            return row.reshape(-1, n_all).repeat(count if row.ndim == 1 else 1, axis=0)

        part_rows, n_tx_rows = [], []
        for request, count in zip(batch, counts):
            _, rows, _, budgets = request.flood._normalize(
                request.initiators, request.n_tx, request.participants
            )
            part_rows.append(rows if rows is None else per_flood(rows, count))
            n_tx_rows.append(per_flood(budgets, count))
        participants = None
        if any(rows is not None for rows in part_rows):
            participants = np.concatenate([
                np.ones((count, n_all), dtype=bool) if rows is None else rows
                for rows, count in zip(part_rows, counts)
            ])
        floods = batch[0].flood.run_batch(
            initiators=[node for request in batch for node in request.initiators],
            n_tx=np.concatenate(n_tx_rows),
            packet_bytes=batch[0].packet_bytes,
            channels=[channel for request in batch for channel in request.channels],
            start_times=[start for request in batch for start in request.start_times],
            interference=[request.interference for request in batch for _ in request.initiators],
            participants=participants,
            max_slot_ms=batch[0].max_slot_ms,
            floods=[request.flood for request in batch for _ in request.initiators],
        )
        offset = 0
        for position, count in zip(members, counts):
            results[position] = floods[offset:offset + count]
            offset += count
    return results  # type: ignore[return-value]


#: A round step generator: yields :class:`FloodRequest` objects, is sent
#: each request's results, and returns its round's outcome.
RoundSteps = Generator[FloodRequest, List[FloodResult], Any]


def run_steps(steps: RoundSteps) -> Any:
    """Drive one episode's round steps: :func:`run_lockstep` of one."""
    return run_lockstep([steps])[0]


def run_lockstep(steps: Sequence[RoundSteps]) -> List[Any]:
    """Drive several episodes' round steps in lock-step.

    Every pass collects the pending request of each unfinished episode
    and executes them together with :func:`run_flood_requests` — one
    kernel call per step for episodes over one topology — then sends
    each episode its own results.  Returns each episode's outcome, equal
    to its outcome when driven alone (:func:`run_steps`).
    """
    outcomes: List[Any] = [None] * len(steps)
    pending: Dict[int, FloodRequest] = {}

    def advance(position: int, value: Optional[List[FloodResult]]) -> None:
        try:
            step = steps[position]
            pending[position] = next(step) if value is None else step.send(value)
        except StopIteration as stop:
            outcomes[position] = stop.value

    for position in range(len(steps)):
        advance(position, None)
    while pending:
        positions = list(pending)
        results = run_flood_requests([pending.pop(position) for position in positions])
        for position, result in zip(positions, results):
            advance(position, result)
    return outcomes
