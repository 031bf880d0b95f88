"""Per-node reference formulation of the flood layer.

``src/`` computes every flood-layer quantity one way: link qualities as
the ``(N, N)`` matrix of :meth:`~repro.net.link.LinkModel.prr_matrix`
and floods in the NumPy phase loop of
:class:`~repro.net.glossy.GlossyFlood`.  This module keeps the readable
per-node formulation those are checked against:

* :class:`PerPairPRR` — the interference-free PRR of one directed link
  at a time, computed from the link model's shadowing and overrides and
  memoized per pair (these lookups are the per-link cost the
  benchmark's ``"scalar"`` column times);
* :func:`run_reference` — one flood with per-node dict bookkeeping,
  drawing from ``flood.rng`` exactly as the ``"scalar"`` engine must:
  one draw per listener with a non-zero reception probability, in
  participant order; each listener's interference penalty is the
  scalar :func:`reference_interference.penalty`.

``tests/test_scalar_engine_parity.py`` pins the scalar engine to
:func:`run_reference` bit for bit, and the flood-speed benchmark times
it as its ``"scalar"`` column.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.net.glossy import FloodResult, GlossyFlood
from repro.net.interference import InterferenceSource, NoInterference
from repro.net.link import PRR_SNR_MIDPOINT_DB, PRR_SNR_SLOPE_PER_DB, LinkModel
from repro.net.packet import DEFAULT_PACKET_BYTES

from reference_interference import penalty as reference_penalty


@dataclass(frozen=True)
class PairQuality:
    """Static quality of a directed link: PRR in the absence of interference."""

    prr: float
    distance_m: float
    rssi_dbm: float


class PerPairPRR:
    """Per-link PRR of a :class:`LinkModel`, one directed pair at a time.

    The memo follows the model's own caches: :meth:`sync` starts a fresh
    memo whenever the model rebuilt its PRR matrix, which
    ``set_link_quality`` and ``invalidate_caches`` trigger.
    """

    def __init__(self, model: LinkModel) -> None:
        self.model = model
        self._memo: Dict[Tuple[int, int], PairQuality] = {}
        self._matrix: Optional[np.ndarray] = None

    def sync(self) -> None:
        """Drop the memo if the model's link qualities changed since the last call."""
        matrix = self.model.prr_matrix()
        if matrix is not self._matrix:
            self._memo.clear()
            self._matrix = matrix

    def rssi_dbm(self, sender: int, receiver: int) -> float:
        """Received signal strength of ``sender`` at ``receiver``."""
        model = self.model
        distance = max(model.topology.distance(sender, receiver), 0.5)
        path_loss = model.reference_loss_db + 10.0 * model.path_loss_exponent * math.log10(
            distance
        )
        index = model.node_index
        shadow = float(model._shadowing[index[sender], index[receiver]])
        return model.tx_power_dbm - path_loss + shadow

    @staticmethod
    def prr_from_snr(snr_db: float) -> float:
        """The logistic PRR curve of :data:`repro.net.link.PRR_SNR_MIDPOINT_DB`."""
        return 1.0 / (
            1.0 + math.exp(-(snr_db - PRR_SNR_MIDPOINT_DB) * PRR_SNR_SLOPE_PER_DB)
        )

    def link(self, sender: int, receiver: int) -> PairQuality:
        """Static quality of the directed link sender -> receiver, memoized."""
        key = (sender, receiver)
        if key in self._memo:
            return self._memo[key]
        model = self.model
        distance = model.topology.distance(sender, receiver)
        if key in model._overrides:
            quality = PairQuality(
                prr=model._overrides[key],
                distance_m=distance,
                rssi_dbm=self.rssi_dbm(sender, receiver),
            )
        elif distance > model.topology.comm_range_m:
            quality = PairQuality(prr=0.0, distance_m=distance, rssi_dbm=-float("inf"))
        else:
            rssi = self.rssi_dbm(sender, receiver)
            snr = rssi - model.noise_floor_dbm
            quality = PairQuality(prr=self.prr_from_snr(snr), distance_m=distance, rssi_dbm=rssi)
        self._memo[key] = quality
        return quality

    def prr(self, sender: int, receiver: int) -> float:
        """Packet reception rate of the directed link sender -> receiver."""
        return self.link(sender, receiver).prr

    def reception_probability(
        self,
        transmitters: Iterable[int],
        receiver: int,
        interference_penalty: float = 0.0,
    ) -> float:
        """Probability that ``receiver`` decodes a synchronized transmission.

        The reception fails only if every individual link fails; more
        than one transmitter earns the model's ``capture_boost``, and
        ``interference_penalty`` in [0, 1] scales the success down.
        """
        if not 0.0 <= interference_penalty <= 1.0:
            raise ValueError("interference_penalty must be in [0, 1]")
        prrs = [self.prr(tx, receiver) for tx in transmitters if tx != receiver]
        if not prrs:
            return 0.0
        failure = 1.0
        for prr in prrs:
            failure *= 1.0 - prr
        success = 1.0 - failure
        if len(prrs) > 1 and success > 0.0:
            success = min(1.0, success * (1.0 + self.model.capture_boost))
        return success * (1.0 - interference_penalty)


#: The :class:`PerPairPRR` of every flood :func:`run_reference` has run:
#: the memo lives as long as the flood, so later floods reuse it (the
#: cost the benchmark times), and dies with it.
_PER_PAIR: "weakref.WeakKeyDictionary[GlossyFlood, PerPairPRR]" = weakref.WeakKeyDictionary()


def _per_pair_prr(flood: GlossyFlood) -> PerPairPRR:
    links = _PER_PAIR.get(flood)
    if links is None or links.model is not flood.link_model:
        links = _PER_PAIR[flood] = PerPairPRR(flood.link_model)
    links.sync()
    return links


def run_reference(
    flood: GlossyFlood,
    initiator: int,
    n_tx: Union[int, Mapping[int, int], np.ndarray] = 3,
    packet_bytes: int = DEFAULT_PACKET_BYTES,
    channel: int = 26,
    start_ms: float = 0.0,
    interference: Optional[InterferenceSource] = None,
    participants: Optional[Union[Sequence[int], np.ndarray]] = None,
    max_slot_ms: Optional[float] = None,
) -> FloodResult:
    """``flood.run(...)`` on the per-node reference loop.

    Takes :meth:`GlossyFlood.run`'s arguments through the same
    normalization (``flood._normalize``) and draws from
    ``flood.rng``.  The ``"scalar"`` engine must equal this bit for bit
    — same results, same generator state afterwards.  The dicts become
    the result's arrays, in participant order, at the end.
    """
    _, part_mask, part_list, n_tx_vec = flood._normalize([initiator], n_tx, participants)
    slot_ms, phase_ms, num_phases = flood._slot_timing(packet_bytes, max_slot_ms)
    interference = interference if interference is not None else NoInterference()
    participants = part_list if part_list is not None else flood._participant_ids(part_mask)
    index = flood.link_model.node_index
    per_node_n_tx = {node: int(n_tx_vec[index[node]]) for node in participants}
    links = _per_pair_prr(flood)

    received: Dict[int, bool] = {node: False for node in participants}
    reception_phase: Dict[int, Optional[int]] = {node: None for node in participants}
    transmissions: Dict[int, int] = {node: 0 for node in participants}
    #: Phase in which a node transmits next (None = not scheduled yet).
    next_tx_phase: Dict[int, Optional[int]] = {node: None for node in participants}
    #: Phase after which the node switched its radio off (exclusive).
    off_after_phase: Dict[int, Optional[int]] = {node: None for node in participants}

    # The initiator must transmit at least once for the flood to exist.
    per_node_n_tx[initiator] = max(1, per_node_n_tx[initiator])
    received[initiator] = True
    reception_phase[initiator] = 0
    next_tx_phase[initiator] = 0

    for phase in range(num_phases):
        transmitters = [
            node
            for node in participants
            if next_tx_phase[node] == phase
            and transmissions[node] < per_node_n_tx[node]
            and off_after_phase[node] is None
        ]
        # Listeners: radio on, not transmitting in this phase.
        listeners = [
            node
            for node in participants
            if node not in transmitters and off_after_phase[node] is None
        ]
        phase_start = start_ms + phase * phase_ms
        if transmitters:
            for node in listeners:
                penalty = reference_penalty(
                    interference, flood.topology.positions[node], phase_start, phase_ms, channel
                )
                probability = links.reception_probability(
                    transmitters, node, interference_penalty=penalty
                )
                if probability > 0.0 and flood.rng.random() < probability:
                    if not received[node]:
                        received[node] = True
                        reception_phase[node] = phase
                    # Glossy re-synchronizes on every reception: schedule
                    # (or re-arm) the next transmission for the following
                    # phase if the node still has transmissions left.
                    if (
                        transmissions[node] < per_node_n_tx[node]
                        and next_tx_phase[node] is None
                    ):
                        next_tx_phase[node] = phase + 1

        for node in transmitters:
            transmissions[node] += 1
            if transmissions[node] < per_node_n_tx[node]:
                # Alternate: listen next phase, transmit the one after.
                next_tx_phase[node] = phase + 2
            else:
                next_tx_phase[node] = None
                off_after_phase[node] = phase + 1

        # Nodes that have received and have nothing left to transmit can
        # switch off: passive receivers (N_TX = 0) right after their first
        # reception, forwarders once their transmission budget is spent.
        for node in participants:
            if off_after_phase[node] is not None:
                continue
            if received[node] and per_node_n_tx[node] == 0:
                off_after_phase[node] = phase + 1
            elif (
                received[node]
                and transmissions[node] >= per_node_n_tx[node]
                and next_tx_phase[node] is None
            ):
                off_after_phase[node] = phase + 1

    radio_on: List[float] = []
    for node in participants:
        off = off_after_phase[node]
        on_phases = num_phases if off is None else min(off, num_phases)
        radio_on.append(min(slot_ms, on_phases * phase_ms))

    return FloodResult(
        initiator=initiator,
        node_ids=participants,
        received_array=np.array([received[node] for node in participants], dtype=bool),
        reception_phase_array=np.array(
            [-1 if reception_phase[node] is None else reception_phase[node]
             for node in participants],
            dtype=np.int64,
        ),
        transmissions_array=np.array(
            [transmissions[node] for node in participants], dtype=np.int64
        ),
        radio_on_array=np.array(radio_on, dtype=float),
        slot_duration_ms=slot_ms,
        channel=channel,
    )
