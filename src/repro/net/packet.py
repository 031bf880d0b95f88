"""Packet formats used by LWB and Dimmer.

The paper uses 30-byte packets including a 3-byte LWB header and a
2-byte Dimmer header.  The Dimmer header carries two quantized
performance metrics measured locally by the source node: its radio-on
time averaged over the last floods, and its packet reception rate
(reliability).  Receivers use these headers to build a global snapshot
of the network which feeds both the coordinator's DQN and the
distributed forwarder selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Sizes from §V-A of the paper.
LWB_HEADER_BYTES = 3
DIMMER_HEADER_BYTES = 2
DEFAULT_PACKET_BYTES = 30
DEFAULT_PAYLOAD_BYTES = DEFAULT_PACKET_BYTES - LWB_HEADER_BYTES - DIMMER_HEADER_BYTES

#: CC2420 PHY rate: 250 kbps = 31.25 bytes/ms.
PHY_RATE_BYTES_PER_MS = 31.25

#: PHY/MAC overhead added on air (preamble, SFD, length, FCS).
PHY_OVERHEAD_BYTES = 6


def airtime_ms(packet_bytes: int) -> float:
    """Return the on-air duration of a packet of ``packet_bytes`` bytes.

    Includes the fixed PHY overhead (preamble, SFD, length field, FCS).
    A 30-byte Dimmer packet takes roughly 1.15 ms on air at 250 kbps.
    """
    if packet_bytes <= 0:
        raise ValueError("packet_bytes must be positive")
    return (packet_bytes + PHY_OVERHEAD_BYTES) / PHY_RATE_BYTES_PER_MS


@dataclass(frozen=True)
class DimmerFeedbackHeader:
    """Two-byte Dimmer performance header.

    Both fields are quantized into a single byte each:

    * ``radio_on_ms`` is clamped to [0, 20] ms and stored with a
      resolution of 20/255 ms per step.
    * ``reliability`` is a packet-reception rate in [0, 1] stored with a
      resolution of 1/255 per step.
    """

    radio_on_ms: float
    reliability: float

    #: Maximum radio-on time representable by the header (one slot).
    MAX_RADIO_ON_MS = 20.0

    def __post_init__(self) -> None:
        if self.radio_on_ms < 0:
            raise ValueError("radio_on_ms must be non-negative")
        if not 0.0 <= self.reliability <= 1.0:
            raise ValueError("reliability must be within [0, 1]")

    def encode(self) -> bytes:
        """Serialize the header to its two-byte wire format."""
        radio_byte = int(round(min(self.radio_on_ms, self.MAX_RADIO_ON_MS) / self.MAX_RADIO_ON_MS * 255))
        rel_byte = int(round(self.reliability * 255))
        return bytes([radio_byte, rel_byte])

    @classmethod
    def decode(cls, data: bytes) -> "DimmerFeedbackHeader":
        """Parse a two-byte wire representation back into a header."""
        if len(data) != DIMMER_HEADER_BYTES:
            raise ValueError(f"Dimmer header must be {DIMMER_HEADER_BYTES} bytes, got {len(data)}")
        radio_on = data[0] / 255 * cls.MAX_RADIO_ON_MS
        reliability = data[1] / 255
        return cls(radio_on_ms=radio_on, reliability=reliability)


@dataclass(frozen=True)
class Packet:
    """Base packet: every packet has an originator and a length on air."""

    source: int
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES
    sequence_number: int = 0

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")

    @property
    def total_bytes(self) -> int:
        """Total wire size including LWB header."""
        return self.payload_bytes + LWB_HEADER_BYTES

    @property
    def airtime_ms(self) -> float:
        """On-air duration of this packet."""
        return airtime_ms(self.total_bytes)


@dataclass(frozen=True)
class DataPacket(Packet):
    """Application data packet flooded during a data slot.

    Carries the Dimmer feedback header whenever the sending node runs
    Dimmer (the static LWB baseline sends plain packets).
    """

    feedback: Optional[DimmerFeedbackHeader] = None
    destination: Optional[int] = None

    @property
    def total_bytes(self) -> int:
        """Total wire size including LWB header and optional Dimmer header."""
        extra = DIMMER_HEADER_BYTES if self.feedback is not None else 0
        return self.payload_bytes + LWB_HEADER_BYTES + extra


@dataclass(frozen=True)
class SchedulePacket(Packet):
    """Control-slot packet carrying the round schedule and adaptivity command.

    ``n_tx`` is the new global retransmission parameter; when
    ``forwarder_selection`` is True the coordinator instead instructs
    devices to run their local multi-armed bandit learning step.
    ``learning_node`` names the single node that is allowed to learn its
    role during the upcoming rounds (sequential learning).
    """

    n_tx: int = 3
    slots: tuple = field(default_factory=tuple)
    forwarder_selection: bool = False
    learning_node: Optional[int] = None
    round_index: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_tx < 0:
            raise ValueError("n_tx must be non-negative")

    @property
    def total_bytes(self) -> int:
        """Schedule packets carry one byte per assigned slot plus control fields."""
        return LWB_HEADER_BYTES + 4 + len(self.slots)
