"""IEEE 802.15.4 channel model and channel-hopping sequences.

Dimmer uses slot-based channel hopping: data slots follow a static,
global hopping sequence while control slots are always executed on
channel 26 (the only 2.4 GHz 802.15.4 channel that does not overlap
with WiFi channels 1/6/11 in most regulatory domains).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

#: The sixteen 2.4 GHz IEEE 802.15.4 channels.
IEEE_802_15_4_CHANNELS: Sequence[int] = tuple(range(11, 27))

#: Channel used for all LWB/Dimmer control slots (schedule dissemination).
CONTROL_CHANNEL: int = 26

#: Default global hopping sequence used for data slots.  The sequence
#: mixes channels across the 2.4 GHz band so that a jammer parked on a
#: single WiFi channel only affects a fraction of the slots.
DEFAULT_HOPPING_SEQUENCE: Sequence[int] = (15, 25, 26, 11, 20, 16, 12, 22)

#: Centre frequency (MHz) of an 802.15.4 channel: 2405 + 5 * (k - 11).
_BASE_FREQ_MHZ = 2405.0
_CHANNEL_SPACING_MHZ = 5.0

#: WiFi channel centre frequencies (1/6/11 plus the upper-band 13 used by
#: some testbed interference generators) and their ~22 MHz width.
_WIFI_CENTERS_MHZ = {1: 2412.0, 6: 2437.0, 11: 2462.0, 13: 2472.0}
_WIFI_HALF_WIDTH_MHZ = 11.0


def channel_frequency_mhz(channel: int) -> float:
    """Return the centre frequency of an 802.15.4 channel in MHz."""
    if channel not in IEEE_802_15_4_CHANNELS:
        raise ValueError(f"invalid IEEE 802.15.4 channel: {channel}")
    return _BASE_FREQ_MHZ + _CHANNEL_SPACING_MHZ * (channel - 11)


def wifi_overlap(channel: int, wifi_channel: int = 1) -> float:
    """Return the overlap factor between an 802.15.4 channel and a WiFi channel.

    The factor is in [0, 1]: 1.0 means the 802.15.4 channel sits in the
    middle of the WiFi channel's occupied bandwidth, 0.0 means it is
    completely outside of it.  The factor scales how strongly WiFi
    interference degrades transmissions on that channel.
    """
    if wifi_channel not in _WIFI_CENTERS_MHZ:
        raise ValueError(f"unsupported WiFi channel: {wifi_channel}")
    freq = channel_frequency_mhz(channel)
    center = _WIFI_CENTERS_MHZ[wifi_channel]
    distance = abs(freq - center)
    if distance >= _WIFI_HALF_WIDTH_MHZ:
        return 0.0
    return 1.0 - distance / _WIFI_HALF_WIDTH_MHZ


@dataclass
class ChannelHopper:
    """Slot-based channel hopper with a static global sequence.

    All nodes share the same sequence and index so that, like in Dimmer,
    the whole network hops together.  Control slots always return
    :data:`CONTROL_CHANNEL`; data slots walk the hopping sequence, one
    hop per slot.

    Parameters
    ----------
    sequence:
        The hopping sequence for data slots.  Defaults to
        :data:`DEFAULT_HOPPING_SEQUENCE`.
    enabled:
        When ``False`` the hopper degenerates to a single-channel scheme
        (channel 26 everywhere), matching the plain LWB baseline.
    """

    sequence: Sequence[int] = DEFAULT_HOPPING_SEQUENCE
    enabled: bool = True
    _index: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not self.sequence:
            raise ValueError("hopping sequence must not be empty")
        for channel in self.sequence:
            if channel not in IEEE_802_15_4_CHANNELS:
                raise ValueError(f"invalid channel in hopping sequence: {channel}")

    def control_channel(self) -> int:
        """Channel used for the control slot of every round."""
        return CONTROL_CHANNEL

    def data_channel(self, slot_index: int) -> int:
        """Channel used for the data slot at ``slot_index`` within a round."""
        if not self.enabled:
            return CONTROL_CHANNEL
        return self.sequence[(self._index + slot_index) % len(self.sequence)]

    def advance_round(self, num_slots: int) -> None:
        """Advance the hopping index after a round of ``num_slots`` data slots."""
        if num_slots < 0:
            raise ValueError("num_slots must be non-negative")
        if self.enabled:
            self._index = (self._index + num_slots) % len(self.sequence)

    def reset(self) -> None:
        """Reset the hopping index (e.g. when a node re-synchronizes)."""
        self._index = 0
