"""Tests for the channel model and channel hopper."""

import pytest

from repro.net.channels import (
    CONTROL_CHANNEL,
    DEFAULT_HOPPING_SEQUENCE,
    IEEE_802_15_4_CHANNELS,
    ChannelHopper,
    channel_frequency_mhz,
    wifi_overlap,
)


class TestChannelFrequencies:
    def test_channel_11_is_2405(self):
        assert channel_frequency_mhz(11) == pytest.approx(2405.0)

    def test_channel_26_is_2480(self):
        assert channel_frequency_mhz(26) == pytest.approx(2480.0)

    def test_invalid_channel_rejected(self):
        with pytest.raises(ValueError):
            channel_frequency_mhz(10)

    def test_all_sixteen_channels_defined(self):
        assert len(IEEE_802_15_4_CHANNELS) == 16


class TestWifiOverlap:
    def test_channel_in_middle_of_wifi1_fully_overlaps(self):
        # Channel 12 (2410 MHz) sits almost on WiFi 1's centre (2412 MHz).
        assert wifi_overlap(12, 1) > 0.7

    def test_channel_26_does_not_overlap_wifi_1(self):
        assert wifi_overlap(26, 1) == 0.0

    def test_channel_26_partially_overlaps_wifi_13(self):
        assert 0.0 < wifi_overlap(26, 13) < 1.0

    def test_overlap_bounded(self):
        for channel in IEEE_802_15_4_CHANNELS:
            for wifi in (1, 6, 11, 13):
                assert 0.0 <= wifi_overlap(channel, wifi) <= 1.0

    def test_unknown_wifi_channel_rejected(self):
        with pytest.raises(ValueError):
            wifi_overlap(15, 3)


class TestChannelHopper:
    def test_control_channel_is_26(self):
        assert ChannelHopper().control_channel() == CONTROL_CHANNEL == 26

    def test_disabled_hopper_stays_on_control_channel(self):
        hopper = ChannelHopper(enabled=False)
        assert all(hopper.data_channel(i) == 26 for i in range(10))

    def test_enabled_hopper_walks_the_sequence(self):
        hopper = ChannelHopper()
        channels = [hopper.data_channel(i) for i in range(len(DEFAULT_HOPPING_SEQUENCE))]
        assert channels == list(DEFAULT_HOPPING_SEQUENCE)

    def test_advance_round_shifts_the_sequence(self):
        hopper = ChannelHopper()
        first = hopper.data_channel(0)
        hopper.advance_round(3)
        assert hopper.data_channel(0) == DEFAULT_HOPPING_SEQUENCE[3 % len(DEFAULT_HOPPING_SEQUENCE)]
        hopper.reset()
        assert hopper.data_channel(0) == first

    def test_invalid_sequence_rejected(self):
        with pytest.raises(ValueError):
            ChannelHopper(sequence=())
        with pytest.raises(ValueError):
            ChannelHopper(sequence=(9,))

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            ChannelHopper().advance_round(-1)
