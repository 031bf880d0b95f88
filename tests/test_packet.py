"""Tests for packet formats and the Dimmer feedback header."""

import pytest

from repro.net.packet import (
    DEFAULT_PACKET_BYTES,
    DIMMER_HEADER_BYTES,
    LWB_HEADER_BYTES,
    DataPacket,
    DimmerFeedbackHeader,
    Packet,
    SchedulePacket,
    airtime_ms,
)


class TestAirtime:
    def test_30_byte_packet_is_about_one_ms(self):
        assert 1.0 < airtime_ms(30) < 1.5

    def test_airtime_monotonic_in_size(self):
        assert airtime_ms(60) > airtime_ms(30)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            airtime_ms(0)


class TestDimmerFeedbackHeader:
    def test_roundtrip_is_close(self):
        header = DimmerFeedbackHeader(radio_on_ms=12.5, reliability=0.87)
        decoded = DimmerFeedbackHeader.decode(header.encode())
        assert decoded.radio_on_ms == pytest.approx(12.5, abs=0.1)
        assert decoded.reliability == pytest.approx(0.87, abs=0.01)

    def test_header_is_two_bytes(self):
        header = DimmerFeedbackHeader(radio_on_ms=5.0, reliability=1.0)
        assert len(header.encode()) == DIMMER_HEADER_BYTES == 2

    def test_radio_on_saturates_at_slot_length(self):
        header = DimmerFeedbackHeader(radio_on_ms=100.0, reliability=0.5)
        decoded = DimmerFeedbackHeader.decode(header.encode())
        assert decoded.radio_on_ms == pytest.approx(20.0, abs=0.1)

    def test_extreme_values_roundtrip(self):
        for radio, rel in ((0.0, 0.0), (20.0, 1.0)):
            decoded = DimmerFeedbackHeader.decode(
                DimmerFeedbackHeader(radio_on_ms=radio, reliability=rel).encode()
            )
            assert decoded.radio_on_ms == pytest.approx(radio, abs=0.1)
            assert decoded.reliability == pytest.approx(rel, abs=0.01)

    def test_invalid_reliability_rejected(self):
        with pytest.raises(ValueError):
            DimmerFeedbackHeader(radio_on_ms=1.0, reliability=1.5)

    def test_negative_radio_on_rejected(self):
        with pytest.raises(ValueError):
            DimmerFeedbackHeader(radio_on_ms=-1.0, reliability=0.5)

    def test_decode_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            DimmerFeedbackHeader.decode(b"\x01")


class TestPackets:
    def test_default_packet_matches_paper_size(self):
        packet = DataPacket(source=1, feedback=DimmerFeedbackHeader(5.0, 1.0))
        assert packet.total_bytes == DEFAULT_PACKET_BYTES == 30

    def test_plain_packet_excludes_dimmer_header(self):
        packet = DataPacket(source=1)
        assert packet.total_bytes == DEFAULT_PACKET_BYTES - DIMMER_HEADER_BYTES

    def test_packet_airtime_positive(self):
        assert Packet(source=0).airtime_ms > 0

    def test_schedule_packet_scales_with_slots(self):
        small = SchedulePacket(source=0, n_tx=3, slots=(1, 2))
        large = SchedulePacket(source=0, n_tx=3, slots=tuple(range(18)))
        assert large.total_bytes > small.total_bytes
        assert small.total_bytes >= LWB_HEADER_BYTES

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Packet(source=0, payload_bytes=-1)

    def test_negative_n_tx_rejected(self):
        with pytest.raises(ValueError):
            SchedulePacket(source=0, n_tx=-1)
