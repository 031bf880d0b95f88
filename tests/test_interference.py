"""Tests for the interference sources.

The sources' behaviour is checked through ``penalty_windows`` (the one
formulation of ``src/``), and every built-in source's windows are pinned
to the scalar reference formulation of ``reference_interference``.
"""

import numpy as np
import pytest

from repro.net.interference import (
    BURST_OVERLAP_DECODE_THRESHOLD,
    AmbientInterference,
    BurstJammer,
    CompositeInterference,
    InterferenceSource,
    NoInterference,
    WifiInterference,
    burst_period_ms,
    combine_penalties,
    penalty_windows_of,
)

import reference_interference as reference


def window_penalty(source, position, start_ms, duration_ms, channel):
    """The penalty of one reception window at one position, from ``penalty_windows``."""
    windows = source.penalty_windows(
        np.array([position], dtype=float), np.array([start_ms]), duration_ms, channel
    )
    return windows[0, 0]


class TestBurstPeriod:
    def test_ten_percent_is_130ms(self):
        assert burst_period_ms(0.10) == pytest.approx(130.0)

    def test_thirty_five_percent_is_about_37ms(self):
        assert burst_period_ms(0.35) == pytest.approx(37.14, abs=0.1)

    def test_zero_ratio_means_no_bursts(self):
        # The sweep's clean baseline point: no bursts, infinite period.
        assert burst_period_ms(0.0) == float("inf")

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            burst_period_ms(-0.1)
        with pytest.raises(ValueError):
            burst_period_ms(1.5)

    def test_zero_ratio_jammer_period_is_infinite(self):
        jammer = BurstJammer(position=(0.0, 0.0), interference_ratio=0.0)
        assert jammer.period_ms == float("inf")
        assert not jammer.penalty_windows(np.zeros((4, 2)), np.array([1.0]), 2.0, 26).any()


class TestNoInterference:
    def test_penalty_always_zero(self):
        source = NoInterference()
        assert window_penalty(source, (0.0, 0.0), 123.0, 2.0, 26) == 0.0
        assert not reference.is_active(source, 0.0)


class TestBurstJammer:
    def test_period_from_ratio(self):
        jammer = BurstJammer(position=(0.0, 0.0), interference_ratio=0.10)
        assert jammer.period_ms == pytest.approx(130.0)

    def test_reception_during_burst_is_jammed_nearby(self):
        jammer = BurstJammer(position=(0.0, 0.0), interference_ratio=0.30, channels=None)
        # The first burst starts at t=0 and lasts 13 ms.
        assert window_penalty(jammer, (1.0, 1.0), 1.0, 2.0, 26) == pytest.approx(1.0)

    def test_reception_between_bursts_is_clean(self):
        jammer = BurstJammer(position=(0.0, 0.0), interference_ratio=0.10, channels=None)
        # Burst covers [0, 13); [60, 62) sits in the gap before 130.
        assert window_penalty(jammer, (1.0, 1.0), 60.0, 2.0, 26) == 0.0

    def test_far_receivers_unaffected(self):
        jammer = BurstJammer(position=(0.0, 0.0), interference_ratio=0.30, channels=None, range_m=5.0)
        assert window_penalty(jammer, (100.0, 100.0), 1.0, 2.0, 26) == 0.0

    def test_spatial_falloff_between_range_and_twice_range(self):
        jammer = BurstJammer(position=(0.0, 0.0), interference_ratio=0.30, channels=None, range_m=5.0)
        inside = window_penalty(jammer, (2.0, 0.0), 1.0, 2.0, 26)
        annulus = window_penalty(jammer, (7.5, 0.0), 1.0, 2.0, 26)
        assert inside == pytest.approx(1.0)
        assert 0.0 < annulus < 1.0

    def test_channel_filter(self):
        jammer = BurstJammer(position=(0.0, 0.0), interference_ratio=0.30, channels=(26,))
        assert window_penalty(jammer, (1.0, 1.0), 1.0, 2.0, 15) == 0.0
        assert window_penalty(jammer, (1.0, 1.0), 1.0, 2.0, 26) > 0.0

    def test_bursts_start_at_the_phase_offset(self):
        jammer = BurstJammer(
            position=(0.0, 0.0), interference_ratio=0.30, channels=None, phase_ms=1000.0
        )
        period = jammer.period_ms
        # Bursts cover [1000 + k * period, 1013 + k * period) for every k.
        for start, expected in [
            (1001.0, 1.0),
            (1020.0, 0.0),
            (995.0, 0.0),
            (1001.0 + period, 1.0),
            (1001.0 - period, 1.0),
        ]:
            assert window_penalty(jammer, (1.0, 1.0), start, 2.0, 26) == expected
            assert reference.penalty(jammer, (1.0, 1.0), start, 2.0, 26) == expected

    def test_zero_ratio_never_active(self):
        jammer = BurstJammer(position=(0.0, 0.0), interference_ratio=0.0)
        assert not reference.is_active(jammer, 0.0)
        assert reference.burst_overlap_fraction(jammer, 0.0, 20.0) == 0.0

    def test_overlap_fraction_matches_duty_cycle(self):
        jammer = BurstJammer(position=(0.0, 0.0), interference_ratio=0.25, channels=None)
        # Over a long window the covered fraction approaches the duty cycle.
        assert reference.burst_overlap_fraction(jammer, 0.0, 5200.0) == pytest.approx(
            0.25, abs=0.02
        )

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            BurstJammer(position=(0.0, 0.0), interference_ratio=1.5)


class TestWifiInterference:
    def test_levels_have_presets(self):
        level1 = WifiInterference(level=1)
        level2 = WifiInterference(level=2)
        assert level2.duty_cycle > level1.duty_cycle

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            WifiInterference(level=3)

    def test_penalty_bounded(self):
        wifi = WifiInterference(level=2, seed=1)
        penalties = wifi.penalty_windows(
            np.zeros((1, 2)), np.arange(0.0, 200.0, 7.0), 1.6, 15
        )
        assert ((0.0 <= penalties) & (penalties <= 1.0)).all()

    def test_some_windows_are_jammed_at_level_2(self):
        wifi = WifiInterference(level=2, seed=1)
        # Channel 12 sits in the middle of WiFi channel 1's bandwidth.
        penalties = wifi.penalty_windows(np.zeros((1, 2)), np.arange(0.0, 2000.0, 5.0), 1.6, 12)
        assert (penalties > 0.0).any()
        assert (penalties == 0.0).any()

    def test_deterministic_per_time(self):
        wifi = WifiInterference(level=1, seed=4)
        assert window_penalty(wifi, (0.0, 0.0), 37.0, 1.6, 12) == window_penalty(
            wifi, (0.0, 0.0), 37.0, 1.6, 12
        )

    def test_each_position_array_gets_its_own_spatial_factors(self):
        # Two deployments of the same size near and far from the access
        # point: a spatial-factor cache keyed by anything coarser than
        # the coordinates themselves would serve one's factors to the other.
        wifi = WifiInterference(level=2, positions=[(0.0, 0.0)], range_m=10.0, seed=1)
        near = np.array([[0.0, 1.0], [5.0, 0.0], [12.0, 0.0]])
        far = np.array([[40.0, 0.0], [0.0, 45.0], [15.0, 0.0]])
        starts = np.arange(0.0, 400.0, 1.6)
        first_near = wifi.penalty_windows(near, starts, 1.6, 12)
        first_far = wifi.penalty_windows(far, starts, 1.6, 12)
        assert first_near.any()
        assert (first_far[:, :2] == 0.0).all()
        assert first_far[:, 2].any()
        # Repeated calls in either order keep returning each array's own values.
        assert (wifi.penalty_windows(near, starts, 1.6, 12) == first_near).all()
        assert (wifi.penalty_windows(far, starts, 1.6, 12) == first_far).all()
        fresh = WifiInterference(level=2, positions=[(0.0, 0.0)], range_m=10.0, seed=1)
        assert (fresh.penalty_windows(far, starts, 1.6, 12) == first_far).all()
        for column, position in enumerate(map(tuple, far)):
            scalar = [reference.penalty(wifi, position, start, 1.6, 12) for start in starts]
            assert scalar == first_far[:, column].tolist()


class TestAmbientInterference:
    def test_penalty_is_binary(self):
        ambient = AmbientInterference(rate=0.5, seed=2)
        penalties = ambient.penalty_windows(
            np.zeros((1, 2)), np.arange(0.0, 3000.0, 3.0), 1.6, 26
        )
        assert set(penalties.ravel().tolist()) <= {0.0, 1.0}

    def test_zero_rate_never_jams(self):
        ambient = AmbientInterference(rate=0.0, seed=2)
        assert not ambient.penalty_windows(
            np.zeros((1, 2)), np.arange(0.0, 1000.0, 10.0), 1.6, 26
        ).any()

    def test_rate_roughly_controls_occupancy(self):
        low = AmbientInterference(rate=0.05, seed=3)
        high = AmbientInterference(rate=0.5, seed=3)
        times = np.arange(0.0, 20000.0, 7.0)
        low_hits = low.penalty_windows(np.zeros((1, 2)), times, 1.6, 26).sum()
        high_hits = high.penalty_windows(np.zeros((1, 2)), times, 1.6, 26).sum()
        assert high_hits > low_hits

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            AmbientInterference(rate=1.5)


def window_channels(pattern, count):
    """A ``penalty_windows`` channel argument: one channel for every
    window (``"26"``, ``"15"``), or one channel per window (channels 12
    and 17 sit inside a WiFi channel, so their spectral factor exceeds
    the WiFi floor)."""
    if pattern == "per-window":
        return np.resize(np.array([26, 15, 12, 26, 17, 11]), count)
    return int(pattern)


def assert_windows_match_scalar_penalty(source, positions, starts, duration, channels):
    """Row ``m`` of ``penalty_windows`` is exactly the reference scalar
    ``penalty`` of every position in window ``m``."""
    windows = source.penalty_windows(positions, starts, duration, channels)
    assert windows.shape == (len(starts), len(positions))
    per_window = np.broadcast_to(channels, (len(starts),))
    for row, (start, channel) in enumerate(zip(starts, per_window)):
        expected = [
            reference.penalty(source, (float(x), float(y)), float(start), duration, int(channel))
            for x, y in positions
        ]
        assert windows[row].tolist() == expected, (type(source).__name__, row)


class TestScalarBatchEquivalence:
    """The vectorized ``penalty_windows`` must equal the reference scalar
    ``penalty`` exactly, for every built-in source."""

    POSITIONS = np.array(
        [[0.0, 0.0], [1.0, 1.0], [4.0, 0.0], [7.5, 0.0], [9.9, 0.1], [40.0, 40.0]]
    )

    def sources(self):
        return [
            BurstJammer(position=(0.0, 0.0), interference_ratio=0.30, channels=None),
            BurstJammer(
                position=(2.0, 2.0),
                interference_ratio=0.10,
                channels=(26,),
                phase_ms=5.0,
            ),
            WifiInterference(level=2, positions=[(0.0, 0.0), (6.0, 6.0)], seed=3),
            WifiInterference(level=2, positions=[(3.0, 0.0)], seed=4),
            AmbientInterference(rate=0.5, seed=2),
            CompositeInterference(
                [
                    AmbientInterference(rate=0.2, seed=9),
                    BurstJammer(position=(1.0, 0.0), interference_ratio=0.25, channels=None),
                ]
            ),
        ]

    @pytest.mark.parametrize("pattern", ["26", "15", "per-window"])
    def test_windows_match_scalar_penalty(self, pattern):
        """Both source lists of this module, over irregular windows and
        whole uniform slot timelines."""
        starts = np.concatenate(
            [
                [0.0, 5.5, 7.5, 22.0, 61.0, 100.0, 101.6, 130.0, 333.3, 480.0],
                17.3 + 1.6 * np.arange(12),
                123.4 + 1.6 * np.arange(12),
            ]
        )
        channels = window_channels(pattern, len(starts))
        for source in self.sources():
            assert_windows_match_scalar_penalty(
                source, self.POSITIONS, starts, 1.6, channels
            )
        for source in TestPenaltyWindows().sources():
            assert_windows_match_scalar_penalty(
                source, TestPenaltyWindows.POSITIONS, starts, 1.6, channels
            )

    def test_overlap_cutoff_is_shared(self):
        """The decode threshold gates the reference penalty and
        penalty_windows identically.

        A burst overlap just below the shared cutoff must be free in both
        formulations, just above must jam in both — so the cutoff cannot
        silently drift apart between the oracle and ``src/``.
        """
        jammer = BurstJammer(position=(0.0, 0.0), interference_ratio=0.10, channels=None)
        position = (1.0, 1.0)
        positions = np.array([position])
        duration = 10.0
        # Burst covers [0, 13): start the window so that exactly
        # ``fraction`` of it overlaps the burst tail.
        for fraction, jammed in [
            (BURST_OVERLAP_DECODE_THRESHOLD - 0.02, False),
            (BURST_OVERLAP_DECODE_THRESHOLD + 0.02, True),
        ]:
            start = 13.0 - fraction * duration
            scalar = reference.penalty(jammer, position, start, duration, 26)
            windows = jammer.penalty_windows(positions, np.array([start]), duration, 26)
            expected = 1.0 if jammed else 0.0
            assert scalar == pytest.approx(expected)
            assert windows[0, 0] == pytest.approx(expected)

    def test_custom_sources_must_implement_windows(self):
        """``penalty_windows`` is the one method a source implements."""

        class Silent(InterferenceSource):
            pass

        with pytest.raises(TypeError):
            Silent()


class TestCompositeInterference:
    def test_combines_independent_sources(self):
        jammer = BurstJammer(position=(0.0, 0.0), interference_ratio=0.30, channels=None)
        composite = CompositeInterference([NoInterference(), jammer])
        assert window_penalty(composite, (1.0, 1.0), 1.0, 2.0, 26) == pytest.approx(
            window_penalty(jammer, (1.0, 1.0), 1.0, 2.0, 26)
        )

    def test_empty_composite_is_clean(self):
        assert window_penalty(CompositeInterference(), (0.0, 0.0), 0.0, 2.0, 26) == 0.0

    def test_add_source(self):
        composite = CompositeInterference()
        composite.add(BurstJammer(position=(0.0, 0.0), interference_ratio=0.3, channels=None))
        assert reference.is_active(composite, 0.0)
        assert window_penalty(composite, (1.0, 1.0), 1.0, 2.0, 26) == 1.0

    def test_penalty_never_exceeds_one(self):
        sources = [
            BurstJammer(position=(0.0, 0.0), interference_ratio=0.5, channels=None),
            BurstJammer(position=(0.5, 0.5), interference_ratio=0.5, channels=None),
        ]
        composite = CompositeInterference(sources)
        assert window_penalty(composite, (0.0, 0.0), 1.0, 2.0, 26) <= 1.0


class TestPenaltyWindows:
    """``penalty_windows`` evaluates the timelines of all slots of a
    round in one call; its rows must match the reference scalar
    ``penalty`` of each window for every built-in source."""

    POSITIONS = np.array([[0.0, 0.0], [3.0, 1.0], [40.0, 40.0]])

    def sources(self):
        return [
            NoInterference(),
            BurstJammer(position=(1.0, 1.0), interference_ratio=0.3, channels=None),
            BurstJammer(position=(1.0, 1.0), interference_ratio=0.2, channels=(26,)),
            AmbientInterference(rate=0.6, seed=3),
            WifiInterference(level=1, positions=[(0.0, 0.0)]),
            CompositeInterference(
                [
                    AmbientInterference(rate=0.6, seed=3),
                    BurstJammer(position=(1.0, 1.0), interference_ratio=0.3, channels=None),
                ]
            ),
        ]

    def test_windows_match_timeline(self):
        """The uniform slot timeline the single-flood path requests
        (``start + phase_ms * arange(num_phases)``)."""
        starts = 50.0 + 1.6 * np.arange(12)
        for source in self.sources():
            assert_windows_match_scalar_penalty(source, self.POSITIONS, starts, 1.6, 26)

    def test_per_window_channels(self):
        jammer = BurstJammer(position=(1.0, 1.0), interference_ratio=0.9, channels=(26,))
        starts = np.array([0.0, 1.6, 3.2])
        channels = np.array([26, 11, 26])
        assert_windows_match_scalar_penalty(jammer, self.POSITIONS, starts, 1.6, channels)
        assert not jammer.penalty_windows(self.POSITIONS, starts, 1.6, channels)[1].any()

    def test_empty_windows(self):
        for source in self.sources():
            windows = source.penalty_windows(self.POSITIONS, np.array([]), 1.6, 26)
            assert windows.shape == (0, len(self.POSITIONS))

    @pytest.mark.parametrize("channels", [26, 11, "mixed"])
    @pytest.mark.parametrize("duration", [1.6, 40.0])
    def test_sources_evaluated_together_equal_their_own_calls(self, channels, duration):
        """Jammers of several ratios, phases, burst lengths and channel
        sets share one broadcast; each result equals its own call."""
        sources = self.sources() + [
            BurstJammer(position=(2.0, 0.0), interference_ratio=0.0, channels=None),
            BurstJammer(position=(0.0, 2.0), interference_ratio=0.35, phase_ms=7.0,
                        channels=(11, 15)),
            BurstJammer(position=(3.0, 1.0), interference_ratio=1.0, burst_ms=5.0,
                        channels=None),
            # Short bursts: a 40 ms window jams only if all its ~6 bursts count.
            BurstJammer(position=(1.0, 1.0), interference_ratio=0.15, burst_ms=1.0,
                        channels=None),
        ]
        starts = np.concatenate([50.0 + 1.6 * np.arange(40), [0.0, 130.0, 7.0, 4321.5]])
        if channels == "mixed":
            channels = window_channels("per-window", len(starts))
        together = penalty_windows_of(sources, self.POSITIONS, starts, duration, channels)
        assert len(together) == len(sources)
        jammed = 0
        for source, windows in zip(sources, together):
            alone = source.penalty_windows(self.POSITIONS, starts, duration, channels)
            assert windows.tobytes() == alone.tobytes(), source
            assert_windows_match_scalar_penalty(source, self.POSITIONS, starts, duration, channels)
            jammed += bool(windows.any())
        assert jammed >= 3

    def test_combination_is_dense_and_ordered(self):
        """``combine_penalties`` equals the sparse row-by-row product of
        the sources that touch each row, and leaves untouched entries 0."""
        rng = np.random.default_rng(4)
        penalties = []
        for rows in ([0, 3], [3], []):
            penalty = np.zeros((5, 3))
            penalty[rows] = rng.uniform(0.05, 0.95, (len(rows), 3))
            penalties.append(penalty)
        combined = combine_penalties(penalties, (5, 3))
        survival = np.ones((5, 3))
        for penalty in penalties:
            touched = penalty.any(axis=1)
            survival[touched] *= 1.0 - penalty[touched]
        assert combined.tobytes() == np.where(survival == 1.0, 0.0, 1.0 - survival).tobytes()
        assert not combined[[1, 2, 4]].any()
        assert combine_penalties([], (5, 3)).tobytes() == np.zeros((5, 3)).tobytes()
