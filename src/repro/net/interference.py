"""Interference sources.

The paper exercises Dimmer against three classes of interference:

* **Controlled IEEE 802.15.4 jamming** generated with Jamlab: 13 ms TX
  bursts at 0 dBm repeated periodically; the duty cycle defines the
  interference ratio (10 % = one 13 ms burst every 130 ms, 35 % = one
  every 37 ms).
* **WiFi interference** on the D-Cube testbed, at two severity levels
  defined by the testbed maintainers.
* **Ambient office interference** from uncontrolled WiFi access points
  and Bluetooth PANs during work hours.

Every source answers one question: given reception attempts at some
positions, in some time windows and on some channels, how strongly is
each reception degraded?  The answer is a *penalty* in [0, 1]; 0 means
unaffected, 1 means fully jammed.  Sources answer it for many windows
and positions at once (:meth:`InterferenceSource.penalty_windows`), and
penalties from multiple sources combine as independent corruption
events.  The one-window, one-position formulation every source is
checked against lives with the tests (``tests/reference_interference.py``).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.net.channels import IEEE_802_15_4_CHANNELS, wifi_overlap
from repro.net.topology import Position

#: Burst length used by the paper's Jamlab jammers: a typical WiFi
#: packet burst of 13 ms.
DEFAULT_BURST_MS = 13.0

#: Largest fraction of a frame a 0 dBm burst may clip while the frame
#: stays decodable: overlaps at or below this fraction only shave the
#: frame tail and cost nothing, anything above corrupts the frame.
#: Every source's ``penalty_windows`` gates on this one constant, and
#: the scalar reference formulation of the tests imports it, so the
#: cutoff cannot drift apart between sources or from the oracle.
BURST_OVERLAP_DECODE_THRESHOLD = 0.1


def combine_penalties(penalties: Sequence[np.ndarray], shape: Tuple[int, ...]) -> np.ndarray:
    """Combine independent sources' penalties as ``1 - prod(1 - p_i)``.

    ``penalties`` holds one array of ``shape`` per source, multiplied in
    order.  Dense over every entry: a source that leaves an entry at 0
    multiplies its survival by exactly ``1.0``, so each entry equals the
    product over only the sources that touch it, bit for bit, and an
    entry no source touches comes out exactly 0.
    :meth:`CompositeInterference.penalty_windows` and the flood engines'
    batched timelines both combine through here.
    """
    if not penalties:
        return np.zeros(shape)
    # ``1.0 * (1 - p_0)`` is ``1 - p_0`` exactly: start from the first.
    survival = np.subtract(1.0, penalties[0])
    for penalty in penalties[1:]:
        survival *= np.subtract(1.0, penalty)
    return np.subtract(1.0, survival, out=survival)


def penalty_windows_of(
    sources: Sequence["InterferenceSource"],
    positions: np.ndarray,
    starts_ms: np.ndarray,
    duration_ms: float,
    channels: Union[int, np.ndarray],
) -> List[np.ndarray]:
    """Every source's ``penalty_windows`` over the same windows, in order.

    The :class:`BurstJammer` among them share one broadcast over their
    bursts; every other source makes its own call.  Each entry equals
    the source's own call bit for bit.
    """
    jammers = [source for source in sources if type(source) is BurstJammer]
    timelines = iter(
        BurstJammer._timelines(jammers, positions, starts_ms, duration_ms, channels)
        if jammers
        else ()
    )
    return [
        next(timelines)
        if type(source) is BurstJammer
        else source.penalty_windows(positions, starts_ms, duration_ms, channels)
        for source in sources
    ]


class InterferenceSource(abc.ABC):
    """Base class for all interference sources."""

    @abc.abstractmethod
    def penalty_windows(
        self,
        positions: np.ndarray,
        starts_ms: np.ndarray,
        duration_ms: float,
        channels: Union[int, np.ndarray],
    ) -> np.ndarray:
        """Penalties of many reception windows at many positions at once.

        Parameters
        ----------
        positions:
            ``(N, 2)`` receiver positions in metres.
        starts_ms:
            ``(M,)`` window starts on the global clock.
        duration_ms:
            Length of every window.
        channels:
            IEEE 802.15.4 channel of every window, or one per window.

        Returns
        -------
        numpy.ndarray
            ``(M, N)`` penalties in [0, 1]: entry ``[m, i]`` is the
            probability that this source corrupts a reception attempt
            at ``positions[i]`` in window ``m``.  Every row depends only
            on its own start and channel and on the positions.  The flood
            engines evaluate a whole slot, or all data slots of a round,
            in one call.
        """


@dataclass
class NoInterference(InterferenceSource):
    """The interference-free case (night-time runs on channel 26)."""

    def penalty_windows(
        self,
        positions: np.ndarray,
        starts_ms: np.ndarray,
        duration_ms: float,
        channels: Union[int, np.ndarray],
    ) -> np.ndarray:
        return np.zeros((len(np.asarray(starts_ms)), len(positions)))


@dataclass
class BurstJammer(InterferenceSource):
    """Jamlab-style periodic 802.15.4 burst jammer.

    Parameters
    ----------
    position:
        Jammer location in metres.
    interference_ratio:
        Fraction of time occupied by bursts (0.10 = 10 %).
    burst_ms:
        Burst duration; the paper uses 13 ms bursts.
    channels:
        Channels affected by the jammer.  The paper's controlled
        experiments jam channel 26; ``None`` means all channels.
    range_m:
        Radius of full jamming; the penalty decays linearly to zero
        between ``range_m`` and ``2 * range_m``.
    phase_ms:
        Offset of the first burst from time 0 on the global clock.
    """

    position: Position
    interference_ratio: float
    burst_ms: float = DEFAULT_BURST_MS
    channels: Optional[Sequence[int]] = (26,)
    range_m: float = 5.0
    phase_ms: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.interference_ratio <= 1.0:
            raise ValueError("interference_ratio must be in [0, 1]")
        if self.burst_ms <= 0:
            raise ValueError("burst_ms must be positive")
        if self.range_m <= 0:
            raise ValueError("range_m must be positive")
        if self.channels is not None:
            for channel in self.channels:
                if channel not in IEEE_802_15_4_CHANNELS:
                    raise ValueError(f"invalid channel: {channel}")
        #: Memoized spatial factors per positions array, keyed by its
        #: contents (a pure function of the jammer and the positions).
        self._spatial_batches: dict = {}

    @property
    def period_ms(self) -> float:
        """Burst repetition period derived from the interference ratio.

        A 10 % ratio is a 13 ms burst every 130 ms, a 35 % ratio one every
        ~37 ms (cf. §V-A of the paper); ratio 0 (the sweep's clean
        baseline) means no bursts, ever: an infinite period.
        """
        if self.interference_ratio <= 0.0:
            return float("inf")
        return self.burst_ms / self.interference_ratio

    def _spatial_factor_batch(self, positions: np.ndarray) -> np.ndarray:
        key = (positions.shape, positions.tobytes())
        factors = self._spatial_batches.get(key)
        if factors is None:
            delta = positions - np.asarray(self.position, dtype=float)
            distance = np.hypot(delta[:, 0], delta[:, 1])
            factors = np.clip(1.0 - (distance - self.range_m) / self.range_m, 0.0, 1.0)
            factors.flags.writeable = False
            self._spatial_batches[key] = factors
        return factors

    def penalty_windows(
        self,
        positions: np.ndarray,
        starts_ms: np.ndarray,
        duration_ms: float,
        channels: Union[int, np.ndarray],
    ) -> np.ndarray:
        return BurstJammer._timelines([self], positions, starts_ms, duration_ms, channels)[0]

    @staticmethod
    def _timelines(
        jammers: Sequence["BurstJammer"],
        positions: np.ndarray,
        starts_ms: np.ndarray,
        duration_ms: float,
        channels: Union[int, np.ndarray],
    ) -> List[np.ndarray]:
        """``penalty_windows`` of several jammers, their bursts in one broadcast.

        Each entry equals that jammer's own call bit for bit: every
        element sees the same arithmetic whatever the other jammers are.
        """
        positions = np.asarray(positions, dtype=float)
        starts = np.asarray(starts_ms, dtype=float)
        shape = (len(jammers), len(starts), len(positions))
        one_channel = isinstance(channels, (int, np.integer))
        bursting = [
            jammer.interference_ratio > 0.0
            and (jammer.channels is None or not one_channel or int(channels) in jammer.channels)
            for jammer in jammers
        ]
        if not len(starts) or duration_ms <= 0 or not any(bursting):
            return list(np.zeros(shape))
        live = [jammer for jammer, flag in zip(jammers, bursting) if flag]
        # Burst-overlap fraction of every window: a window overlaps only
        # the bursts from the one starting at or before it (rounded
        # down once more against floating-point error) to the last one
        # starting before its end, so each row sums its own few
        # candidates.  Bursts outside the window add an exact 0, and a
        # window no longer than the period overlaps at most two bursts,
        # so the sum equals the burst-by-burst one bit for bit.
        # Axes: (jammer, candidate, window); candidate ``c`` of a window
        # is the burst ``first + c - 1``.
        periods = np.array([jammer.period_ms for jammer in live])[:, None, None]
        origins = np.array([jammer.phase_ms for jammer in live])[:, None, None]
        lengths = np.array([jammer.burst_ms for jammer in live])[:, None, None]
        first = np.subtract(starts, origins)
        first /= periods
        np.floor(first, out=first)
        candidates = math.ceil(duration_ms / periods.min()) + 3
        burst_starts = first + np.arange(-1.0, candidates - 1.0)[:, None]
        burst_starts *= periods
        burst_starts += origins
        overlap = burst_starts + lengths
        np.minimum(overlap, starts + duration_ms, out=overlap)
        np.maximum(burst_starts, starts, out=burst_starts)
        overlap -= burst_starts
        np.maximum(overlap, 0.0, out=overlap)
        covered = np.add.reduce(overlap, axis=1)
        covered /= duration_ms
        jams = covered > BURST_OVERLAP_DECODE_THRESHOLD
        if not one_channel:
            for row, jammer in zip(jams, live):
                if jammer.channels is not None:
                    row &= np.isin(np.asarray(channels), np.asarray(jammer.channels))
        # A jammed window reads the spatial factor (``1.0 * f``), any
        # other ``0.0 * f = 0.0``: the factors are finite and >= 0.
        spatial = np.array([jammer._spatial_factor_batch(positions) for jammer in live])
        penalties = jams[:, :, None] * spatial[:, None, :]
        if len(live) < len(jammers):
            everyone = np.zeros(shape)
            everyone[bursting] = penalties
            penalties = everyone
        return list(penalties)


#: D-Cube WiFi interference level presets: burst duty cycle, burst length,
#: and the spectral floor.  The floor models the wide-band energy of the
#: testbed's interference generators (several access points saturating the
#: whole 2.4 GHz band), which is what makes even the "quiet" 802.15.4
#: channels (25/26) unusable at the higher level — the reason plain
#: single-channel LWB collapses to ~27 % in the paper's Fig. 7.
WIFI_LEVEL_PRESETS = {
    1: {"duty_cycle": 0.35, "burst_ms": 10.0, "spectral_floor": 0.45},
    2: {"duty_cycle": 0.60, "burst_ms": 14.0, "spectral_floor": 0.9},
}


@dataclass
class WifiInterference(InterferenceSource):
    """D-Cube-style WiFi interference at a configurable severity level.

    WiFi interference differs from the controlled 802.15.4 jamming in
    three ways that matter for Dimmer's evaluation: it is wider band
    (affecting all 802.15.4 channels that overlap the WiFi channel), it
    is bursty but less periodic, and it is generated from several access
    points spread over the deployment, so most of the network is
    affected.

    Parameters
    ----------
    level:
        D-Cube severity level (1 or 2).
    positions:
        Access-point positions; ``None`` yields a deployment-wide field
        (no spatial attenuation).
    wifi_channels:
        WiFi channels occupied by the testbed's interference generators.
        D-Cube spreads its generators over the whole 2.4 GHz band, so the
        default covers channels 1, 6, 11 and 13 — which together overlap
        every IEEE 802.15.4 channel at least partially.
    seed:
        Seed of the pseudo-random burst pattern.
    """

    level: int = 1
    positions: Optional[Sequence[Position]] = None
    wifi_channels: Sequence[int] = (1, 6, 11, 13)
    range_m: float = 25.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.level not in WIFI_LEVEL_PRESETS:
            raise ValueError(f"unsupported WiFi level: {self.level}")
        preset = WIFI_LEVEL_PRESETS[self.level]
        self.duty_cycle = preset["duty_cycle"]
        self.burst_ms = preset["burst_ms"]
        self.spectral_floor = preset["spectral_floor"]
        self.period_ms = self.burst_ms / self.duty_cycle
        #: Memoized per-period burst offsets; the draw is a pure function
        #: of (seed, period index), so caching cannot change results.
        self._burst_offsets: dict = {}
        #: Memoized static factors (pure functions of the access points
        #: and their argument): spectral factor per channel, spatial
        #: factors per positions array keyed by its contents.
        self._spectral_factors: dict = {}
        self._spatial_batches: dict = {}

    def _burst_offset(self, period_index: int) -> float:
        """Jittered burst offset within a period (memoized, deterministic)."""
        offset = self._burst_offsets.get(period_index)
        if offset is None:
            rng = np.random.default_rng((self.seed, period_index))
            offset = float(rng.uniform(0.0, self.period_ms - self.burst_ms))
            if len(self._burst_offsets) >= 4096:
                self._burst_offsets.clear()
            self._burst_offsets[period_index] = offset
        return offset

    def _spatial_factor_batch(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        key = (positions.shape, positions.tobytes())
        factors = self._spatial_batches.get(key)
        if factors is None:
            factors = self._compute_spatial_factor_batch(positions)
            factors.flags.writeable = False
            self._spatial_batches[key] = factors
        return factors

    def _compute_spatial_factor_batch(self, positions: np.ndarray) -> np.ndarray:
        if self.positions is None:
            return np.ones(len(positions))
        best = np.zeros(len(positions))
        for ap in self.positions:
            delta = positions - np.asarray(ap, dtype=float)
            distance = np.hypot(delta[:, 0], delta[:, 1])
            factor = np.clip(1.0 - (distance - self.range_m) / self.range_m, 0.0, 1.0)
            # Only access points strictly closer than twice the range
            # count; the clip reproduces that cutoff.
            best = np.maximum(best, factor)
        return best

    def _spectral_factor(self, channel: int) -> float:
        """Worst-case WiFi overlap of one 802.15.4 channel, floored (memoized)."""
        factor = self._spectral_factors.get(channel)
        if factor is None:
            spectral = max(wifi_overlap(channel, wifi) for wifi in self.wifi_channels)
            factor = self._spectral_factors[channel] = max(spectral, self.spectral_floor)
        return factor

    def penalty_windows(
        self,
        positions: np.ndarray,
        starts_ms: np.ndarray,
        duration_ms: float,
        channels: Union[int, np.ndarray],
    ) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        starts = np.asarray(starts_ms, dtype=float)
        count = len(starts)
        timeline = np.zeros((count, len(positions)))
        if count == 0 or duration_ms <= 0:
            return timeline
        # Burst occupancy: each window overlaps at most the burst of its
        # own period (row 0) and the previous period's spill-over (row
        # 1); the memoized per-period offsets keep the draw
        # deterministic, and a period before the first (index -1) has no
        # burst (start -inf).  Only the comparison with the decode
        # threshold reads the occupancy.
        own = np.floor_divide(starts, self.period_ms).astype(np.int64).tolist()
        burst_starts = np.array([
            [
                index * self.period_ms + self._burst_offset(index) if index >= 0 else -np.inf
                for index in row
            ]
            for row in (own, [index - 1 for index in own])
        ])
        overlap = np.minimum(starts + duration_ms, burst_starts + self.burst_ms)
        overlap -= np.maximum(starts, burst_starts)
        np.maximum(overlap, 0.0, out=overlap)
        occupancy = (overlap[0] + overlap[1]) / duration_ms
        jams = occupancy > BURST_OVERLAP_DECODE_THRESHOLD
        if jams.any():
            if isinstance(channels, (int, np.integer)):
                spectral = self._spectral_factor(int(channels))
            else:
                jammed_channels = np.asarray(channels)[jams].tolist()
                spectral = np.array(
                    [self._spectral_factor(channel) for channel in jammed_channels]
                )[:, None]
            spatial = self._spatial_factor_batch(positions)
            timeline[jams] = np.minimum(1.0, spectral * spatial)
        return timeline


@dataclass
class AmbientInterference(InterferenceSource):
    """Uncontrolled office WiFi / Bluetooth interference during work hours.

    Models the low-rate background losses observed on the 18-node
    testbed during the day: with probability ``rate`` per ``window_ms``
    window, a short burst (a WiFi beacon / Bluetooth exchange of a few
    milliseconds) occupies the medium and corrupts the frames that
    overlap it.  The bursts are deterministic per window (seeded), so
    identical simulation times see identical ambient conditions —
    exactly what the paper's back-to-back trace collection relies on.
    """

    rate: float = 0.08
    burst_ms: float = 4.0
    seed: int = 11
    window_ms: float = 60.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.window_ms <= 0:
            raise ValueError("window_ms must be positive")
        if not 0.0 < self.burst_ms <= self.window_ms:
            raise ValueError("burst_ms must be in (0, window_ms]")
        #: Memoized per-window bursts; each is a pure function of
        #: (seed, window index), so caching cannot change results.
        self._window_cache: dict = {}

    def _window_burst(self, window_index: int) -> Optional[Tuple[float, float]]:
        """Burst interval of a window, or ``None`` when the window is clean."""
        if window_index < 0:
            return None
        if window_index in self._window_cache:
            return self._window_cache[window_index]
        rng = np.random.default_rng((self.seed, window_index))
        if rng.random() >= self.rate:
            burst = None
        else:
            offset = float(rng.uniform(0.0, self.window_ms - self.burst_ms))
            start = window_index * self.window_ms + offset
            burst = (start, start + self.burst_ms)
        if len(self._window_cache) >= 4096:
            self._window_cache.clear()
        self._window_cache[window_index] = burst
        return burst

    def penalty_windows(
        self,
        positions: np.ndarray,
        starts_ms: np.ndarray,
        duration_ms: float,
        channels: Union[int, np.ndarray],
    ) -> np.ndarray:
        # Position- and channel-independent: bursts corrupt the whole
        # deployment equally, so the per-window predicate broadcasts
        # across receivers.  Every window is tested against the bursts
        # of every memoized window-index the windows could overlap, in
        # one broadcast; windows outside a burst's own range get an
        # overlap of at most 0, so a window sees exactly the bursts of
        # its own range.
        positions = np.asarray(positions, dtype=float)
        starts = np.asarray(starts_ms, dtype=float)
        count = len(starts)
        if count == 0:
            return np.zeros((0, len(positions)))
        jammed = np.zeros(count, dtype=bool)
        if duration_ms > 0:
            ends = starts + duration_ms
            first_window = int(starts.min() // self.window_ms) - 1
            last_window = int(ends.max() // self.window_ms)
            bursts = [
                burst
                for burst in map(self._window_burst, range(first_window, last_window + 1))
                if burst is not None
            ]
            if bursts:
                edges = np.array(bursts)
                overlap = np.minimum(ends[:, None], edges[:, 1])
                overlap -= np.maximum(starts[:, None], edges[:, 0])
                np.maximum(overlap, 0.0, out=overlap)
                overlap /= duration_ms
                jammed = (overlap > BURST_OVERLAP_DECODE_THRESHOLD).any(axis=1)
        timeline = np.zeros((count, len(positions)))
        timeline[jammed] = 1.0
        return timeline


@dataclass
class CompositeInterference(InterferenceSource):
    """Combination of several interference sources.

    Corruption events from different sources are treated as independent:
    the combined penalty is ``1 - prod(1 - p_i)``.
    """

    sources: List[InterferenceSource] = field(default_factory=list)

    def add(self, source: InterferenceSource) -> None:
        """Register an additional interference source."""
        self.sources.append(source)

    def penalty_windows(
        self,
        positions: np.ndarray,
        starts_ms: np.ndarray,
        duration_ms: float,
        channels: Union[int, np.ndarray],
    ) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        return combine_penalties(
            penalty_windows_of(self.sources, positions, starts_ms, duration_ms, channels),
            (len(np.asarray(starts_ms)), len(positions)),
        )
