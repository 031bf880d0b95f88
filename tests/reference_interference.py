"""Scalar reference formulation of the interference sources.

``src/`` evaluates interference one way: each source's
:meth:`~repro.net.interference.InterferenceSource.penalty_windows`, the
penalties of many reception windows at many positions in one NumPy
call.  This module keeps the readable one-window, one-position
formulation those are checked against:

* :func:`penalty` — the penalty in [0, 1] of one reception attempt at
  one position, time window and channel, for every built-in source
  (:class:`CompositeInterference` combines its sources as independent
  corruption events, ``1 - prod(1 - p_i)``);
* :func:`is_active` — whether a source can emit at all;
* the burst-overlap helpers the scalar penalties use.

``tests/test_interference.py`` pins every built-in ``penalty_windows``
to :func:`penalty` by exact equality, and the per-node flood loop
(``run_reference`` in ``tests/reference_flood.py``) draws with it.
"""

from __future__ import annotations

import functools
import math

from repro.net.interference import (
    BURST_OVERLAP_DECODE_THRESHOLD,
    AmbientInterference,
    BurstJammer,
    CompositeInterference,
    InterferenceSource,
    NoInterference,
    WifiInterference,
)
from repro.net.topology import Position


def interval_overlap(a_start: float, a_end: float, b_start: float, b_end: float) -> float:
    """Length of the overlap between intervals [a_start, a_end) and [b_start, b_end)."""
    return max(0.0, min(a_end, b_end) - max(a_start, b_start))


# ----------------------------------------------------------------------
# Activity
# ----------------------------------------------------------------------
@functools.singledispatch
def is_active(source: InterferenceSource, time_ms: float) -> bool:
    """Whether ``source`` can emit at all at ``time_ms`` (default: yes)."""
    return True


@is_active.register
def _(source: NoInterference, time_ms: float) -> bool:
    return False


@is_active.register
def _(source: BurstJammer, time_ms: float) -> bool:
    return source.interference_ratio > 0.0


@is_active.register
def _(source: CompositeInterference, time_ms: float) -> bool:
    return any(is_active(inner, time_ms) for inner in source.sources)


# ----------------------------------------------------------------------
# Burst occupancy
# ----------------------------------------------------------------------
def burst_overlap_fraction(jammer: BurstJammer, start_ms: float, duration_ms: float) -> float:
    """Fraction of the window [start, start+duration) covered by the jammer's bursts."""
    if duration_ms <= 0:
        return 0.0
    period = jammer.period_ms
    if math.isinf(period):
        return 0.0
    origin = jammer.phase_ms
    end_ms = start_ms + duration_ms
    first_burst = math.floor((start_ms - origin) / period) - 1
    last_burst = math.ceil((end_ms - origin) / period) + 1
    covered = 0.0
    for k in range(int(first_burst), int(last_burst) + 1):
        burst_start = origin + k * period
        covered += interval_overlap(start_ms, end_ms, burst_start, burst_start + jammer.burst_ms)
    return min(1.0, covered / duration_ms)


def wifi_burst_active(wifi: WifiInterference, start_ms: float, duration_ms: float) -> float:
    """Pseudo-random burst occupancy of the window, seeded per period."""
    if duration_ms <= 0:
        return 0.0
    period_index = int(start_ms // wifi.period_ms)
    overlap = 0.0
    # Consider the burst of this period and the previous one spilling in.
    for index in (period_index, period_index - 1):
        if index < 0:
            continue
        burst_start = index * wifi.period_ms + wifi._burst_offset(index)
        overlap += interval_overlap(
            start_ms, start_ms + duration_ms, burst_start, burst_start + wifi.burst_ms
        )
    return min(1.0, overlap / duration_ms)


# ----------------------------------------------------------------------
# Spatial attenuation
# ----------------------------------------------------------------------
def jammer_spatial_factor(jammer: BurstJammer, position: Position) -> float:
    """Attenuation of the jamming effect with distance from the jammer."""
    dx = position[0] - jammer.position[0]
    dy = position[1] - jammer.position[1]
    distance = math.hypot(dx, dy)
    if distance <= jammer.range_m:
        return 1.0
    if distance >= 2.0 * jammer.range_m:
        return 0.0
    return 1.0 - (distance - jammer.range_m) / jammer.range_m


def wifi_spatial_factor(wifi: WifiInterference, position: Position) -> float:
    """Strongest attenuated access-point field at ``position``."""
    if wifi.positions is None:
        return 1.0
    best = 0.0
    for ap in wifi.positions:
        distance = math.hypot(position[0] - ap[0], position[1] - ap[1])
        if distance <= wifi.range_m:
            best = max(best, 1.0)
        elif distance < 2.0 * wifi.range_m:
            best = max(best, 1.0 - (distance - wifi.range_m) / wifi.range_m)
    return best


# ----------------------------------------------------------------------
# Penalty of one reception attempt
# ----------------------------------------------------------------------
@functools.singledispatch
def penalty(
    source: InterferenceSource,
    position: Position,
    start_ms: float,
    duration_ms: float,
    channel: int,
) -> float:
    """Degradation of a reception attempt at ``position``.

    ``start_ms`` and ``duration_ms`` give the attempt's window on the
    global clock, ``channel`` its IEEE 802.15.4 channel.  Returns the
    probability in [0, 1] that ``source`` corrupts the attempt.
    """
    raise TypeError(f"no reference penalty for {type(source).__name__}")


@penalty.register
def _(source: NoInterference, position, start_ms, duration_ms, channel) -> float:
    return 0.0


@penalty.register
def _(source: BurstJammer, position, start_ms, duration_ms, channel) -> float:
    if source.interference_ratio <= 0.0:
        return 0.0
    if source.channels is not None and channel not in source.channels:
        return 0.0
    spatial = jammer_spatial_factor(source, position)
    if spatial <= 0.0:
        return 0.0
    overlap = burst_overlap_fraction(source, start_ms, duration_ms)
    # A 0 dBm burst overlapping more than a sliver of the frame
    # corrupts it essentially deterministically at receivers within
    # range (the jammer is as strong as the transmitters); a clip of
    # only a few percent of the frame tail may still be decodable.
    if overlap <= BURST_OVERLAP_DECODE_THRESHOLD:
        return 0.0
    return spatial


@penalty.register
def _(source: WifiInterference, position, start_ms, duration_ms, channel) -> float:
    spectral = source._spectral_factor(channel)
    if spectral <= 0.0:
        return 0.0
    spatial = wifi_spatial_factor(source, position)
    if spatial <= 0.0:
        return 0.0
    overlap = wifi_burst_active(source, start_ms, duration_ms)
    if overlap <= BURST_OVERLAP_DECODE_THRESHOLD:
        return 0.0
    return min(1.0, spectral * spatial)


@penalty.register
def _(source: AmbientInterference, position, start_ms, duration_ms, channel) -> float:
    end_ms = start_ms + duration_ms
    first_window = int(start_ms // source.window_ms) - 1
    last_window = int(end_ms // source.window_ms)
    for window_index in range(first_window, last_window + 1):
        burst = source._window_burst(window_index)
        if burst is None:
            continue
        overlap = interval_overlap(start_ms, end_ms, burst[0], burst[1])
        if duration_ms > 0 and overlap / duration_ms > BURST_OVERLAP_DECODE_THRESHOLD:
            return 1.0
    return 0.0


@penalty.register
def _(source: CompositeInterference, position, start_ms, duration_ms, channel) -> float:
    survival = 1.0
    for inner in source.sources:
        survival *= 1.0 - penalty(inner, position, start_ms, duration_ms, channel)
    return 1.0 - survival
