"""Metric aggregation helpers shared by the experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np


@dataclass(frozen=True)
class ExperimentMetrics:
    """Aggregate of the paper's two headline metrics plus energy.

    Attributes
    ----------
    reliability:
        Fraction of expected packet receptions that succeeded.
    reliability_std:
        Standard deviation of the per-round reliability (the error bars
        of Fig. 5 and Fig. 7).
    radio_on_ms:
        Radio-on time per slot, averaged over nodes and slots.
    radio_on_std_ms:
        Standard deviation of the per-round radio-on time.
    energy_j:
        Total network energy (only meaningful for experiments that track
        it, e.g. the D-Cube comparison of Fig. 7b).
    rounds:
        Number of rounds aggregated.
    """

    reliability: float
    reliability_std: float
    radio_on_ms: float
    radio_on_std_ms: float
    energy_j: float = 0.0
    rounds: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view, convenient for table printing."""
        return {
            "reliability": self.reliability,
            "reliability_std": self.reliability_std,
            "radio_on_ms": self.radio_on_ms,
            "radio_on_std_ms": self.radio_on_std_ms,
            "energy_j": self.energy_j,
            "rounds": float(self.rounds),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "ExperimentMetrics":
        """Inverse of :meth:`as_dict` (used to rebuild worker results)."""
        return cls(
            reliability=float(data["reliability"]),
            reliability_std=float(data["reliability_std"]),
            radio_on_ms=float(data["radio_on_ms"]),
            radio_on_std_ms=float(data["radio_on_std_ms"]),
            energy_j=float(data.get("energy_j", 0.0)),
            rounds=int(data.get("rounds", 0)),
        )


def summarize_rounds(
    reliabilities: Sequence[float],
    radio_on_ms: Sequence[float],
    energy_j: float = 0.0,
) -> ExperimentMetrics:
    """Aggregate per-round reliability and radio-on series into metrics."""
    if len(reliabilities) != len(radio_on_ms):
        raise ValueError("reliabilities and radio_on_ms must have the same length")
    if len(reliabilities) == 0:
        return ExperimentMetrics(1.0, 0.0, 0.0, 0.0, energy_j, 0)
    rel = np.asarray(reliabilities, dtype=float)
    radio = np.asarray(radio_on_ms, dtype=float)
    return ExperimentMetrics(
        reliability=float(rel.mean()),
        reliability_std=float(rel.std()),
        radio_on_ms=float(radio.mean()),
        radio_on_std_ms=float(radio.std()),
        energy_j=float(energy_j),
        rounds=len(reliabilities),
    )


def aggregate_experiment_metrics(per_run: Sequence[ExperimentMetrics]) -> ExperimentMetrics:
    """Average several independent runs of the same grid point.

    Means and standard deviations are taken across runs (the paper's
    error bars over repeated 30-minute runs); ``rounds`` accumulates.
    """
    if not per_run:
        return ExperimentMetrics(1.0, 0.0, 0.0, 0.0, 0.0, 0)
    return ExperimentMetrics(
        reliability=float(np.mean([m.reliability for m in per_run])),
        reliability_std=float(np.std([m.reliability for m in per_run])),
        radio_on_ms=float(np.mean([m.radio_on_ms for m in per_run])),
        radio_on_std_ms=float(np.std([m.radio_on_ms for m in per_run])),
        energy_j=float(np.mean([m.energy_j for m in per_run])),
        rounds=sum(m.rounds for m in per_run),
    )


def summarize_round_results(results: Sequence, energy_j: float = 0.0) -> ExperimentMetrics:
    """Aggregate a list of :class:`~repro.net.lwb.RoundResult` directly.

    The per-round reliability and radio-on aggregates are array
    reductions, so a whole experiment history summarizes without
    per-node Python loops.
    """
    count = len(results)
    reliabilities = np.fromiter((r.reliability for r in results), dtype=float, count=count)
    radio_on = np.fromiter((r.average_radio_on_ms for r in results), dtype=float, count=count)
    return summarize_rounds(reliabilities, radio_on, energy_j=energy_j)


@dataclass
class TimeSeries:
    """A labelled time series (one line of a timeline figure)."""

    label: str
    times_s: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def append(self, time_s: float, value: float) -> None:
        """Append one sample."""
        self.times_s.append(float(time_s))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        """Mean of the series values (0.0 when empty)."""
        return float(np.mean(self.values)) if self.values else 0.0

    def window_average(self, start_s: float, end_s: float) -> float:
        """Mean of the values whose timestamps fall within [start_s, end_s)."""
        selected = [
            value
            for time_s, value in zip(self.times_s, self.values)
            if start_s <= time_s < end_s
        ]
        return float(np.mean(selected)) if selected else 0.0
