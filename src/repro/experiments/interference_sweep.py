"""Fig. 5a / 5b — adaptivity to intermediate interference levels (§V-C).

Dimmer, the PID baseline and static LWB (``N_TX = 3``) run against
continuous, static interference at ratios from 0 % to 35 %; the figure
reports reliability (5a) and radio-on time (5b) per ratio, averaged over
several independent runs, with standard deviations as error bars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.experiments.metrics import ExperimentMetrics

#: Interference ratios of Fig. 5 (0 % to 35 %).
PAPER_INTERFERENCE_RATIOS = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35)

#: Protocols compared in Fig. 5.
PAPER_PROTOCOLS = ("lwb", "dimmer", "pid")


@dataclass
class SweepPoint:
    """Metrics of one protocol at one interference ratio."""

    protocol: str
    interference_ratio: float
    metrics: ExperimentMetrics


@dataclass
class SweepResult:
    """Full Fig. 5 dataset: protocol x interference-ratio grid."""

    points: List[SweepPoint] = field(default_factory=list)

    def protocols(self) -> List[str]:
        """Protocols present in the sweep."""
        return sorted({point.protocol for point in self.points})

    def ratios(self) -> List[float]:
        """Interference ratios present in the sweep."""
        return sorted({point.interference_ratio for point in self.points})

    def series(self, protocol: str, metric: str = "reliability") -> List[float]:
        """One figure line: the metric of ``protocol`` for every ratio."""
        values = []
        for ratio in self.ratios():
            for point in self.points:
                if point.protocol == protocol and point.interference_ratio == ratio:
                    values.append(getattr(point.metrics, metric))
                    break
        return values

    def point(self, protocol: str, ratio: float) -> SweepPoint:
        """Look up a single grid point."""
        for entry in self.points:
            if entry.protocol == protocol and entry.interference_ratio == ratio:
                return entry
        raise KeyError(f"no sweep point for {protocol!r} at ratio {ratio}")
