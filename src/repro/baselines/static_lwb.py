"""Static LWB baseline.

Plain LWB as used throughout the paper's comparisons: a fixed
``N_TX = 3`` for every flood, a single channel (26), no feedback
headers, no adaptation of any kind.  Under interference its reliability
collapses and its radio-on time grows only because receptions take
longer and nodes lose synchronization — it never reacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.net.lwb import RoundHistoryAverages, RoundResult
from repro.net.simulator import NetworkSimulator


@dataclass(frozen=True)
class StaticRoundSummary:
    """Per-round digest of the static LWB baseline."""

    round_index: int
    time_s: float
    n_tx: int
    reliability: float
    average_radio_on_ms: float
    had_losses: bool
    result: RoundResult


class StaticLWBProtocol(RoundHistoryAverages):
    """LWB with a fixed retransmission parameter.

    Parameters
    ----------
    simulator:
        Deployment to run on.  For a faithful baseline the simulator
        should be configured without channel hopping (plain LWB is
        single-channel); this class does not enforce it so that ablation
        studies can combine a static ``N_TX`` with hopping.
    n_tx:
        Fixed retransmission parameter (3 in every paper experiment).
    """

    def __init__(self, simulator: NetworkSimulator, n_tx: int = 3) -> None:
        if n_tx < 1:
            raise ValueError("n_tx must be at least 1")
        self.simulator = simulator
        self.n_tx = n_tx
        self.history: List[StaticRoundSummary] = []

    def run_round(
        self,
        sources: Optional[Sequence[int]] = None,
        destinations: Optional[Sequence[int]] = None,
    ) -> StaticRoundSummary:
        """Execute one LWB round with the fixed parameter."""
        schedule = self.simulator.build_schedule(n_tx=self.n_tx, sources=sources)
        time_s = self.simulator.time_ms / 1000.0
        result = self.simulator.run_round(
            schedule=schedule,
            collect_feedback=False,
            destinations=destinations,
        )
        summary = StaticRoundSummary(
            round_index=result.round_index,
            time_s=time_s,
            n_tx=self.n_tx,
            reliability=result.reliability,
            average_radio_on_ms=result.average_radio_on_ms,
            had_losses=result.had_losses,
            result=result,
        )
        self.history.append(summary)
        return summary

    def run(
        self,
        num_rounds: int,
        sources: Optional[Sequence[int]] = None,
        destinations: Optional[Sequence[int]] = None,
    ) -> List[StaticRoundSummary]:
        """Execute ``num_rounds`` consecutive rounds."""
        if num_rounds < 0:
            raise ValueError("num_rounds must be non-negative")
        return [self.run_round(sources=sources, destinations=destinations) for _ in range(num_rounds)]
