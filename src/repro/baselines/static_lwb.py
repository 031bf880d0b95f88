"""Static LWB baseline.

Plain LWB as used throughout the paper's comparisons: a fixed
``N_TX = 3`` for every flood, a single channel (26), no feedback
headers, no adaptation of any kind.  Under interference its reliability
collapses and its radio-on time grows only because receptions take
longer and nodes lose synchronization — it never reacts.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.net.glossy import RoundSteps
from repro.net.lwb import RoundResult
from repro.net.simulator import NetworkSimulator


class StaticLWBProtocol:
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

    def run_round(
        self,
        sources: Optional[Sequence[int]] = None,
        destinations: Optional[Sequence[int]] = None,
    ) -> RoundResult:
        """Execute one LWB round with the fixed parameter."""
        schedule = self.simulator.build_schedule(n_tx=self.n_tx, sources=sources)
        return self.simulator.run_round(
            schedule=schedule,
            collect_feedback=False,
            destinations=destinations,
        )

    def round_steps(
        self,
        sources: Optional[Sequence[int]] = None,
        destinations: Optional[Sequence[int]] = None,
    ) -> RoundSteps:
        """:meth:`run_round` as steps a lock-step driver can interleave."""
        schedule = self.simulator.build_schedule(n_tx=self.n_tx, sources=sources)
        return (
            yield from self.simulator.round_steps(
                schedule=schedule,
                collect_feedback=False,
                destinations=destinations,
            )
        )

    def run(
        self,
        num_rounds: int,
        sources: Optional[Sequence[int]] = None,
        destinations: Optional[Sequence[int]] = None,
    ) -> List[RoundResult]:
        """Execute ``num_rounds`` consecutive rounds."""
        if num_rounds < 0:
            raise ValueError("num_rounds must be non-negative")
        return [self.run_round(sources=sources, destinations=destinations) for _ in range(num_rounds)]
