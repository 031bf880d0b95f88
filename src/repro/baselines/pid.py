"""PI(D) controller baseline.

PID controllers are the go-to approach for closed-loop control and the
paper's representative of "traditional" adaptivity.  The baseline is a
PI controller (K_P = 1, K_I = 0.25, no derivative term) driving the
global retransmission parameter from the network-wide reliability the
coordinator observes, tuned — like in the paper — to maximize
reliability first and save energy only when reliability is at 100 %.

Its characteristic behaviour, reproduced here, is what Fig. 4d and
Fig. 5 show: it reacts to losses by overshooting to the maximum
retransmission count, is unable to quantify the interference level, and
converges back only slowly once interference has passed because of its
integral term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.statistics import GlobalView, StatisticsCollector
from repro.net.glossy import RoundSteps
from repro.net.lwb import RoundResult
from repro.net.simulator import NetworkSimulator


@dataclass
class PIDConfig:
    """Gains and operating range of the PI(D) baseline."""

    kp: float = 1.0
    ki: float = 0.25
    kd: float = 0.0
    target_reliability: float = 1.0
    n_min: int = 1
    n_max: int = 8
    initial_n_tx: int = 3
    #: Error values are expressed in retransmission units: a reliability
    #: deficit of 100 % maps to ``n_max`` missing retransmissions.
    error_scale: Optional[float] = None
    #: Integral leak applied on loss-free rounds; this is what lets the
    #: controller creep back down towards energy-efficient settings.
    integral_decay: float = 0.97

    def __post_init__(self) -> None:
        if not 0 < self.n_min <= self.initial_n_tx <= self.n_max:
            raise ValueError("require 0 < n_min <= initial_n_tx <= n_max")
        if not 0.0 < self.target_reliability <= 1.0:
            raise ValueError("target_reliability must be in (0, 1]")
        if not 0.0 < self.integral_decay <= 1.0:
            raise ValueError("integral_decay must be in (0, 1]")
        if self.error_scale is None:
            self.error_scale = float(self.n_max)


class PIController:
    """Discrete PI(D) controller over the retransmission parameter.

    The controller state is the integral term; its output is mapped to
    an integer ``N_TX`` clamped to the configured range.  Anti-windup
    clamps the integral so that long interference episodes do not leave
    the controller saturated for ever.
    """

    def __init__(self, config: Optional[PIDConfig] = None) -> None:
        self.config = config if config is not None else PIDConfig()
        # Seed the integral so the initial output equals initial_n_tx.
        self._integral = self.config.initial_n_tx / self.config.ki if self.config.ki else 0.0
        self._previous_error = 0.0
        self.n_tx = self.config.initial_n_tx

    @property
    def integral(self) -> float:
        """Current value of the integral term."""
        return self._integral

    def update(self, reliability: float) -> int:
        """Feed one reliability measurement and return the new ``N_TX``."""
        if not 0.0 <= reliability <= 1.0:
            raise ValueError("reliability must be in [0, 1]")
        config = self.config
        error = (config.target_reliability - reliability) * config.error_scale

        if error <= 0.0:
            # Loss-free round: leak the integral so the controller slowly
            # searches for a cheaper operating point.
            self._integral *= config.integral_decay
        else:
            self._integral += error
        # Anti-windup.
        if config.ki > 0.0:
            upper = config.n_max / config.ki
            lower = config.n_min / config.ki
            self._integral = min(max(self._integral, lower), upper)

        derivative = error - self._previous_error
        self._previous_error = error
        output = config.kp * error + config.ki * self._integral + config.kd * derivative
        self.n_tx = int(round(min(max(output, config.n_min), config.n_max)))
        return self.n_tx

    def reset(self) -> None:
        """Reset the controller to its initial operating point."""
        self._integral = (
            self.config.initial_n_tx / self.config.ki if self.config.ki else 0.0
        )
        self._previous_error = 0.0
        self.n_tx = self.config.initial_n_tx


class PIDProtocol:
    """Adaptive LWB driven by the PI(D) controller.

    Structurally identical to :class:`~repro.core.protocol.DimmerProtocol`
    — same feedback headers, same coordinator-side global view — but the
    decision at the end of each round comes from the PI controller
    instead of the DQN, and there is no forwarder selection.
    """

    def __init__(
        self,
        simulator: NetworkSimulator,
        config: Optional[PIDConfig] = None,
    ) -> None:
        self.simulator = simulator
        self.controller = PIController(config)
        self.statistics = StatisticsCollector(
            observer=simulator.topology.coordinator,
            expected_nodes=simulator.topology.node_ids,
        )

    @property
    def n_tx(self) -> int:
        """Retransmission parameter currently in force."""
        return self.controller.n_tx

    def run_round(
        self,
        sources: Optional[Sequence[int]] = None,
        destinations: Optional[Sequence[int]] = None,
    ) -> RoundResult:
        """Execute one round with the controller's current parameter."""
        schedule = self.simulator.build_schedule(n_tx=self.controller.n_tx, sources=sources)
        return self._observe(
            self.simulator.run_round(
                schedule=schedule, collect_feedback=True, destinations=destinations
            )
        )

    def round_steps(
        self,
        sources: Optional[Sequence[int]] = None,
        destinations: Optional[Sequence[int]] = None,
    ) -> RoundSteps:
        """:meth:`run_round` as steps a lock-step driver can interleave."""
        schedule = self.simulator.build_schedule(n_tx=self.controller.n_tx, sources=sources)
        return self._observe(
            (
                yield from self.simulator.round_steps(
                    schedule=schedule, collect_feedback=True, destinations=destinations
                )
            )
        )

    def _observe(self, result: RoundResult) -> RoundResult:
        """Feed a finished round to the controller."""
        view: GlobalView = self.statistics.build_view(result)
        # The PI baseline reacts to the worst node it knows about — that is
        # what makes it overshoot to the maximum retransmission count as
        # soon as losses are detected (Fig. 4d / Fig. 5b).
        self.controller.update(view.worst_reliability())
        return result

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
