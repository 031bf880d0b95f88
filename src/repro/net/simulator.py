"""Network simulator.

:class:`NetworkSimulator` is the stateful substrate every protocol in
this repository (Dimmer, static LWB, the PID baseline, Crystal) drives:
it owns the topology, the per-node state, the link and radio models,
the channel hopper, the interference environment and the global clock,
and executes LWB rounds on request.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.net.channels import ChannelHopper
from repro.net.energy import EnergyModel, RadioOnLedger
from repro.net.glossy import FLOOD_ENGINES, RoundSteps, run_steps
from repro.net.interference import InterferenceSource, NoInterference
from repro.net.link import LinkModel
from repro.net.lwb import LWBRoundEngine, RoundResult, Schedule, average_reliability
from repro.net.node import NodeRole, NodeStateArray
from repro.net.radio import RadioModel
from repro.net.topology import Topology


@dataclass
class SimulatorConfig:
    """Static configuration of a simulation run.

    The defaults reproduce the parameters listed in §V-A of the paper:
    4-second rounds, 20 ms slots, 30-byte packets, 0 dBm transmission
    power, broadcast traffic from every device.
    """

    round_period_s: float = 4.0
    slot_ms: float = 20.0
    slot_gap_ms: float = 2.0
    packet_bytes: int = 30
    tx_power_dbm: float = 0.0
    default_n_tx: int = 3
    channel_hopping: bool = True
    #: Flood engine: ``"scalar"`` (per-node reference) or
    #: ``"vectorized"`` (default: exact batched reception kernel; see
    #: ``docs/engine_and_runner.md``).  The ``REPRO_ENGINE``
    #: environment variable overrides the default, which is how CI runs
    #: the whole suite under the scalar reference engine as well.
    engine: str = field(default_factory=lambda: os.environ.get("REPRO_ENGINE", "vectorized"))
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.round_period_s <= 0:
            raise ValueError("round_period_s must be positive")
        if self.slot_ms <= 0:
            raise ValueError("slot_ms must be positive")
        if self.default_n_tx < 0:
            raise ValueError("default_n_tx must be non-negative")
        if self.engine not in FLOOD_ENGINES:
            raise ValueError(f"engine must be one of {FLOOD_ENGINES}, got {self.engine!r}")

    @property
    def round_period_ms(self) -> float:
        """Round period in milliseconds."""
        return self.round_period_s * 1000.0


class NetworkSimulator:
    """Simulated low-power wireless deployment running LWB rounds.

    Parameters
    ----------
    topology:
        Deployment layout.
    config:
        Timing and radio parameters.
    interference:
        Interference environment (defaults to none); can be swapped at
        any time through :meth:`set_interference`.
    sources:
        Nodes generating traffic.  Defaults to every node (the paper's
        18-node broadcast scenario); the D-Cube scenario uses a subset.
    """

    def __init__(
        self,
        topology: Topology,
        config: Optional[SimulatorConfig] = None,
        interference: Optional[InterferenceSource] = None,
        sources: Optional[Sequence[int]] = None,
    ) -> None:
        self.topology = topology
        self.config = config if config is not None else SimulatorConfig()
        self.interference = interference if interference is not None else NoInterference()
        self.sources: List[int] = (
            list(sources) if sources is not None else list(topology.node_ids)
        )
        for source in self.sources:
            if source not in topology.positions:
                raise ValueError(f"source {source} is not part of the topology")

        self.rng = np.random.default_rng(self.config.seed)
        self.radio = RadioModel()
        self.link_model = LinkModel(
            topology,
            tx_power_dbm=self.config.tx_power_dbm,
            seed=None if self.config.seed is None else self.config.seed + 1,
        )
        self.hopper = ChannelHopper(enabled=self.config.channel_hopping)
        self.engine = LWBRoundEngine(
            topology,
            link_model=self.link_model,
            radio=self.radio,
            hopper=self.hopper,
            slot_ms=self.config.slot_ms,
            slot_gap_ms=self.config.slot_gap_ms,
            packet_bytes=self.config.packet_bytes,
            rng=self.rng,
            engine=self.config.engine,
        )
        self.energy_model = EnergyModel(self.radio)

        #: All per-node state lives in one struct-of-arrays store.
        self.node_state = NodeStateArray(
            topology.node_ids,
            coordinator=topology.coordinator,
            default_n_tx=self.config.default_n_tx,
        )

        self.current_round: int = 0
        self.time_ms: float = 0.0
        self.round_history: List[RoundResult] = []
        #: Lifetime radio-on accounting, for energy reporting — one
        #: array-backed ledger for the whole network.
        self.radio_on_totals = RadioOnLedger(topology.num_nodes)

    # ------------------------------------------------------------------
    # Environment control
    # ------------------------------------------------------------------
    def set_interference(self, interference: InterferenceSource) -> None:
        """Replace the interference environment (scenario scripting)."""
        self.interference = interference

    def set_sources(self, sources: Sequence[int]) -> None:
        """Replace the set of traffic sources."""
        for source in sources:
            if source not in self.topology.positions:
                raise ValueError(f"source {source} is not part of the topology")
        self.sources = list(sources)

    def set_role(self, node_id: int, role: NodeRole) -> None:
        """Set the role of a node (used by the forwarder selection)."""
        self.node_state.set_role(node_id, role)

    def active_forwarders(self) -> List[int]:
        """Nodes currently acting as forwarders (coordinator included)."""
        return self.node_state.forwarder_ids()

    def passive_receivers(self) -> List[int]:
        """Nodes currently acting as passive receivers."""
        return self.node_state.passive_ids()

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def build_schedule(
        self,
        n_tx: int,
        forwarder_selection: bool = False,
        learning_node: Optional[int] = None,
        sources: Optional[Sequence[int]] = None,
    ) -> Schedule:
        """Build the schedule of the next round.

        The coordinator assigns one data slot to every traffic source,
        in node-id order (the schedule is what makes LWB contention-free).
        """
        slot_sources = list(sources) if sources is not None else list(self.sources)
        return Schedule(
            round_index=self.current_round,
            n_tx=n_tx,
            slots=tuple(slot_sources),
            forwarder_selection=forwarder_selection,
            learning_node=learning_node,
        )

    def run_round(
        self,
        schedule: Optional[Schedule] = None,
        n_tx: Optional[int] = None,
        collect_feedback: bool = True,
        destinations: Optional[Sequence[int]] = None,
    ) -> RoundResult:
        """Execute the next round and advance the global clock.

        Either pass a fully-built ``schedule`` or just the global
        ``n_tx`` to apply (a default schedule over all sources is built).
        Runs :meth:`round_steps`, each flood request at once
        (:func:`~repro.net.glossy.run_steps`).
        """
        return run_steps(self.round_steps(schedule, n_tx, collect_feedback, destinations))

    def round_steps(
        self,
        schedule: Optional[Schedule] = None,
        n_tx: Optional[int] = None,
        collect_feedback: bool = True,
        destinations: Optional[Sequence[int]] = None,
    ) -> RoundSteps:
        """:meth:`run_round` as steps (see :meth:`LWBRoundEngine.round_steps`).

        Yields the round's flood requests and returns its
        :class:`RoundResult` after the clock and the ledgers advanced.
        """
        if schedule is None:
            schedule = self.build_schedule(
                n_tx=self.config.default_n_tx if n_tx is None else n_tx
            )
        result = yield from self.engine.round_steps(
            self.node_state, schedule, self.time_ms, self.interference, collect_feedback,
            destinations,
        )
        num_slots = len(result.schedule.slots) + 1
        # Account each slot of the round in the lifetime ledger so that
        # "radio-on time per slot" statistics include every slot.
        self.radio_on_totals.record_round(result.radio_on_array / num_slots, num_slots)

        self.round_history.append(result)
        self.current_round += 1
        self.time_ms += self.config.round_period_ms
        return result

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def total_energy_j(self) -> float:
        """Total radio energy spent by the whole network so far (joules)."""
        return self.energy_model.energy_j(float(self.radio_on_totals.total_ms.sum()))

    def average_radio_on_ms(self) -> float:
        """Per-slot radio-on time averaged over all nodes and all slots."""
        totals = self.radio_on_totals
        slots = totals.slot_count * totals.total_ms.size
        if slots == 0:
            return 0.0
        return float(totals.total_ms.sum()) / slots

    def average_reliability(self, last_n_rounds: Optional[int] = None) -> float:
        """Reliability averaged over the (last ``n``) executed rounds."""
        history = self.round_history
        if last_n_rounds is not None:
            history = history[-last_n_rounds:]
        return average_reliability(history)

    def reset_history(self) -> None:
        """Forget accumulated history and energy (start of an experiment)."""
        self.round_history.clear()
        self.radio_on_totals.reset()


class RoundProtocol:
    """Base of the protocols that run LWB rounds on a :class:`NetworkSimulator`.

    A subclass sets ``simulator`` and defines ``round_steps(sources,
    destinations)`` and a ``run_round`` that drives it
    (``run_steps(self.round_steps(...))``) in its own class body, where
    perfbench's layer tracer finds it; :meth:`run` is shared.
    """

    simulator: NetworkSimulator

    def run(
        self,
        num_rounds: int,
        sources: Optional[Sequence[int]] = None,
        destinations: Optional[Sequence[int]] = None,
    ) -> List[RoundResult]:
        """Execute ``num_rounds`` consecutive rounds and return their results."""
        if num_rounds < 0:
            raise ValueError("num_rounds must be non-negative")
        return [self.run_round(sources=sources, destinations=destinations) for _ in range(num_rounds)]
