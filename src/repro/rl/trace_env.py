"""Training environments for Dimmer's central adaptivity control.

The paper trains its DQN *offline*, on traces collected from the
physical testbed under controlled jamming: for every decision point the
alternative retransmission parameters are executed back to back so that
all actions experience (almost) identical wireless conditions.  The
resource-constrained motes never train, they only run inference on the
result.

Here the physical testbed is replaced by the network simulator, which
lets us go one step further: for every decision point we record the
outcome of *every* retransmission parameter under the same interference
conditions (one lock-stepped simulator per N_TX value).  Offline DQN
training then replays these traces without touching the simulator,
which keeps training fast and mirrors the paper's trace-based process.

Two environments are provided:

* :class:`SimulationEnvironment` — an online environment that drives a
  live :class:`~repro.net.simulator.NetworkSimulator`; used for
  evaluating trained agents (Fig. 4b episodes) and for sanity checks.
* :class:`TraceEnvironment` — an offline environment replaying a
  :class:`~repro.net.trace.TraceSet` recorded by :class:`TraceRecorder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.net.glossy import run_lockstep
from repro.net.lwb import RoundResult, observer_view_arrays
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import Topology, kiel_testbed
from repro.net.trace import TraceRecord, TraceSet
from repro.rl.environment import Environment, StepResult, apply_action
from repro.rl.features import FeatureConfig, FeatureEncoder
from repro.rl.reward import RewardConfig, compute_reward

#: An episode script: consecutive segments of (number of rounds,
#: interference ratio).  Ratio 0.0 means no controlled jamming (only the
#: ambient background, if enabled).
EpisodeSpec = Sequence[Tuple[int, float]]

#: Default library of training episodes: calm periods, light, mild and
#: heavy jamming, and transitions between them.  Mirrors the "different
#: times of day and frequencies" variety of the paper's trace collection.
DEFAULT_TRAINING_EPISODES: Tuple[EpisodeSpec, ...] = (
    ((14, 0.0),),
    ((4, 0.0), (8, 0.10), (4, 0.0)),
    ((4, 0.0), (8, 0.30), (4, 0.0)),
    ((3, 0.05), (8, 0.20), (3, 0.05)),
    ((8, 0.35), (6, 0.0)),
    ((4, 0.0), (4, 0.15), (4, 0.30), (4, 0.05)),
    ((5, 0.0), (5, 0.05), (5, 0.25), (5, 0.0)),
    ((6, 0.15), (6, 0.0), (6, 0.15)),
)


@dataclass(frozen=True)
class DecisionPoint:
    """All recorded outcomes for one round, keyed by retransmission parameter."""

    round_index: int
    outcomes: Dict[int, TraceRecord]
    interference_ratio: float = 0.0

    def outcome(self, n_tx: int) -> TraceRecord:
        """Outcome of the round when executed with ``n_tx`` retransmissions."""
        if n_tx not in self.outcomes:
            raise KeyError(f"no recorded outcome for N_TX={n_tx}")
        return self.outcomes[n_tx]

    @property
    def available_n_tx(self) -> List[int]:
        """Retransmission parameters recorded at this decision point."""
        return sorted(self.outcomes)


class SimulationEnvironment(Environment):
    """Online environment driving a live network simulator.

    Every step runs one full LWB round under the interference level of
    the current episode segment, applies the Eq. 3 reward and encodes
    the Table-I state.

    Parameters
    ----------
    topology:
        Deployment (defaults to the 18-node testbed used for training).
    feature_config, reward_config:
        State encoding and reward parameters.
    episodes:
        Library of episode scripts; ``reset`` cycles through it.
    ambient_rate:
        Background interference rate active in all segments.
    initial_n_tx:
        Retransmission parameter at the start of every episode (``None``
        draws it uniformly at random).
    seed:
        Master seed; each episode re-seeds its simulator deterministically.
    """

    def __init__(
        self,
        topology: Optional[Topology] = None,
        feature_config: Optional[FeatureConfig] = None,
        reward_config: Optional[RewardConfig] = None,
        episodes: Sequence[EpisodeSpec] = DEFAULT_TRAINING_EPISODES,
        ambient_rate: float = 0.02,
        initial_n_tx: Optional[int] = 3,
        round_period_s: float = 4.0,
        seed: Optional[int] = None,
    ) -> None:
        self.topology = topology if topology is not None else kiel_testbed()
        self.feature_config = feature_config if feature_config is not None else FeatureConfig()
        self.reward_config = reward_config if reward_config is not None else RewardConfig(
            n_max=self.feature_config.n_max
        )
        if not episodes:
            raise ValueError("at least one episode script is required")
        self.episodes = tuple(tuple(spec) for spec in episodes)
        self.ambient_rate = ambient_rate
        self.initial_n_tx = initial_n_tx
        self.round_period_s = round_period_s
        self._rng = np.random.default_rng(seed)
        self._episode_counter = 0
        self._seed = seed if seed is not None else 0

        self.encoder = FeatureEncoder(self.feature_config)
        self.simulator: Optional[NetworkSimulator] = None
        self.n_tx = initial_n_tx if initial_n_tx is not None else 3
        self._segments: List[Tuple[int, float]] = []
        self._segment_index = 0
        self._rounds_left_in_segment = 0
        self._steps = 0
        self.last_reliability = 1.0
        self.last_radio_on_ms = 0.0

    @property
    def state_size(self) -> int:
        return self.feature_config.input_size

    # ------------------------------------------------------------------
    # Episode management
    # ------------------------------------------------------------------
    def _current_ratio(self) -> float:
        if not self._segments:
            return 0.0
        return self._segments[min(self._segment_index, len(self._segments) - 1)][1]

    def _advance_segment(self) -> None:
        self._rounds_left_in_segment -= 1
        while (
            self._rounds_left_in_segment <= 0
            and self._segment_index < len(self._segments) - 1
        ):
            self._segment_index += 1
            self._rounds_left_in_segment = self._segments[self._segment_index][0]

    def _apply_interference(self) -> None:
        assert self.simulator is not None
        from repro.experiments.scenarios import jamming_interference

        ratio = self._current_ratio()
        self.simulator.set_interference(
            jamming_interference(
                self.topology,
                ratio,
                ambient_rate=self.ambient_rate,
                seed=self._seed + self._episode_counter,
            )
        )

    def remaining_rounds(self) -> int:
        """Number of rounds left in the current episode."""
        if not self._segments:
            return 0
        remaining = self._rounds_left_in_segment
        for index in range(self._segment_index + 1, len(self._segments)):
            remaining += self._segments[index][0]
        return remaining

    def reset(self, episode: Optional[EpisodeSpec] = None) -> np.ndarray:
        """Start a new episode (optionally with an explicit script)."""
        spec = tuple(episode) if episode is not None else self.episodes[
            self._episode_counter % len(self.episodes)
        ]
        self._episode_counter += 1
        self._segments = [(int(rounds), float(ratio)) for rounds, ratio in spec]
        if not self._segments:
            raise ValueError("episode script must contain at least one segment")
        self._segment_index = 0
        self._rounds_left_in_segment = self._segments[0][0]
        self._steps = 0

        config = SimulatorConfig(
            round_period_s=self.round_period_s,
            channel_hopping=False,
            default_n_tx=3,
            seed=self._seed + 1000 + self._episode_counter,
        )
        self.simulator = NetworkSimulator(self.topology, config)
        self._apply_interference()
        self.encoder.reset_history()
        if self.initial_n_tx is None:
            self.n_tx = int(self._rng.integers(1, self.feature_config.n_max + 1))
        else:
            self.n_tx = self.initial_n_tx

        result = self.simulator.run_round(n_tx=self.n_tx)
        self.last_reliability = result.reliability
        self.last_radio_on_ms = result.average_radio_on_ms
        state = self._encode_result(result)
        self._advance_segment()
        return state

    def _encode_result(self, result: RoundResult) -> np.ndarray:
        """Encode a round outcome as the coordinator would see it.

        The state is built from the coordinator's feedback-based view
        (what the deployed DQN receives), not from the simulator's
        ground truth.
        """
        node_ids, reliabilities, radio_on, _ = observer_view_arrays(
            result,
            observer=self.topology.coordinator,
            pessimistic_radio_on_ms=self.simulator.config.slot_ms,
        )
        return self.encoder.encode_round_arrays(
            node_ids,
            reliabilities,
            radio_on,
            self.n_tx,
            result.had_losses,
        )

    def step(self, action: int) -> StepResult:
        """Apply an action, run one round and return the transition."""
        if self.simulator is None:
            raise RuntimeError("call reset() before step()")
        self.n_tx = apply_action(self.n_tx, action, n_max=self.feature_config.n_max, n_min=0)
        self._apply_interference()
        result = self.simulator.run_round(n_tx=self.n_tx)
        reward = compute_reward(self.n_tx, result.had_losses, self.reward_config)
        state = self._encode_result(result)
        self.last_reliability = result.reliability
        self.last_radio_on_ms = result.average_radio_on_ms
        self._steps += 1
        self._advance_segment()
        done = self.remaining_rounds() <= 0
        info = {
            "n_tx": self.n_tx,
            "reliability": result.reliability,
            "radio_on_ms": result.average_radio_on_ms,
            "interference_ratio": self._current_ratio(),
            "had_losses": result.had_losses,
        }
        return StepResult(state=state, reward=reward, done=done, info=info)


class TraceSlice(NamedTuple):
    """One (episode, N_TX) slice of the trace collection.

    :func:`record_episode_for_n_tx`'s arguments after the topology.
    """

    n_tx: int
    episode: EpisodeSpec
    ambient_rate: float
    round_period_s: float
    episode_seed: int
    interference_seed: int


def record_episodes(topology: Topology, slices: Sequence[TraceSlice]) -> List[List[Dict]]:
    """Run trace slices over one topology in lock-step; per-round payloads each.

    One simulator per slice; all advance round by round together, each
    round's control floods, then its data floods, of every slice run as
    one batched kernel call (:func:`~repro.net.glossy.run_lockstep`).
    Before each round every slice applies its own segment interference,
    and slices of shorter episodes drop out as they finish.  Every slice
    keeps its own generator, links and interference, so its payloads
    equal its solo run (:func:`record_episode_for_n_tx`) bit for bit.
    Each round is reduced to its payload as soon as it ends and its
    :class:`~repro.net.lwb.RoundResult` is dropped, so memory does not
    grow with the round count.
    """
    from repro.experiments.scenarios import jamming_interference

    simulators = [
        NetworkSimulator(
            topology,
            SimulatorConfig(
                round_period_s=piece.round_period_s,
                channel_hopping=False,
                default_n_tx=piece.n_tx,
                seed=piece.episode_seed,
            ),
        )
        for piece in slices
    ]
    # Per slice, the jamming ratio of every round and whether the round
    # opens a segment (where the segment's interference is built).
    plans = [
        [
            (float(ratio), offset == 0)
            for segment_rounds, ratio in piece.episode
            for offset in range(int(segment_rounds))
        ]
        for piece in slices
    ]
    records: List[List[Dict]] = [[] for _ in slices]
    for round_in_episode in range(max((len(plan) for plan in plans), default=0)):
        running = [e for e, plan in enumerate(plans) if round_in_episode < len(plan)]
        for e in running:
            piece, simulator = slices[e], simulators[e]
            ratio, segment_start = plans[e][round_in_episode]
            if segment_start:
                simulator.set_interference(
                    jamming_interference(
                        topology,
                        ratio,
                        ambient_rate=piece.ambient_rate,
                        seed=piece.interference_seed,
                    )
                )
        results = run_lockstep(
            [simulators[e].round_steps(n_tx=slices[e].n_tx) for e in running]
        )
        for e, result in zip(running, results):
            # Record what the coordinator would have seen (feedback
            # headers plus pessimistic fill-ins), so offline training
            # uses the same input distribution as the deployed protocol;
            # the loss flag stays ground truth since it only feeds the
            # training reward.
            node_ids, reliabilities, radio_on, _ = observer_view_arrays(
                result, observer=topology.coordinator
            )
            records[e].append(
                {
                    "node_ids": list(node_ids),
                    "reliabilities": reliabilities.tolist(),
                    "radio_on_ms": radio_on.tolist(),
                    "interference_ratio": plans[e][round_in_episode][0],
                    "had_losses": bool(result.had_losses),
                }
            )
            simulators[e].round_history.clear()
    return records


def record_episode_for_n_tx(
    topology: Topology,
    n_tx: int,
    episode: EpisodeSpec,
    ambient_rate: float,
    round_period_s: float,
    episode_seed: int,
    interference_seed: int,
) -> List[Dict]:
    """Run one episode with a fixed ``N_TX`` and return per-round payloads.

    The one-slice case of :func:`record_episodes`.  The payloads are
    plain JSON-able dicts (parallel ``node_ids`` / value arrays) so
    worker results can cross process boundaries and the runner's
    on-disk cache untouched.
    """
    (records,) = record_episodes(
        topology,
        [
            TraceSlice(
                n_tx, episode, ambient_rate, round_period_s, episode_seed, interference_seed
            )
        ],
    )
    return records


class TraceRecorder:
    """Records unlabeled training traces from lock-stepped simulations.

    For every round of every episode, ``N_max + 1`` simulators (one per
    retransmission parameter, all experiencing the same interference
    timeline) execute the round and their outcomes are stored.  The
    resulting :class:`~repro.net.trace.TraceSet` contains one
    :class:`~repro.net.trace.TraceRecord` per (round, N_TX) pair.

    Every (episode, N_TX) pair is one :class:`TraceSlice`, and the
    slices run in lock-step (:func:`record_episodes`): serially, all
    slices of the recording advance round by round together in the
    client; with a :class:`~repro.experiments.runner.ParallelRunner`
    passed to :meth:`record`, each slice is one ``trace_episode`` task
    and the runner deals them into one lock-step chunk per worker
    (results are identical to the serial path).

    Parameters
    ----------
    topology:
        Deployment to record on (defaults to the 18-node testbed).
    topology_spec:
        JSON-able spec of the topology (see
        :func:`~repro.experiments.runner.build_topology`), required for
        the parallel path so workers can rebuild the deployment;
        defaults to the 18-node testbed spec when ``topology`` is left
        at its default.
    """

    def __init__(
        self,
        topology: Optional[Topology] = None,
        n_max: int = 8,
        ambient_rate: float = 0.02,
        round_period_s: float = 4.0,
        seed: int = 0,
        topology_spec: Optional[Dict] = None,
    ) -> None:
        if n_max <= 0:
            raise ValueError("n_max must be positive")
        if topology is None and topology_spec is None:
            topology_spec = {"kind": "kiel"}
        self.topology = topology if topology is not None else kiel_testbed()
        self.topology_spec = topology_spec
        self.n_max = n_max
        self.ambient_rate = ambient_rate
        self.round_period_s = round_period_s
        self.seed = seed

    def _episode_payloads(
        self,
        episodes: Sequence[EpisodeSpec],
        repetitions: int,
        runner,
    ) -> Dict:
        """Per-(repetition, episode, n_tx) round payloads, in the client or on a runner."""
        keys, slices = [], []
        for repetition in range(repetitions):
            for episode_index, spec in enumerate(episodes):
                for n_tx in range(self.n_max + 1):
                    keys.append((repetition, episode_index, n_tx))
                    slices.append(
                        TraceSlice(
                            n_tx,
                            spec,
                            self.ambient_rate,
                            self.round_period_s,
                            episode_seed=self.seed + 101 * repetition + episode_index,
                            interference_seed=self.seed + episode_index,
                        )
                    )
        if runner is None:
            return dict(zip(keys, record_episodes(self.topology, slices)))
        if self.topology_spec is None:
            raise ValueError(
                "parallel trace recording needs a topology_spec so workers "
                "can rebuild the deployment"
            )
        from repro.api import Session
        from repro.experiments.spec import TraceEpisodeSpec

        specs = [
            TraceEpisodeSpec(
                topology=self.topology_spec,
                n_tx=piece.n_tx,
                episode=piece.episode,
                ambient_rate=piece.ambient_rate,
                round_period_s=piece.round_period_s,
                interference_seed=piece.interference_seed,
                seed=piece.episode_seed,
                label=f"trace[rep{repetition}/ep{episode_index}/ntx{n_tx}]",
            )
            for (repetition, episode_index, n_tx), piece in zip(keys, slices)
        ]
        results = Session(runner=runner).run_entries(specs)
        return {key: result["records"] for key, result in zip(keys, results)}

    def record(
        self,
        episodes: Sequence[EpisodeSpec] = DEFAULT_TRAINING_EPISODES,
        repetitions: int = 1,
        runner=None,
    ) -> TraceSet:
        """Run every episode ``repetitions`` times and collect the traces.

        Without ``runner``, every (repetition, episode, N_TX) slice runs
        in one :func:`record_episodes` call.  With ``runner`` set (a
        :class:`~repro.experiments.runner.ParallelRunner`), each slice
        is one ``trace_episode`` task, and the runner lock-steps the
        slices of each worker's chunk; the merged trace is identical to
        the serial result.
        """
        trace = TraceSet(metadata={
            "topology": self.topology.name,
            "n_max": str(self.n_max),
            "ambient_rate": str(self.ambient_rate),
        })
        payloads = self._episode_payloads(list(episodes), repetitions, runner)
        round_counter = 0
        for repetition in range(repetitions):
            for episode_index, spec in enumerate(episodes):
                trace.start_episode()
                per_n_tx = [
                    payloads[(repetition, episode_index, n_tx)]
                    for n_tx in range(self.n_max + 1)
                ]
                total_rounds = sum(int(rounds) for rounds, _ in spec)
                for round_in_episode in range(total_rounds):
                    for n_tx in range(self.n_max + 1):
                        entry = per_n_tx[n_tx][round_in_episode]
                        trace.append(
                            TraceRecord(
                                round_index=round_counter,
                                n_tx=n_tx,
                                node_ids=[int(node) for node in entry["node_ids"]],
                                reliability_array=np.asarray(
                                    entry["reliabilities"], dtype=float
                                ),
                                radio_on_array=np.asarray(entry["radio_on_ms"], dtype=float),
                                interference_ratio=entry["interference_ratio"],
                                had_losses=entry["had_losses"],
                            )
                        )
                    round_counter += 1
        return trace


def group_decision_points(trace: TraceSet) -> List[List[DecisionPoint]]:
    """Group a trace set into per-episode lists of decision points."""
    episodes: List[List[DecisionPoint]] = []
    for records in trace.episodes():
        by_round: Dict[int, Dict[int, TraceRecord]] = {}
        ratios: Dict[int, float] = {}
        for record in records:
            by_round.setdefault(record.round_index, {})[record.n_tx] = record
            ratios[record.round_index] = record.interference_ratio
        points = [
            DecisionPoint(
                round_index=round_index,
                outcomes=outcomes,
                interference_ratio=ratios[round_index],
            )
            for round_index, outcomes in sorted(by_round.items())
        ]
        if points:
            episodes.append(points)
    return episodes


class TraceEnvironment(Environment):
    """Offline environment replaying recorded traces.

    At every step the agent's action updates ``N_TX``; the outcome the
    trace recorded for that ``N_TX`` at the current decision point
    provides the reward and the next state.  Because every decision
    point stores the outcome of every parameter value, the environment
    can answer any action sequence, exactly like the paper's
    sequentially-executed trace collection intends.
    """

    def __init__(
        self,
        trace: TraceSet,
        feature_config: Optional[FeatureConfig] = None,
        reward_config: Optional[RewardConfig] = None,
        initial_n_tx: Optional[int] = None,
        episode_length: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.feature_config = feature_config if feature_config is not None else FeatureConfig()
        self.reward_config = reward_config if reward_config is not None else RewardConfig(
            n_max=self.feature_config.n_max
        )
        self.episodes = group_decision_points(trace)
        if not self.episodes:
            raise ValueError("the trace set contains no decision points")
        max_n_tx = max(
            n_tx for episode in self.episodes for point in episode for n_tx in point.available_n_tx
        )
        if max_n_tx < self.feature_config.n_max:
            raise ValueError(
                "the trace set does not cover the configured N_max "
                f"({max_n_tx} < {self.feature_config.n_max})"
            )
        self.initial_n_tx = initial_n_tx
        self.episode_length = episode_length
        self._rng = np.random.default_rng(seed)
        self.encoder = FeatureEncoder(self.feature_config)
        self._episode: List[DecisionPoint] = []
        self._cursor = 0
        self.n_tx = 3
        #: History-free encoding prefix (radio rows, reliability rows
        #: and the N_TX one-hot) per (id of a point of ``episodes``,
        #: N_TX); the trace is fixed, so each is computed once.
        self._prefixes: Dict[Tuple[int, int], np.ndarray] = {}

    @property
    def state_size(self) -> int:
        return self.feature_config.input_size

    def _encode_point(self, point: DecisionPoint, n_tx: int) -> Tuple[np.ndarray, TraceRecord]:
        """Encode ``point`` under ``n_tx``, then record its outcome in the history.

        Equals ``encoder.encode_round_arrays`` on the point's record:
        the cached history-free prefix followed by the current loss
        history.
        """
        record = point.outcome(n_tx)
        key = (id(point), n_tx)
        prefix = self._prefixes.get(key)
        if prefix is None:
            full = self.encoder.encode_arrays(
                record.node_ids, record.reliability_array, record.radio_on_array, n_tx
            )
            prefix = full[: full.shape[0] - self.feature_config.history_size].copy()
            self._prefixes[key] = prefix
        state = np.concatenate((prefix, self.encoder.history))
        self.encoder.record_history(record.had_losses)
        return state, record

    def reset(self) -> np.ndarray:
        """Pick a random episode (and start offset) and return the first state."""
        episode = self.episodes[int(self._rng.integers(0, len(self.episodes)))]
        if self.episode_length is not None and len(episode) > self.episode_length + 1:
            start = int(self._rng.integers(0, len(episode) - self.episode_length))
            episode = episode[start: start + self.episode_length + 1]
        self._episode = list(episode)
        self._cursor = 0
        self.encoder.reset_history()
        if self.initial_n_tx is None:
            self.n_tx = int(self._rng.integers(1, self.feature_config.n_max + 1))
        else:
            self.n_tx = self.initial_n_tx
        state, _ = self._encode_point(self._episode[0], self.n_tx)
        self._cursor = 1
        return state

    def step(self, action: int) -> StepResult:
        """Advance to the next decision point under the chosen action."""
        if not self._episode:
            raise RuntimeError("call reset() before step()")
        if self._cursor >= len(self._episode):
            raise RuntimeError("episode is exhausted; call reset()")
        self.n_tx = apply_action(self.n_tx, action, n_max=self.feature_config.n_max, n_min=0)
        point = self._episode[self._cursor]
        state, record = self._encode_point(point, self.n_tx)
        reward = compute_reward(self.n_tx, record.had_losses, self.reward_config)
        self._cursor += 1
        done = self._cursor >= len(self._episode)
        info = {
            "n_tx": self.n_tx,
            "had_losses": record.had_losses,
            "interference_ratio": point.interference_ratio,
        }
        return StepResult(state=state, reward=reward, done=done, info=info)
