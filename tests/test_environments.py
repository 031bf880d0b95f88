"""Tests for the RL environments (action helpers, simulation env, trace env)."""

import numpy as np
import pytest

from repro.net.lwb import observer_view_arrays
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import grid_topology
from repro.rl.environment import Action, apply_action
from repro.rl.features import FeatureConfig, FeatureEncoder
from repro.rl.trace_env import (
    SimulationEnvironment,
    TraceEnvironment,
    TraceRecorder,
    apply_churn_events,
    build_interference,
    group_decision_points,
    node_outage_schedule,
)


@pytest.fixture(scope="module")
def tiny_topology():
    return grid_topology(rows=2, cols=3, spacing_m=6.0, comm_range_m=9.0, name="tiny")


@pytest.fixture(scope="module")
def tiny_trace(tiny_topology):
    recorder = TraceRecorder(tiny_topology, n_max=3, seed=0)
    return recorder.record(episodes=[((2, 0.0), (2, 0.3))], repetitions=1)


def assert_same_observables(a, b):
    """Two trace records carry the same nodes and bit-identical values."""
    assert a.node_ids == b.node_ids
    assert a.reliability_array.tolist() == b.reliability_array.tolist()
    assert a.radio_on_array.tolist() == b.radio_on_array.tolist()


def solo_slice_observables(recorder, episode, n_tx, episode_seed, interference_seed):
    """Reference for one (episode, N_TX) slice: its own simulator driven
    round by round through ``run_round``, which runs the same round steps
    with one slice per kernel call (``run_steps``), not batched with the
    other slices; the independent pins are the fingerprints and the
    perfbench digests.  Returns ``(node_ids, reliabilities, radio_on,
    ratio, had_losses)`` per round."""
    topology = recorder.topology
    simulator = NetworkSimulator(
        topology,
        SimulatorConfig(
            round_period_s=recorder.round_period_s,
            channel_hopping=False,
            default_n_tx=n_tx,
            seed=episode_seed,
        ),
    )
    rounds = []
    for segment_rounds, ratio in episode:
        simulator.set_interference(
            build_interference(
                topology, ratio, ambient_rate=recorder.ambient_rate, seed=interference_seed
            )
        )
        for _ in range(segment_rounds):
            apply_churn_events(simulator.link_model, recorder.churn, len(rounds))
            result = simulator.run_round(n_tx=n_tx)
            node_ids, reliabilities, radio_on, _ = observer_view_arrays(
                result, observer=topology.coordinator
            )
            rounds.append(
                (list(node_ids), reliabilities.tolist(), radio_on.tolist(), ratio,
                 result.had_losses)
            )
    return rounds


class TestActions:
    def test_action_deltas(self):
        assert Action.DECREASE.delta() == -1
        assert Action.MAINTAIN.delta() == 0
        assert Action.INCREASE.delta() == 1

    def test_apply_action_clamps(self):
        assert apply_action(8, Action.INCREASE, n_max=8) == 8
        assert apply_action(0, Action.DECREASE, n_max=8, n_min=0) == 0
        assert apply_action(1, Action.DECREASE, n_max=8, n_min=1) == 1
        assert apply_action(3, Action.INCREASE, n_max=8) == 4

    def test_apply_action_invalid_range(self):
        with pytest.raises(ValueError):
            apply_action(3, Action.MAINTAIN, n_max=1, n_min=2)


class TestBuildInterference:
    def test_zero_ratio_without_ambient_is_clean(self, tiny_topology):
        source = build_interference(tiny_topology, 0.0, ambient_rate=0.0)
        assert not source.is_active(0.0)

    def test_positive_ratio_builds_jammers(self, tiny_topology):
        source = build_interference(tiny_topology, 0.3, ambient_rate=0.0)
        assert source.is_active(0.0)


class TestTraceRecorder:
    def test_records_all_ntx_values(self, tiny_trace):
        n_tx_values = {record.n_tx for record in tiny_trace}
        assert n_tx_values == set(range(4))

    def test_records_grouped_per_round(self, tiny_trace):
        episodes = group_decision_points(tiny_trace)
        assert len(episodes) == 1
        assert len(episodes[0]) == 4  # 2 + 2 rounds
        assert all(len(point.outcomes) == 4 for point in episodes[0])

    def test_interference_ratio_recorded(self, tiny_trace):
        episodes = group_decision_points(tiny_trace)
        ratios = [point.interference_ratio for point in episodes[0]]
        assert ratios == [0.0, 0.0, 0.3, 0.3]

    def test_decision_point_lookup(self, tiny_trace):
        point = group_decision_points(tiny_trace)[0][0]
        assert point.outcome(2).n_tx == 2
        with pytest.raises(KeyError):
            point.outcome(9)
        assert point.available_n_tx == [0, 1, 2, 3]


class TestTraceRecorderParallel:
    """The N_max+1 lock-stepped simulators fan out through ParallelRunner."""

    EPISODES = (((2, 0.0), (2, 0.3)), ((2, 0.1),))

    def test_parallel_record_matches_serial(self):
        from repro.experiments.runner import ParallelRunner

        recorder = TraceRecorder(n_max=2, seed=7, round_period_s=1.0)
        serial = recorder.record(episodes=self.EPISODES)
        parallel = recorder.record(
            episodes=self.EPISODES, runner=ParallelRunner(max_workers=4)
        )
        assert len(serial) == len(parallel)
        assert serial.episode_starts == parallel.episode_starts
        for a, b in zip(serial, parallel):
            assert (a.round_index, a.n_tx) == (b.round_index, b.n_tx)
            assert_same_observables(a, b)
            assert a.had_losses == b.had_losses
            assert a.interference_ratio == b.interference_ratio

    def test_serial_record_matches_solo_slices(self, kiel):
        # The serial path lock-steps every slice too, so it is held to
        # each slice run on its own, churn schedule included.
        churn = node_outage_schedule(kiel, 5, 1, 3) + node_outage_schedule(kiel, 9, 2, 4)
        recorder = TraceRecorder(n_max=2, seed=7, round_period_s=1.0, churn=churn)
        trace = recorder.record(episodes=self.EPISODES)
        for episode_index, (episode, records) in enumerate(
            zip(self.EPISODES, trace.episodes())
        ):
            for n_tx in range(recorder.n_max + 1):
                observed = [
                    (list(r.node_ids), r.reliability_array.tolist(), r.radio_on_array.tolist(),
                     r.interference_ratio, r.had_losses)
                    for r in records if r.n_tx == n_tx
                ]
                assert observed == solo_slice_observables(
                    recorder, episode, n_tx,
                    episode_seed=recorder.seed + episode_index,
                    interference_seed=recorder.seed + episode_index,
                )

    def test_inline_runner_matches_serial(self):
        from repro.experiments.runner import ParallelRunner

        recorder = TraceRecorder(n_max=2, seed=7, round_period_s=1.0)
        serial = recorder.record(episodes=self.EPISODES)
        inline = recorder.record(
            episodes=self.EPISODES, runner=ParallelRunner(max_workers=0)
        )
        for a, b in zip(serial, inline):
            assert_same_observables(a, b)

    def test_custom_topology_without_spec_rejected(self, tiny_topology):
        from repro.experiments.runner import ParallelRunner

        recorder = TraceRecorder(tiny_topology, n_max=2, seed=0)
        with pytest.raises(ValueError):
            recorder.record(episodes=self.EPISODES, runner=ParallelRunner(max_workers=0))

    def test_custom_topology_with_spec(self):
        from repro.experiments.runner import ParallelRunner, build_topology

        spec = {"kind": "grid", "rows": 2, "cols": 3, "spacing_m": 6.0, "comm_range_m": 9.0}
        recorder = TraceRecorder(
            build_topology(spec), n_max=2, seed=1, topology_spec=spec
        )
        serial = recorder.record(episodes=(((2, 0.2),),))
        parallel = recorder.record(
            episodes=(((2, 0.2),),), runner=ParallelRunner(max_workers=2)
        )
        for a, b in zip(serial, parallel):
            assert_same_observables(a, b)


class TestTraceEnvironment:
    def test_state_size_matches_config(self, tiny_trace):
        config = FeatureConfig(num_input_nodes=4, history_size=2, n_max=3)
        env = TraceEnvironment(tiny_trace, feature_config=config, seed=0)
        state = env.reset()
        assert state.shape == (config.input_size,)
        assert env.state_size == config.input_size

    def test_step_returns_reward_and_done(self, tiny_trace):
        config = FeatureConfig(num_input_nodes=4, history_size=2, n_max=3)
        env = TraceEnvironment(tiny_trace, feature_config=config, initial_n_tx=2, seed=0)
        env.reset()
        steps = 0
        done = False
        while not done:
            result = env.step(Action.MAINTAIN)
            assert 0.0 <= result.reward <= 1.0
            done = result.done
            steps += 1
        assert steps == 3

    def test_action_changes_ntx(self, tiny_trace):
        config = FeatureConfig(num_input_nodes=4, history_size=2, n_max=3)
        env = TraceEnvironment(tiny_trace, feature_config=config, initial_n_tx=1, seed=0)
        env.reset()
        result = env.step(Action.INCREASE)
        assert result.info["n_tx"] == 2

    def test_states_equal_per_round_encoding(self, tiny_trace):
        # Reference: a fresh encode_round_arrays on every visited record.
        # The second episode visits other N_TX values at the same points;
        # the third repeats the first, so its states come from cached
        # encodings.
        config = FeatureConfig(num_input_nodes=4, history_size=2, n_max=3)
        env = TraceEnvironment(tiny_trace, feature_config=config, initial_n_tx=1, seed=0)
        (points,) = group_decision_points(tiny_trace)
        for actions in ([2, 2, 0], [1, 0, 2], [2, 2, 0]):
            encoder = FeatureEncoder(config)
            states = [env.reset()]
            n_tx = [1]
            for action in actions:
                result = env.step(action)
                states.append(result.state)
                n_tx.append(result.info["n_tx"])
            for state, point, value in zip(states, points, n_tx):
                record = point.outcome(value)
                expected = encoder.encode_round_arrays(
                    record.node_ids,
                    record.reliability_array,
                    record.radio_on_array,
                    value,
                    record.had_losses,
                )
                np.testing.assert_array_equal(state, expected)

    def test_step_before_reset_rejected(self, tiny_trace):
        config = FeatureConfig(num_input_nodes=4, history_size=2, n_max=3)
        env = TraceEnvironment(tiny_trace, feature_config=config, seed=0)
        with pytest.raises(RuntimeError):
            env.step(Action.MAINTAIN)

    def test_nmax_coverage_checked(self, tiny_trace):
        with pytest.raises(ValueError):
            TraceEnvironment(tiny_trace, feature_config=FeatureConfig(n_max=8), seed=0)


class TestSimulationEnvironment:
    def test_reset_and_step(self, tiny_topology):
        env = SimulationEnvironment(
            topology=tiny_topology,
            feature_config=FeatureConfig(num_input_nodes=4, history_size=2, n_max=3),
            episodes=[((3, 0.0),)],
            seed=0,
        )
        state = env.reset()
        assert state.shape == (env.state_size,)
        result = env.step(Action.MAINTAIN)
        assert "reliability" in result.info
        assert "radio_on_ms" in result.info

    def test_episode_terminates(self, tiny_topology):
        env = SimulationEnvironment(
            topology=tiny_topology,
            feature_config=FeatureConfig(num_input_nodes=4, history_size=2, n_max=3),
            episodes=[((2, 0.0),)],
            seed=0,
        )
        env.reset()
        result = env.step(Action.MAINTAIN)
        assert result.done

    def test_step_before_reset_rejected(self, tiny_topology):
        env = SimulationEnvironment(topology=tiny_topology, episodes=[((2, 0.0),)], seed=0)
        with pytest.raises(RuntimeError):
            env.step(Action.MAINTAIN)

    def test_empty_episode_rejected(self, tiny_topology):
        with pytest.raises(ValueError):
            SimulationEnvironment(topology=tiny_topology, episodes=[], seed=0)
