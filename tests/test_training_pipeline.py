"""Tests for the offline training pipeline and pretrained-artifact loading."""

import hashlib

import pytest

from repro.experiments.training import (
    PRETRAINED_FILENAME,
    TrainingPipeline,
    TrainingProfile,
    default_data_dir,
    export_pretrained,
    load_pretrained_agent,
)
from repro.net.topology import grid_topology
from repro.rl.features import FeatureConfig


@pytest.fixture(scope="module")
def tiny_pipeline(tmp_path_factory):
    """A very small pipeline writing its artifacts into a temp directory."""
    return TrainingPipeline(
        topology=grid_topology(rows=2, cols=3, spacing_m=6.0, comm_range_m=9.0, name="tiny"),
        feature_config=FeatureConfig(num_input_nodes=4, history_size=1, n_max=3),
        profile=TrainingProfile("test", trace_repetitions=1, training_iterations=300, anneal_steps=150),
        episodes=(((2, 0.0), (2, 0.3)),),
        data_dir=tmp_path_factory.mktemp("artifacts"),
        seed=0,
    )


class TestTrainingProfiles:
    def test_paper_profile_matches_section_iv(self):
        profile = TrainingProfile.paper()
        assert profile.training_iterations == 200_000
        assert profile.anneal_steps == 100_000

    def test_profiles_ordered_by_effort(self):
        assert (
            TrainingProfile.fast().training_iterations
            < TrainingProfile.standard().training_iterations
            < TrainingProfile.paper().training_iterations
        )


class TestTrainingPipeline:
    def test_trace_collection_and_caching(self, tiny_pipeline):
        trace = tiny_pipeline.collect_traces()
        assert len(trace) == 4 * 4  # 4 rounds x (n_max + 1) parameters
        assert tiny_pipeline.trace_path().exists()
        # Second call loads from cache and returns the same content.
        again = tiny_pipeline.collect_traces()
        assert len(again) == len(trace)

    def test_train_produces_matching_agent(self, tiny_pipeline):
        agent, trace = tiny_pipeline.train()
        assert agent.config.state_size == tiny_pipeline.feature_config.input_size
        assert tiny_pipeline.model_path().exists()
        assert len(trace) > 0

    def test_cached_model_reloaded(self, tiny_pipeline):
        first, _ = tiny_pipeline.train()
        second, _ = tiny_pipeline.train()
        import numpy as np

        x = np.zeros(tiny_pipeline.feature_config.input_size)
        assert np.allclose(first.online(x), second.online(x))

    def test_environment_matches_feature_config(self, tiny_pipeline):
        environment = tiny_pipeline.build_environment()
        assert environment.state_size == tiny_pipeline.feature_config.input_size


class TestPretrainedArtifact:
    def test_shipped_pretrained_network_exists(self):
        assert (default_data_dir() / PRETRAINED_FILENAME).exists()

    def test_load_pretrained_agent_paper_config(self):
        agent = load_pretrained_agent(allow_training=False)
        assert agent.config.state_size == 31
        assert agent.online.layer_sizes == (31, 30, 3)

    def test_missing_artifact_raises_when_training_disallowed(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_pretrained_agent(
                feature_config=FeatureConfig(num_input_nodes=7),
                data_dir=tmp_path,
                allow_training=False,
            )

    @pytest.mark.slow
    def test_shipped_policy_rebuilds_byte_identical(self, tmp_path):
        """The shipped policy is a build output of the training pipeline:
        rebuilding it from scratch must give the committed bytes."""

        def digest(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        rebuilt = export_pretrained(data_dir=tmp_path)
        assert digest(rebuilt) == digest(default_data_dir() / PRETRAINED_FILENAME)


class TestChurnTrainingEpisodes:
    """DQN training episodes can include node-churn conditions: the
    churn schedule mutates link qualities mid-episode and the recorded
    traces (the replay source) change accordingly."""

    @pytest.fixture()
    def churn_setup(self, tmp_path):
        from repro.rl.trace_env import node_outage_schedule

        topology = grid_topology(
            rows=2, cols=3, spacing_m=6.0, comm_range_m=9.0, name="tiny-churn"
        )
        victim = next(
            node for node in topology.node_ids if node != topology.coordinator
        )
        churn = node_outage_schedule(topology, victim, down_round=1, up_round=3)

        def pipeline(schedule):
            return TrainingPipeline(
                topology=topology,
                feature_config=FeatureConfig(num_input_nodes=4, history_size=1, n_max=2),
                profile=TrainingProfile(
                    "churn-test", trace_repetitions=1, training_iterations=60, anneal_steps=30
                ),
                episodes=(((4, 0.0),),),
                data_dir=tmp_path,
                seed=0,
                churn=schedule,
            )

        return pipeline, churn, victim

    def test_churn_changes_replay_contents(self, churn_setup):
        import numpy as np

        pipeline, churn, victim = churn_setup
        baseline = pipeline(()).collect_traces()
        churned = pipeline(churn).collect_traces()
        # Distinct cache keys: the churn schedule is part of the trace key.
        assert pipeline(()).trace_path() != pipeline(churn).trace_path()
        assert len(baseline) == len(churned)
        differs = any(
            not np.array_equal(a.reliability_array, b.reliability_array)
            or not np.array_equal(a.radio_on_array, b.radio_on_array)
            for a, b in zip(baseline.records, churned.records)
        )
        assert differs, "churn episode did not change the recorded traces"
        # While the victim is down, a churned round reports it unreachable
        # somewhere in the trace (reliability 0 from the observer's view).
        assert any(
            record.reliability_array.min() == 0.0 for record in churned.records
        )

    def test_short_training_run_on_churn_episode_completes(self, churn_setup):
        pipeline, churn, _ = churn_setup
        agent, trace = pipeline(churn).train()
        assert len(trace) == 4 * 3  # 4 rounds x (n_max + 1) parameters
        assert len(agent.buffer) > 0
        assert agent.total_steps > 0

    @pytest.mark.parametrize(
        "event",
        [
            {"round": 1, "clear": True},
            {"round": 1, "restore": [[1, 2]]},
            {"round": 1, "set": [[1, 2, 0.0]]},
            {"until": 3, "set": [[1, 2, 0.0]]},
        ],
    )
    def test_recorder_rejects_non_interval_events(self, churn_setup, event):
        from repro.rl.trace_env import TraceRecorder

        _, churn, _ = churn_setup
        topology = grid_topology(rows=2, cols=3, spacing_m=6.0, comm_range_m=9.0)
        assert TraceRecorder(topology=topology, churn=churn).churn == churn
        with pytest.raises(ValueError, match="interval event"):
            TraceRecorder(topology=topology, churn=churn + [event])

    def test_composed_outage_schedules_do_not_clobber_each_other(self):
        """Concatenated outage schedules compose: B's outage survives
        A's restoration, including on the link *between* A and B."""
        from repro.net.link import LinkModel
        from repro.net.topology import grid_topology as grid
        from repro.rl.trace_env import apply_churn_events, node_outage_schedule

        topology = grid(rows=2, cols=3, spacing_m=6.0, comm_range_m=9.0)
        nodes = [n for n in topology.node_ids if n != topology.coordinator]
        a, b, probe = nodes[0], nodes[1], nodes[-1]
        churn = node_outage_schedule(topology, a, 1, 5) + node_outage_schedule(
            topology, b, 3, 8
        )
        link = LinkModel(topology, seed=1)

        def prr(sender, receiver):
            return link.prr_matrix()[link.node_index[sender], link.node_index[receiver]]

        base_a, base_b = prr(a, probe), prr(b, probe)
        base_ab = prr(a, b)
        assert base_a > 0.0 and base_b > 0.0
        for round_index in range(6):
            apply_churn_events(link, churn, round_index)
        # After round 5 (A restored), B is still fully down: its links
        # to the probe AND the shared (a, b) link stay severed.
        assert prr(a, probe) == base_a
        assert prr(b, probe) == 0.0
        assert prr(a, b) == 0.0
        assert prr(b, a) == 0.0
        for round_index in range(6, 9):
            apply_churn_events(link, churn, round_index)
        # ... and B's restoration brings everything back.
        assert prr(b, probe) == base_b
        assert prr(a, b) == base_ab
