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


class TestPlainTrainingEpisodes:
    """Training traces come from jamming episodes alone: the same inputs
    give the same traces, and a stale churn schedule fails loudly."""

    @pytest.fixture()
    def make_pipeline(self):
        topology = grid_topology(rows=2, cols=3, spacing_m=6.0, comm_range_m=9.0, name="tiny-plain")

        def pipeline(data_dir, **extra):
            return TrainingPipeline(
                topology=topology,
                feature_config=FeatureConfig(num_input_nodes=4, history_size=1, n_max=2),
                profile=TrainingProfile(
                    "plain-test", trace_repetitions=1, training_iterations=60, anneal_steps=30
                ),
                episodes=(((4, 0.3),),),
                data_dir=data_dir,
                seed=0,
                **extra,
            )

        return pipeline

    def test_traces_reproduce_across_data_dirs(self, make_pipeline, tmp_path):
        import numpy as np

        first = make_pipeline(tmp_path / "a")
        second = make_pipeline(tmp_path / "b")
        assert first.trace_path().name == second.trace_path().name
        traces = first.collect_traces(), second.collect_traces()
        assert len(traces[0]) == len(traces[1]) == 4 * 3
        for a, b in zip(*(trace.records for trace in traces)):
            assert np.array_equal(a.reliability_array, b.reliability_array)
            assert np.array_equal(a.radio_on_array, b.radio_on_array)
            assert (a.n_tx, a.had_losses) == (b.n_tx, b.had_losses)

    def test_short_training_run_completes(self, make_pipeline, tmp_path):
        agent, trace = make_pipeline(tmp_path).train()
        assert len(trace) == 4 * 3  # 4 rounds x (n_max + 1) parameters
        assert len(agent.buffer) > 0
        assert agent.total_steps > 0

    @pytest.mark.parametrize(
        "entry_point",
        ["TraceSlice", "record_episode_for_n_tx", "TraceRecorder", "TrainingPipeline"],
    )
    def test_stale_churn_argument_rejected(self, make_pipeline, tmp_path, entry_point):
        from repro.rl import trace_env

        topology = grid_topology(rows=2, cols=3, spacing_m=6.0, comm_range_m=9.0)
        churn = [{"from": 1, "until": 3, "set": [[1, 2, 0.0]]}]
        calls = {
            "TraceSlice": lambda: trace_env.TraceSlice(
                2, ((2, 0.0),), 0.02, 4.0, 0, 0, churn=churn
            ),
            "record_episode_for_n_tx": lambda: trace_env.record_episode_for_n_tx(
                topology, 2, ((2, 0.0),), 0.02, 4.0, 0, 0, churn=churn
            ),
            "TraceRecorder": lambda: trace_env.TraceRecorder(topology=topology, churn=churn),
            "TrainingPipeline": lambda: make_pipeline(tmp_path, churn=churn),
        }
        with pytest.raises(TypeError, match="churn"):
            calls[entry_point]()
