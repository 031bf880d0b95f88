"""Regression tests for the ``repro-bench`` CLI output/failure contract.

Every subcommand must print the path of its JSON results artifact, and
a grid with failed shards must exit nonzero with the shards listed in
the artifact — instead of failures being silently absorbed by the
result cache (the cache never stores failures; see
``tests/test_runner.py::TestFailedShards`` for the runner-level
guarantee).
"""

import json

import pytest

from repro.experiments import bench
from repro.experiments.runner import EXPERIMENTS


@pytest.fixture()
def broken_mobile_jammer(monkeypatch):
    """Make every mobile-jammer shard crash inside the worker."""

    def boom(seed=0, **params):
        raise RuntimeError("shard exploded")

    monkeypatch.setitem(EXPERIMENTS, "mobile_jammer_run", boom)


def run_scenarios(tmp_path, extra=()):
    output = tmp_path / "out.json"
    code = bench.main(
        [
            "scenarios",
            "--family",
            "mobile_jammer",
            "--protocols",
            "lwb",
            "--runs",
            "1",
            "--rounds",
            "2",
            "--workers",
            "1",
            "--no-cache",
            "--output",
            str(output),
            *extra,
        ]
    )
    return code, output


class TestBenchOutputContract:
    def test_success_prints_artifact_and_exits_zero(self, tmp_path, capsys):
        code, output = run_scenarios(tmp_path)
        assert code == 0
        assert f"[output] {output}" in capsys.readouterr().out
        payload = json.loads(output.read_text())
        assert payload["command"] == "scenarios"
        assert payload["failed_shards"] == []
        assert payload["protocols"]["lwb"]["runs"] == 1
        assert payload["runner_stats"]["executed"] == 1

    def test_failed_shards_exit_nonzero(self, tmp_path, capsys, broken_mobile_jammer):
        code, output = run_scenarios(tmp_path)
        assert code != 0
        captured = capsys.readouterr()
        assert f"[output] {output}" in captured.out
        assert "failed shard" in captured.err
        payload = json.loads(output.read_text())
        assert len(payload["failed_shards"]) == 1
        assert payload["failed_shards"][0]["task"] == "mobile_jammer:lwb#0"
        assert "RuntimeError" in payload["failed_shards"][0]["error"]
        # No aggregate row for the all-failed protocol.
        assert payload["protocols"] == {}

    def test_engine_flag_reaches_the_simulators(self, tmp_path, monkeypatch):
        """The flag must arrive at the worker experiment as its
        ``engine`` kwarg, not just be echoed into the artifact."""
        seen = []
        original = EXPERIMENTS["mobile_jammer_run"]

        def spy(seed=0, **params):
            seen.append(params.get("engine"))
            return original(seed=seed, **params)

        monkeypatch.setitem(EXPERIMENTS, "mobile_jammer_run", spy)
        code, output = run_scenarios(tmp_path, extra=["--engine", "scalar"])
        assert code == 0
        assert seen == ["scalar"]
        payload = json.loads(output.read_text())
        assert payload["engine"] == "scalar"
        assert payload["protocols"]["lwb"]["reliability"] >= 0.0

class TestRunSpecSubcommand:
    """`repro-bench run --spec` executes any registered family from JSON
    and writes the same artifact envelope as the dedicated subcommands."""

    def run_spec_file(self, tmp_path, document, extra=()):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(document))
        output = tmp_path / "out.json"
        code = bench.main(
            [
                "run",
                "--spec",
                str(spec_file),
                "--workers",
                "1",
                "--no-cache",
                "--output",
                str(output),
                *extra,
            ]
        )
        return code, output

    def test_executes_spec_and_writes_artifact(self, tmp_path, capsys):
        code, output = self.run_spec_file(
            tmp_path,
            {"family": "mobile_jammer", "protocol": "lwb", "rounds": 2,
             "round_period_s": 1.0},
        )
        assert code == 0
        assert f"[output] {output}" in capsys.readouterr().out
        payload = json.loads(output.read_text())
        # Same artifact envelope as every dedicated subcommand.
        assert payload["command"] == "run"
        assert payload["failed_shards"] == []
        assert payload["runner_stats"]["executed"] == 1
        assert payload["specs"][0]["family"] == "mobile_jammer"
        assert 0.0 <= payload["results"][0]["reliability"] <= 1.0

    def test_grid_expansion_in_spec_file(self, tmp_path):
        code, output = self.run_spec_file(
            tmp_path,
            {"family": "node_churn", "protocol": "lwb", "rounds": 2,
             "round_period_s": 1.0, "grid": {"seeds": [0, 1]}},
        )
        assert code == 0
        payload = json.loads(output.read_text())
        assert len(payload["results"]) == 2
        assert [spec["seed"] for spec in payload["specs"]] == [0, 1]

    def test_failed_shards_exit_nonzero(self, tmp_path, broken_mobile_jammer):
        code, output = self.run_spec_file(
            tmp_path, {"family": "mobile_jammer", "protocol": "lwb", "rounds": 2}
        )
        assert code != 0
        payload = json.loads(output.read_text())
        assert len(payload["failed_shards"]) == 1
        assert "RuntimeError" in payload["failed_shards"][0]["error"]

    def test_unknown_family_exits_with_clean_error(self, tmp_path, capsys):
        code, _ = self.run_spec_file(tmp_path, {"family": "klein-bottle"})
        assert code == 2
        assert "klein-bottle" in capsys.readouterr().err

    def test_unknown_field_exits_with_clean_error(self, tmp_path, capsys):
        code, _ = self.run_spec_file(
            tmp_path, {"family": "sweep", "definitely_not_a_field": 1}
        )
        assert code == 2
        assert "definitely_not_a_field" in capsys.readouterr().err

    def test_session_engine_flag_reaches_workers(self, tmp_path, monkeypatch):
        seen = []
        original = EXPERIMENTS["node_churn_run"]

        def spy(seed=0, **params):
            seen.append(params.get("engine"))
            return original(seed=seed, **params)

        monkeypatch.setitem(EXPERIMENTS, "node_churn_run", spy)
        code, output = self.run_spec_file(
            tmp_path,
            {"family": "node_churn", "protocol": "lwb", "rounds": 2,
             "round_period_s": 1.0},
            extra=["--engine", "scalar"],
        )
        assert code == 0
        assert seen == ["scalar"]
        # The artifact records the *prepared* spec — what actually
        # executed and got cached — so the injected engine is visible.
        payload = json.loads(output.read_text())
        assert payload["specs"][0]["engine"] == "scalar"

    def test_engine_flag_warns_for_engineless_families(self, tmp_path, capsys):
        code, _ = self.run_spec_file(
            tmp_path,
            {"family": "trace_episode", "n_tx": 1, "episode": [[1, 0.0]],
             "round_period_s": 1.0},
            extra=["--engine", "scalar"],
        )
        assert code == 0
        assert "trace_episode" in capsys.readouterr().err


class TestFailureCacheInteraction:
    def test_failure_not_served_from_cache_on_rerun(
        self, tmp_path, monkeypatch, capsys
    ):
        """A failed shard re-executes (and succeeds) on the next run."""
        cache_dir = tmp_path / "cache"

        def run(extra):
            return bench.main(
                [
                    "scenarios",
                    "--family",
                    "mobile_jammer",
                    "--protocols",
                    "lwb",
                    "--runs",
                    "1",
                    "--rounds",
                    "2",
                    "--workers",
                    "1",
                    "--cache-dir",
                    str(cache_dir),
                    "--output",
                    str(tmp_path / "out.json"),
                    *extra,
                ]
            )

        original = EXPERIMENTS["mobile_jammer_run"]

        def boom(seed=0, **params):
            raise RuntimeError("transient failure")

        monkeypatch.setitem(EXPERIMENTS, "mobile_jammer_run", boom)
        assert run([]) != 0
        monkeypatch.setitem(EXPERIMENTS, "mobile_jammer_run", original)
        assert run([]) == 0
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["failed_shards"] == []
        # The healthy rerun executed the shard (no poisoned cache hit).
        assert payload["runner_stats"]["executed"] == 1


class TestResilienceFlags:
    """`--retries` and `--shard-timeout` on every subcommand, and resume
    from the result cache."""

    def test_flags_reach_the_session(self, tmp_path, monkeypatch):
        captured = {}
        real_session = bench.Session

        def spy(**kwargs):
            captured.update(kwargs)
            return real_session(**kwargs)

        monkeypatch.setattr(bench, "Session", spy)
        code, _ = run_scenarios(
            tmp_path, extra=["--retries", "1", "--shard-timeout", "5"]
        )
        assert code == 0
        assert captured["retry_policy"].max_attempts == 2
        assert captured["shard_timeout_s"] == 5.0

    def test_retries_flag_recovers_transient_shard(self, tmp_path, monkeypatch):
        from repro.experiments.resilience import TransientError

        original = EXPERIMENTS["mobile_jammer_run"]
        calls = []

        def flaky(seed=0, **params):
            calls.append(1)
            if len(calls) < 3:
                raise TransientError("worker hiccup")
            return original(seed=seed, **params)

        monkeypatch.setitem(EXPERIMENTS, "mobile_jammer_run", flaky)
        code, output = run_scenarios(tmp_path, extra=["--retries", "3"])
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["runner_stats"]["retries"] == 2
        assert payload["failed_shards"] == []

    def test_retries_zero_fails_fast(self, tmp_path, monkeypatch):
        from repro.experiments.resilience import TransientError

        def flaky(seed=0, **params):
            raise TransientError("worker hiccup")

        monkeypatch.setitem(EXPERIMENTS, "mobile_jammer_run", flaky)
        code, output = run_scenarios(tmp_path, extra=["--retries", "0"])
        assert code != 0
        payload = json.loads(output.read_text())
        assert payload["runner_stats"]["retries"] == 0
        assert len(payload["failed_shards"]) == 1

    def test_rerun_resumes_from_the_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"

        def run():
            output = tmp_path / "out.json"
            code = bench.main(
                [
                    "scenarios", "--family", "mobile_jammer",
                    "--protocols", "lwb", "--runs", "1", "--rounds", "2",
                    "--workers", "1", "--cache-dir", str(cache_dir),
                    "--output", str(output),
                ]
            )
            return code, json.loads(output.read_text())

        code, payload = run()
        assert code == 0
        assert payload["runner_stats"]["executed"] == 1

        code, payload = run()
        assert code == 0
        # 100% cache hits: zero recomputation.
        assert payload["runner_stats"]["executed"] == 0
        assert payload["runner_stats"]["cache_hits"] == 1
