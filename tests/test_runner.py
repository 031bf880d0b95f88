"""Tests for the parallel experiment runner."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.experiments.runner import (
    EXPERIMENTS,
    ParallelRunner,
    RunnerError,
    ScenarioTask,
    build_topology,
    network_from_payload,
    network_payload,
    register_experiment,
    stable_seed,
)
from repro.experiments.scenarios import MobileJammerScenario, NodeChurnScenario
from repro.experiments.spec import SPEC_FAMILIES
from repro.net.topology import kiel_testbed
from repro.rl.qnetwork import QNetwork

from reference_interference import is_active

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


@register_experiment("test_echo")
def _echo_experiment(seed=0, value=0.0):
    """Deterministic toy experiment used by the runner tests."""
    rng = np.random.default_rng(seed)
    return {"value": value, "seed": seed, "draw": float(rng.random())}


@register_experiment("test_boom")
def _boom_experiment(seed=0):
    raise RuntimeError("worker exploded")


def echo_tasks(count, seed=0):
    return [
        ScenarioTask("test_echo", {"value": float(index)}, seed=stable_seed(seed, index))
        for index in range(count)
    ]


class TestStableSeed:
    def test_deterministic_across_calls(self):
        assert stable_seed("a", 1, {"x": 2.0}) == stable_seed("a", 1, {"x": 2.0})

    def test_sensitive_to_content(self):
        assert stable_seed("a", 1) != stable_seed("a", 2)

    def test_dict_order_irrelevant(self):
        assert stable_seed({"a": 1, "b": 2}) == stable_seed({"b": 2, "a": 1})

    def test_numpy_scalars_canonicalized(self):
        assert stable_seed(np.int64(3)) == stable_seed(3)


class TestScenarioTask:
    def test_key_stable_and_content_addressed(self):
        a = ScenarioTask("test_echo", {"value": 1.0}, seed=3)
        b = ScenarioTask("test_echo", {"value": 1.0}, seed=3)
        c = ScenarioTask("test_echo", {"value": 2.0}, seed=3)
        assert a.key() == b.key()
        assert a.key() != c.key()

    def test_describe_uses_label(self):
        task = ScenarioTask("test_echo", label="my-point")
        assert task.describe() == "my-point"


class TestParallelRunner:
    def test_results_in_task_order(self):
        runner = ParallelRunner(max_workers=2)
        results = runner.run(echo_tasks(6))
        assert [entry["value"] for entry in results] == [float(i) for i in range(6)]

    def test_deterministic_independent_of_worker_count(self):
        tasks = echo_tasks(8, seed=1)
        inline = ParallelRunner(max_workers=1).run(tasks)
        two = ParallelRunner(max_workers=2).run(tasks)
        four = ParallelRunner(max_workers=4).run(tasks)
        assert inline == two == four

    def test_cache_miss_then_hit(self, tmp_path):
        tasks = echo_tasks(4)
        first = ParallelRunner(max_workers=1, cache_dir=tmp_path)
        results = first.run(tasks)
        assert first.stats.cache_misses == 4
        assert first.stats.cache_hits == 0
        assert first.stats.executed == 4

        second = ParallelRunner(max_workers=1, cache_dir=tmp_path)
        again = second.run(tasks)
        assert again == results
        assert second.stats.cache_hits == 4
        assert second.stats.executed == 0

    def test_cache_keyed_by_content(self, tmp_path):
        runner = ParallelRunner(max_workers=1, cache_dir=tmp_path)
        runner.run(echo_tasks(2))
        changed = [
            ScenarioTask("test_echo", {"value": 0.0}, seed=stable_seed(0, 0)),
            ScenarioTask("test_echo", {"value": 99.0}, seed=stable_seed(0, 99)),
        ]
        runner.stats.cache_hits = runner.stats.cache_misses = 0
        runner.run(changed)
        assert runner.stats.cache_hits == 1  # unchanged task reused
        assert runner.stats.cache_misses == 1  # new task recomputed

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        tasks = echo_tasks(2)
        ParallelRunner(max_workers=1, cache_dir=tmp_path).run(tasks)
        victim = tmp_path / f"{tasks[0].key()}.json"
        victim.write_text("{torn write")
        runner = ParallelRunner(max_workers=1, cache_dir=tmp_path)
        results = runner.run(tasks)
        assert [entry["value"] for entry in results] == [0.0, 1.0]
        assert runner.stats.cache_misses == 1
        assert runner.stats.cache_hits == 1
        # The corrupt entry was overwritten with a valid one.
        assert ParallelRunner(max_workers=1, cache_dir=tmp_path).run(tasks) == results

    def test_worker_failure_propagates(self):
        runner = ParallelRunner(max_workers=2)
        tasks = echo_tasks(2) + [ScenarioTask("test_boom", label="the-bomb")]
        with pytest.raises(RunnerError, match="the-bomb"):
            runner.run(tasks)

    def test_inline_failure_propagates(self):
        runner = ParallelRunner(max_workers=1)
        with pytest.raises(RunnerError, match="test_boom"):
            runner.run([ScenarioTask("test_boom")])

    def test_unknown_experiment_fails(self):
        runner = ParallelRunner(max_workers=1)
        with pytest.raises(RunnerError, match="no_such_experiment"):
            runner.run([ScenarioTask("no_such_experiment")])

    def test_negative_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(max_workers=-1)


class TestWorkerHelpers:
    def test_build_topology_specs(self):
        assert build_topology({"kind": "kiel"}).name == "kiel-18"
        grid = build_topology({"kind": "grid", "rows": 2, "cols": 3})
        assert grid.num_nodes == 6
        with pytest.raises(ValueError):
            build_topology({"kind": "klein-bottle"})

    def test_network_payload_round_trip(self):
        network = QNetwork((31, 30, 3), seed=7)
        clone = network_from_payload(network_payload(network))
        x = np.linspace(-1.0, 1.0, 31)
        assert np.allclose(network(x), clone(x))

    def test_quantized_network_payload_round_trip(self):
        from repro.rl.quantized import QuantizedNetwork

        network = QNetwork((31, 30, 3), seed=7)
        quantized = QuantizedNetwork(network, scale=1000)
        clone = network_from_payload(network_payload(quantized))
        # The worker gets a QuantizedNetwork at the original scale with
        # bit-identical integer weights.
        assert isinstance(clone, QuantizedNetwork)
        assert clone.scale == 1000
        for a, b in zip(quantized.weights_q, clone.weights_q):
            assert (a == b).all()


class TestBuiltInExperiments:
    def test_registry_contains_paper_harnesses(self):
        for name in ("sweep_point", "dynamic_run", "dcube_point",
                     "mobile_jammer_run", "node_churn_run"):
            assert name in EXPERIMENTS
        for spec_class in SPEC_FAMILIES.values():
            assert spec_class.experiment in EXPERIMENTS
        # A spawned worker imports only the runner module; the built-in
        # workers (defined next to their specs) must be registered then.
        # The registry is snapshotted before the spec import, which
        # would otherwise register the workers itself.
        check = (
            "import sys\n"
            "from repro.experiments.runner import EXPERIMENTS\n"
            "registered = set(EXPERIMENTS)\n"
            "from repro.experiments.spec import SPEC_FAMILIES\n"
            "missing = [c.experiment for c in SPEC_FAMILIES.values()\n"
            "           if c.experiment not in registered]\n"
            "sys.exit(f'unregistered: {missing}' if missing else 0)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        subprocess.run([sys.executable, "-c", check], env=env, check=True, timeout=60)

    def test_parallel_sweep_matches_serial(self, untrained_network):
        grid = dict(
            network=untrained_network,
            ratios=(0.0, 0.3),
            protocols=("lwb", "dimmer"),
            rounds_per_run=8,
            runs=2,
            seed=5,
        )
        serial = Session(max_workers=1).sweep(**grid)
        parallel = Session(max_workers=2).sweep(**grid)
        assert len(parallel.points) == len(serial.points) == 4
        for point in serial.points:
            twin = parallel.point(point.protocol, point.interference_ratio)
            assert twin.metrics.as_dict() == point.metrics.as_dict()

    def test_mobile_jammer_task_degrades_reliability(self):
        runner = ParallelRunner(max_workers=1)
        clean, jammed = runner.run(
            [
                ScenarioTask(
                    "mobile_jammer_run",
                    {"rounds": 12, "interference_ratio": 0.0, "round_period_s": 1.0},
                    seed=3,
                ),
                ScenarioTask(
                    "mobile_jammer_run",
                    {"rounds": 12, "interference_ratio": 0.6, "round_period_s": 1.0},
                    seed=3,
                ),
            ]
        )
        assert jammed["reliability"] <= clean["reliability"]

    def test_node_churn_task_reports_active_sources(self):
        runner = ParallelRunner(max_workers=1)
        (result,) = runner.run(
            [ScenarioTask("node_churn_run", {"rounds": 12, "churn_rate": 0.4}, seed=2)]
        )
        assert 1.0 <= result["average_active_sources"] <= 18.0
        assert 0.0 <= result["reliability"] <= 1.0


class TestScenarioFamilies:
    def test_mobile_jammer_moves_and_bounces(self):
        scenario = MobileJammerScenario(
            waypoints=((0.0, 0.0), (10.0, 0.0)), interference_ratio=0.3, speed_mps=1.0
        )
        assert scenario.position_at(0.0) == (0.0, 0.0)
        assert scenario.position_at(5.0) == (5.0, 0.0)
        assert scenario.position_at(10.0) == (10.0, 0.0)
        assert scenario.position_at(15.0) == (5.0, 0.0)  # bounced back
        assert scenario.position_at(20.0) == (0.0, 0.0)

    def test_mobile_jammer_across_spans_topology(self):
        topology = kiel_testbed()
        scenario = MobileJammerScenario.across(topology, interference_ratio=0.2)
        start = scenario.position_at(0.0)
        xs = [p[0] for p in topology.positions.values()]
        ys = [p[1] for p in topology.positions.values()]
        assert start == (min(xs), min(ys))

    def test_mobile_jammer_interference_is_composite(self):
        topology = kiel_testbed()
        scenario = MobileJammerScenario.across(topology, interference_ratio=0.2)
        source = scenario.interference_at(3.0)
        assert is_active(source, 0.0)

    def test_mobile_jammer_rejects_short_paths(self):
        with pytest.raises(ValueError):
            MobileJammerScenario(waypoints=((0.0, 0.0),), interference_ratio=0.2)

    def test_node_churn_deterministic_per_seed(self):
        topology = kiel_testbed()
        a = NodeChurnScenario(topology=topology, churn_rate=0.3, seed=5)
        b = NodeChurnScenario(topology=topology, churn_rate=0.3, seed=5)
        for round_index in (0, 7, 31):
            assert a.active_sources(round_index) == b.active_sources(round_index)

    def test_node_churn_coordinator_never_fails(self):
        topology = kiel_testbed()
        scenario = NodeChurnScenario(topology=topology, churn_rate=0.9, seed=1)
        for round_index in range(50):
            assert topology.coordinator in scenario.active_sources(round_index)

    def test_node_churn_actually_churns(self):
        topology = kiel_testbed()
        scenario = NodeChurnScenario(topology=topology, churn_rate=0.5, seed=1)
        counts = {len(scenario.active_sources(r)) for r in range(40)}
        assert min(counts) < topology.num_nodes  # some nodes go down


class TestFailedShards:
    """Failures must never be absorbed by the cache, and grids can
    complete around failed shards when asked to collect errors."""

    def test_cached_failure_entry_is_a_miss(self, tmp_path):
        import json

        from repro.experiments.runner import FAILURE_KEY

        task = echo_tasks(1)[0]
        poisoned = tmp_path / f"{task.key()}.json"
        poisoned.write_text(
            json.dumps({FAILURE_KEY: True, "task": "old-run", "error": "boom"})
        )
        runner = ParallelRunner(max_workers=1, cache_dir=tmp_path)
        results = runner.run([task])
        # The poisoned entry was ignored and the task recomputed ...
        assert results[0]["value"] == 0.0
        assert FAILURE_KEY not in results[0]
        assert runner.stats.cache_misses == 1
        # ... and the cache now holds the real result (in the sealed,
        # checksummed envelope every entry is written with).
        entry = json.loads(poisoned.read_text())
        assert entry["payload"]["value"] == 0.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_collect_errors_completes_the_grid(self, tmp_path, workers):
        from repro.experiments.runner import FAILURE_KEY

        tasks = [
            echo_tasks(1)[0],
            ScenarioTask("test_boom", label="shard-down"),
            echo_tasks(2)[1],
        ]
        runner = ParallelRunner(max_workers=workers, cache_dir=tmp_path)
        results = runner.run(tasks, collect_errors=True)
        assert results[0]["value"] == 0.0
        assert results[2]["value"] == 1.0
        assert results[1][FAILURE_KEY] is True
        assert results[1]["task"] == "shard-down"
        assert "RuntimeError" in results[1]["error"]
        # The failure was not cached: only the two successes are on disk.
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_default_mode_still_raises(self):
        runner = ParallelRunner(max_workers=1)
        with pytest.raises(RunnerError):
            runner.run([ScenarioTask("test_boom")])


class TestTraceChunks:
    """``trace_episode`` shards over one topology run as lock-step chunks."""

    GRID = {"kind": "grid", "rows": 2, "cols": 3, "spacing_m": 6.0, "comm_range_m": 9.0}

    def trace_task(self, n_tx, topology=None, seed=0, **extra):
        params = {"n_tx": n_tx, "episode": [[2, 0.1]], **extra}
        if topology is not None:
            params["topology"] = topology
        return ScenarioTask("trace_episode", params, seed=seed)

    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_units_deal_one_topology_into_worker_chunks(self, workers):
        tasks = [self.trace_task(n_tx) for n_tx in range(5)]
        tasks.insert(2, self.trace_task(1, topology=self.GRID))
        tasks.append(self.trace_task(1, bogus=True))  # does not bind: alone
        units = ParallelRunner._units(tasks, range(len(tasks)), workers)
        # The Kiel slices are dealt round-robin into min(workers, 5)
        # chunks (a chunk of one is a plain task); the grid slice and the
        # unbindable one run alone.  Units are ordered by first member.
        kiel = (0, 1, 3, 4, 5)
        count = min(workers, len(kiel))
        chunks = [kiel[offset::count] for offset in range(count)]
        expected = [chunk if len(chunk) > 1 else chunk[0] for chunk in chunks] + [2, 6]
        first = lambda unit: unit[0] if isinstance(unit, tuple) else unit  # noqa: E731
        assert units == sorted(expected, key=first)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_member_falls_back_to_per_shard_runs(self, tmp_path, workers):
        from repro.experiments.resilience import RetryPolicy
        from repro.experiments.runner import FAILURE_KEY
        from repro.experiments.spec import run_trace_episode

        # N_TX -1 binds (so it joins the chunk) but fails in the simulator.
        tasks = [
            self.trace_task(n_tx, topology=self.GRID, seed=index)
            for index, n_tx in enumerate([1, 2, -1, 3])
        ]
        runner = ParallelRunner(
            max_workers=workers, cache_dir=tmp_path, retry_policy=RetryPolicy.none()
        )
        assert any(isinstance(unit, tuple) and 2 in unit
                   for unit in runner._units(tasks, range(4), workers))
        results = runner.run(tasks, collect_errors=True)
        assert results[2][FAILURE_KEY] is True
        assert "n_tx must be non-negative" in results[2]["error"]
        for index in (0, 1, 3):
            task = tasks[index]
            assert results[index] == run_trace_episode(seed=task.seed, **task.params)
            assert (tmp_path / f"{task.key()}.json").exists()
        assert not (tmp_path / f"{tasks[2].key()}.json").exists()
        assert runner.stats.executed == 3
