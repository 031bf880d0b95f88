"""Tests for the fault-tolerant execution layer.

The acceptance bar (ISSUE 8): a 64-shard grid with a seeded 20%
kill/hang/raise/corrupt fault plan completes with results — and on-disk
cache entries — byte-identical to a fault-free run, retries/timeouts/
quarantines surface in ``RunnerStats`` and the artifact envelope, and an
interrupted run resumes from the result cache with zero recomputation
of finished shards.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures.process import _ExecutorManagerThread
from pathlib import Path

import pytest

from chaos import FAULT_PLAN_ENV, ChaosFault, FaultPlan, chaos_tasks, main as chaos_main
from repro.experiments.resilience import (
    CorruptResult,
    GridInterrupted,
    RetryPolicy,
    ShardTimeout,
    open_result,
    result_checksum,
    seal_result,
)
from repro.experiments.runner import (
    FAILURE_KEY,
    ParallelRunner,
    RunnerError,
    ScenarioTask,
    register_experiment,
    stable_seed,
)

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


@register_experiment("resilience_echo")
def _echo(seed=0, value=0.0):
    return {"value": float(value), "seed": int(seed)}


@register_experiment("resilience_trip")
def _trip(seed=0, value=0, trip=""):
    """Raises KeyboardInterrupt at ``value == 2`` until ``trip`` exists,
    simulating ^C arriving mid-grid in inline mode."""
    if int(value) == 2 and trip and not os.path.exists(trip):
        raise KeyboardInterrupt
    return {"value": int(value)}


def echo_tasks(count, seed=0):
    return [
        ScenarioTask(
            "resilience_echo", {"value": float(i)}, seed=stable_seed("res", seed, i)
        )
        for i in range(count)
    ]


def fast_policy(max_attempts=3):
    return RetryPolicy(max_attempts=max_attempts, base_delay_s=0.01, max_delay_s=0.05)


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay_s=0.1, backoff_factor=2.0, max_delay_s=1.0)
        delays = [policy.delay_s("some-key", attempt) for attempt in (1, 2, 3, 9)]
        assert delays == [policy.delay_s("some-key", a) for a in (1, 2, 3, 9)]
        # +-50% jitter around the exponential base, capped at max_delay.
        assert 0.05 <= delays[0] <= 0.15
        assert 0.1 <= delays[1] <= 0.3
        assert all(d <= 1.5 for d in delays)
        # Different keys draw different jitter.
        assert policy.delay_s("a", 1) != policy.delay_s("b", 1)

    def test_classification(self):
        policy = RetryPolicy()
        from concurrent.futures.process import BrokenProcessPool

        assert policy.is_transient(ChaosFault("boom"))
        assert policy.is_transient(CorruptResult("bad checksum"))
        assert policy.is_transient(ShardTimeout("too slow"))
        assert policy.is_transient(BrokenProcessPool("worker died"))
        assert policy.is_transient(TimeoutError())
        # Permanent: bad specs, unknown families, deterministic bugs.
        assert not policy.is_transient(KeyError("unknown experiment"))
        assert not policy.is_transient(TypeError("bad param"))
        assert not policy.is_transient(ValueError("bad value"))
        assert not policy.is_transient(RuntimeError("experiment bug"))

    def test_single_attempt_policy(self):
        assert RetryPolicy.none().max_attempts == 1
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestResultEnvelope:
    def test_seal_and_open_round_trip(self):
        payload = {"value": 1.0, "nested": {"a": [1, 2]}}
        assert open_result(seal_result(payload)) == payload

    def test_tampered_envelope_detected(self):
        envelope = dict(seal_result({"value": 1.0}), sha256="deadbeef" * 8)
        with pytest.raises(CorruptResult):
            open_result(envelope)

    def test_modified_payload_detected(self):
        envelope = seal_result({"value": 1.0})
        envelope["payload"]["value"] = 2.0
        with pytest.raises(CorruptResult):
            open_result(envelope)

    @pytest.mark.parametrize("value", [{"value": 3.0}, [1, 2], None, {"__sealed__": 0}])
    def test_unsealed_values_rejected(self, value):
        with pytest.raises(CorruptResult, match="not sealed"):
            open_result(value)

    def test_checksum_is_content_stable(self):
        assert result_checksum({"a": 1, "b": 2}) == result_checksum({"b": 2, "a": 1})


class TestFaultPlan:
    def test_deterministic_and_rate_bounded(self):
        plan = FaultPlan(seed=3, rate=0.25)
        faults = [plan.fault_for(("task", i), 0) for i in range(400)]
        assert faults == [plan.fault_for(("task", i), 0) for i in range(400)]
        hit_rate = sum(f is not None for f in faults) / len(faults)
        assert 0.15 < hit_rate < 0.35
        assert set(f for f in faults if f) <= set(plan.kinds)

    def test_faults_stop_after_repeats(self):
        plan = FaultPlan(seed=3, rate=1.0, repeats=2)
        assert plan.fault_for("k", 0) is not None
        assert plan.fault_for("k", 1) is not None
        assert plan.fault_for("k", 2) is None

    def test_env_round_trip(self, monkeypatch):
        plan = FaultPlan(seed=9, rate=0.5, kinds=("raise",), hang_s=1.5, repeats=3)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        assert FaultPlan.from_env() == plan
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert FaultPlan.from_env() is None

    def test_rejects_unknown_kinds(self):
        with pytest.raises(ValueError):
            FaultPlan(kinds=("explode",))


class TestRetries:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_transient_fault_is_retried_to_success(self, monkeypatch, tmp_path, workers):
        plan = FaultPlan(seed=1, rate=1.0, kinds=("raise",), repeats=1)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        runner = ParallelRunner(
            max_workers=workers, cache_dir=tmp_path, retry_policy=fast_policy()
        )
        results = runner.run(chaos_tasks(3))
        assert [r["value"] for r in results] == [0.0, 1.0, 2.0]
        assert runner.stats.retries == 3
        assert runner.stats.executed == 3

    def test_exhausted_retries_fail(self, monkeypatch):
        plan = FaultPlan(seed=1, rate=1.0, kinds=("raise",), repeats=99)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        runner = ParallelRunner(max_workers=1, retry_policy=fast_policy(max_attempts=2))
        with pytest.raises(RunnerError, match="ChaosFault"):
            runner.run(chaos_tasks(1))
        assert runner.stats.retries == 1

    def test_permanent_failure_fails_fast(self):
        runner = ParallelRunner(max_workers=1, retry_policy=fast_policy())
        with pytest.raises(RunnerError, match="no_such_experiment"):
            runner.run([ScenarioTask("no_such_experiment")])
        assert runner.stats.retries == 0

    def test_corrupt_result_is_detected_and_retried(self, monkeypatch, tmp_path):
        plan = FaultPlan(seed=1, rate=1.0, kinds=("corrupt",), repeats=1)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        runner = ParallelRunner(
            max_workers=2, cache_dir=tmp_path, retry_policy=fast_policy()
        )
        results = runner.run(chaos_tasks(4))
        assert [r["value"] for r in results] == [0.0, 1.0, 2.0, 3.0]
        assert runner.stats.corrupt_results == 4
        assert runner.stats.retries == 4
        # The cached entries hold the verified (non-tampered) results.
        fresh = ParallelRunner(max_workers=1, cache_dir=tmp_path)
        assert fresh.run(chaos_tasks(4)) == results
        assert fresh.stats.cache_hits == 4


def pool_leftovers():
    """Live pool manager threads and worker processes of this process."""
    threads = {
        thread for thread in threading.enumerate()
        if isinstance(thread, _ExecutorManagerThread) and thread.is_alive()
    }
    return threads, {child.pid for child in multiprocessing.active_children()}


class TestPoolTeardown:
    """``run`` leaves no pool behind: a manager thread left running races
    ``concurrent.futures``' exit hook on the closed wakeup pipe and prints
    ``OSError: [Errno 9]`` at interpreter exit."""

    def assert_no_new_leftovers(self, before):
        threads, workers = pool_leftovers()
        assert threads - before[0] == set()
        assert workers - before[1] == set()

    def test_normal_run_leaves_no_pool(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        before = pool_leftovers()
        results = ParallelRunner(max_workers=2).run(echo_tasks(4))
        assert [r["value"] for r in results] == [0.0, 1.0, 2.0, 3.0]
        self.assert_no_new_leftovers(before)

    def test_timeout_rebuild_leaves_no_pool(self, monkeypatch, tmp_path):
        plan = FaultPlan(seed=2, rate=1.0, kinds=("hang",), hang_s=15.0, repeats=1)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        before = pool_leftovers()
        runner = ParallelRunner(
            max_workers=2, cache_dir=tmp_path, retry_policy=fast_policy(), shard_timeout_s=0.5
        )
        results = runner.run(chaos_tasks(2))
        assert [r["value"] for r in results] == [0.0, 1.0]
        assert runner.stats.pool_restarts >= 1
        # The hung worker is killed, not left to finish its 15 s hang.
        self.assert_no_new_leftovers(before)

    def test_timeout_teardown_ends_the_hung_workers_at_once(self, monkeypatch):
        """A timeout rebuild's SIGTERM ends the busy workers at once: they
        do not inherit the parent's drain handler, under which SIGTERM
        only sets a flag and the teardown waits out its 2 s join."""
        from repro.experiments import runner as runner_module

        plan = FaultPlan(seed=2, rate=1.0, kinds=("hang",), hang_s=15.0, repeats=1)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        teardowns = []
        terminate = runner_module._terminate_pool

        def timed_terminate(pool):
            start = time.perf_counter()
            terminate(pool)
            if pool is not None:
                teardowns.append(time.perf_counter() - start)

        monkeypatch.setattr(runner_module, "_terminate_pool", timed_terminate)
        before = pool_leftovers()
        runner = ParallelRunner(
            max_workers=2, retry_policy=RetryPolicy.none(), shard_timeout_s=0.5
        )
        results = runner.run(chaos_tasks(2), collect_errors=True)
        assert all(result.get(FAILURE_KEY) for result in results)
        assert runner.stats.timeouts >= 1
        assert teardowns and teardowns[0] < 1.0
        self.assert_no_new_leftovers(before)

    def test_second_interrupt_is_grid_interrupted(self, monkeypatch):
        """A second signal raises ``KeyboardInterrupt`` wherever the loop
        is, here in its first ``wait``: the run still ends in
        ``GridInterrupted`` with its accounting, and the pool is gone."""
        from repro.experiments import runner as runner_module

        def interrupted_wait(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        monkeypatch.setattr(runner_module, "wait", interrupted_wait)
        before = pool_leftovers()
        # The base class, so that a bare KeyboardInterrupt fails this
        # test instead of ending the session.
        with pytest.raises(KeyboardInterrupt) as stop:
            ParallelRunner(max_workers=2).run(echo_tasks(4))
        assert isinstance(stop.value, GridInterrupted)
        assert (stop.value.completed, stop.value.total) == (0, 4)
        self.assert_no_new_leftovers(before)


class TestTimeouts:
    def test_straggler_is_cancelled_and_retried(self, monkeypatch, tmp_path):
        plan = FaultPlan(seed=2, rate=1.0, kinds=("hang",), hang_s=15.0, repeats=1)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        runner = ParallelRunner(
            max_workers=2,
            cache_dir=tmp_path,
            retry_policy=fast_policy(),
            shard_timeout_s=0.5,
        )
        start = time.monotonic()
        results = runner.run(chaos_tasks(2))
        elapsed = time.monotonic() - start
        assert [r["value"] for r in results] == [0.0, 1.0]
        assert runner.stats.timeouts >= 1
        assert runner.stats.pool_restarts >= 1
        # The watchdog fired: nowhere near the 15s hang.
        assert elapsed < 10.0

    def test_timeout_requires_positive_value(self):
        with pytest.raises(ValueError):
            ParallelRunner(max_workers=2, shard_timeout_s=0.0)


class TestBrokenPool:
    """Satellite: a worker killed with SIGKILL mid-grid must fail only
    its shard under ``collect_errors=True``, not abort the grid."""

    def test_killed_worker_recovers_via_retry(self, monkeypatch, tmp_path):
        plan = FaultPlan(seed=4, rate=1.0, kinds=("kill",), repeats=1)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        runner = ParallelRunner(
            max_workers=2, cache_dir=tmp_path, retry_policy=fast_policy()
        )
        results = runner.run(chaos_tasks(4))
        assert [r["value"] for r in results] == [0.0, 1.0, 2.0, 3.0]
        assert runner.stats.pool_restarts >= 1

    def test_always_killed_shard_fails_alone(self, monkeypatch, tmp_path):
        # One chaos shard that dies on every attempt, among healthy
        # plain shards: the grid must complete around it.
        plan = FaultPlan(seed=4, rate=1.0, kinds=("kill",), repeats=999)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        tasks = echo_tasks(4) + chaos_tasks(1) + echo_tasks(2, seed=9)
        runner = ParallelRunner(
            max_workers=2, cache_dir=tmp_path, retry_policy=fast_policy(max_attempts=2)
        )
        results = runner.run(tasks, collect_errors=True)
        healthy = [r for i, r in enumerate(results) if i != 4]
        assert all(not r.get(FAILURE_KEY) for r in healthy)
        assert results[4][FAILURE_KEY] is True
        assert "BrokenWorker" in results[4]["error"]
        # The failure was never cached; only healthy shards are on disk.
        assert len(list(tmp_path.glob("*.json"))) == 6

    def test_always_killed_shard_raises_without_collect_errors(self, monkeypatch):
        plan = FaultPlan(seed=4, rate=1.0, kinds=("kill",), repeats=999)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        runner = ParallelRunner(
            max_workers=2, retry_policy=fast_policy(max_attempts=2)
        )
        with pytest.raises(RunnerError, match="chaos#0"):
            runner.run(echo_tasks(2) + chaos_tasks(1))


class TestCacheIntegrity:
    """Satellite: corrupt cache entries are counted, quarantined to
    ``*.corrupt``, recomputed and re-cached — never silently swallowed."""

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda raw: raw[: len(raw) // 2], id="truncated"),
            pytest.param(lambda raw: raw[:10] + b"\xff\xfe" + raw[12:], id="invalid-utf8"),
        ],
    )
    def test_damaged_entry_quarantined_and_recached(self, tmp_path, caplog, damage):
        tasks = echo_tasks(3)
        ParallelRunner(max_workers=1, cache_dir=tmp_path).run(tasks)
        victim = tmp_path / f"{tasks[1].key()}.json"
        victim.write_bytes(damage(victim.read_bytes()))

        runner = ParallelRunner(max_workers=1, cache_dir=tmp_path)
        with caplog.at_level("WARNING", logger="repro.experiments.runner"):
            results = runner.run(tasks)
        assert [r["value"] for r in results] == [0.0, 1.0, 2.0]
        assert runner.stats.quarantined == 1
        assert runner.stats.cache_hits == 2
        assert runner.stats.cache_misses == 1
        assert runner.stats.executed == 1
        # The damaged entry was moved aside, not deleted, and logged.
        assert (tmp_path / f"{tasks[1].key()}.json.corrupt").exists()
        assert any("quarantined" in record.message for record in caplog.records)
        # The shard was re-cached: the next run is a full hit.
        fresh = ParallelRunner(max_workers=1, cache_dir=tmp_path)
        assert fresh.run(tasks) == results
        assert fresh.stats.cache_hits == 3
        assert fresh.stats.quarantined == 0

    def test_checksum_mismatch_quarantined(self, tmp_path):
        tasks = echo_tasks(1)
        ParallelRunner(max_workers=1, cache_dir=tmp_path).run(tasks)
        victim = tmp_path / f"{tasks[0].key()}.json"
        entry = json.loads(victim.read_text())
        entry["payload"]["value"] = 777.0  # bit-rot the payload
        victim.write_text(json.dumps(entry))
        runner = ParallelRunner(max_workers=1, cache_dir=tmp_path)
        (result,) = runner.run(tasks)
        assert result["value"] == 0.0  # recomputed, not served
        assert runner.stats.quarantined == 1

    def test_hand_written_unsealed_entry_is_not_served(self, tmp_path):
        """Only sealed entries are results; an unsealed one is quarantined."""
        task = echo_tasks(1)[0]
        (tmp_path / f"{task.key()}.json").write_text(
            json.dumps({"value": 999.0, "seed": task.seed})
        )
        runner = ParallelRunner(max_workers=1, cache_dir=tmp_path)
        (result,) = runner.run([task])
        assert result["value"] == 0.0  # recomputed, not the forged value
        assert runner.stats.quarantined == 1
        assert runner.stats.cache_hits == 0
        assert runner.stats.executed == 1


class TestResumeFromCache:
    """An interrupted or repeated grid resumes from the result cache."""

    def test_rerun_is_served_from_the_cache(self, tmp_path):
        tasks = echo_tasks(5)
        first = ParallelRunner(max_workers=2, cache_dir=tmp_path / "cache")
        results = first.run(tasks)
        again = ParallelRunner(max_workers=1, cache_dir=tmp_path / "cache")
        assert again.run(tasks) == results
        assert again.stats.cache_hits == 5
        assert again.stats.executed == 0

    def test_without_a_cache_a_rerun_recomputes(self):
        tasks = echo_tasks(3)
        ParallelRunner(max_workers=1).run(tasks)
        again = ParallelRunner(max_workers=1)
        again.run(tasks)
        assert again.stats.cache_hits == 0
        assert again.stats.executed == 3

    def test_inline_interrupt_flushes_and_resumes(self, tmp_path):
        """Satellite: an interrupt mid-grid flushes completed shards to
        the cache; the rerun is a pure cache hit for them."""
        trip = tmp_path / "trip.marker"
        tasks = [
            ScenarioTask(
                "resilience_trip",
                {"value": i, "trip": str(trip)},
                seed=stable_seed("trip", i),
            )
            for i in range(5)
        ]
        runner = ParallelRunner(max_workers=1, cache_dir=tmp_path / "cache")
        with pytest.raises(GridInterrupted) as stop:
            runner.run(tasks)
        assert stop.value.completed == 2
        assert stop.value.total == 5
        assert len(list((tmp_path / "cache").glob("*.json"))) == 2

        trip.touch()  # the "interrupt" condition clears
        again = ParallelRunner(max_workers=1, cache_dir=tmp_path / "cache")
        results = again.run(tasks)
        assert [r["value"] for r in results] == [0, 1, 2, 3, 4]
        assert again.stats.cache_hits == 2
        assert again.stats.executed == 3


INTERRUPT_SCRIPT = textwrap.dedent(
    """
    import json, sys, time
    sys.path.insert(0, {src!r})
    from repro.experiments.runner import (
        ParallelRunner, ScenarioTask, register_experiment, stable_seed)

    @register_experiment("ckpt_nap")
    def nap(seed=0, value=0):
        time.sleep(0.15)
        return {{"value": int(value), "seed": int(seed)}}

    tasks = [ScenarioTask("ckpt_nap", {{"value": i}}, seed=stable_seed("nap", i))
             for i in range(12)]
    runner = ParallelRunner(max_workers=2, cache_dir={cache!r})
    try:
        runner.run(tasks)
    except KeyboardInterrupt as stop:
        print(json.dumps({{"interrupted": True,
                           "completed": getattr(stop, "completed", -1)}}))
        sys.exit(130)
    print(json.dumps({{"interrupted": False,
                       "executed": runner.stats.executed,
                       "cache_hits": runner.stats.cache_hits}}))
    """
)


class TestSigintGracefulShutdown:
    """Satellite: SIGINT during ``run`` drains in-flight shards, flushes
    them to the cache, and the rerun resumes for free."""

    def test_sigint_flushes_then_rerun_resumes(self, tmp_path):
        cache = tmp_path / "cache"
        script = tmp_path / "grid.py"
        script.write_text(INTERRUPT_SCRIPT.format(src=SRC_DIR, cache=str(cache)))

        first = subprocess.Popen(
            [sys.executable, str(script)], stdout=subprocess.PIPE, text=True
        )
        deadline = time.monotonic() + 20.0
        try:
            # Wait until a couple of shards are cached, then ^C.  An
            # in-flight write ends in ``.tmp``, so the glob skips it.
            while time.monotonic() < deadline:
                if len(list(cache.glob("*.json"))) >= 2:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("grid subprocess never cached any shard")
            first.send_signal(signal.SIGINT)
            out, _ = first.communicate(timeout=20.0)
        finally:
            if first.poll() is None:
                first.kill()
        assert first.returncode == 130
        report = json.loads(out.strip().splitlines()[-1])
        assert report["interrupted"] is True

        # Every completed shard has a cache entry (the drain flushed
        # before exiting).
        completed = report["completed"]
        assert 0 < completed < 12
        assert len(list(cache.glob("*.json"))) == completed

        second = subprocess.run(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=60.0,
            check=True,
        )
        report = json.loads(second.stdout.strip().splitlines()[-1])
        assert report["interrupted"] is False
        # Zero recomputation of finished shards: 100% cache hits for
        # them, only the unfinished remainder executes.
        assert report["cache_hits"] == completed
        assert report["executed"] == 12 - completed


class TestChaosAcceptance:
    """The ISSUE 8 acceptance bar, end to end."""

    def test_64_shard_grid_survives_20_percent_faults(self, monkeypatch, tmp_path):
        tasks = chaos_tasks(64)
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        reference_dir = tmp_path / "reference"
        reference = ParallelRunner(max_workers=4, cache_dir=reference_dir).run(tasks)

        plan = FaultPlan(seed=11, rate=0.2, hang_s=2.5, repeats=1)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        chaos_dir = tmp_path / "chaos"
        runner = ParallelRunner(
            max_workers=4,
            cache_dir=chaos_dir,
            retry_policy=fast_policy(max_attempts=4),
            shard_timeout_s=0.8,
        )
        results = runner.run(tasks, collect_errors=True)

        # Sanity: the plan actually injected a meaningful fault load.
        injected = sum(
            plan.fault_for(
                {"inner": "chaos_echo", "params": {"value": float(i)},
                 "seed": tasks[i].seed},
                0,
            )
            is not None
            for i in range(64)
        )
        assert injected >= 8
        assert runner.stats.retries > 0

        # Every shard completed with results identical to the fault-free
        # run — no failure entries, no drift.
        assert not any(r.get(FAILURE_KEY) for r in results)
        assert results == reference

        # Cache entries are byte-identical (same keys, same envelopes).
        for task in tasks:
            name = f"{task.key()}.json"
            assert (chaos_dir / name).read_bytes() == (reference_dir / name).read_bytes()

        # The cache holds the whole grid; a rerun is pure resume — zero
        # recomputation.
        again = ParallelRunner(max_workers=4, cache_dir=chaos_dir)
        assert again.run(tasks) == reference
        assert again.stats.executed == 0
        assert again.stats.cache_hits == 64


class TestChaosSmoke:
    """The smoke driver stays able to fail, and the package ships no rig."""

    def test_smoke_fails_when_faults_never_recover(self, monkeypatch, capsys):
        # Every attempt of every shard raises, past the retry budget.
        plan = FaultPlan(seed=1, rate=1.0, kinds=("raise",), repeats=9)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        assert chaos_main(["--shards", "4", "--workers", "2", "--retries", "2"]) == 1
        assert "[chaos] FAILED" in capsys.readouterr().out

    def test_package_registers_no_chaos_experiment(self):
        script = (
            "import json, repro, repro.api, repro.experiments\n"
            "from repro.experiments.runner import EXPERIMENTS\n"
            "print(json.dumps(sorted(EXPERIMENTS)))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            stdout=subprocess.PIPE,
            text=True,
            timeout=60.0,
            check=True,
        )
        registered = json.loads(completed.stdout.strip().splitlines()[-1])
        assert "sweep_point" in registered
        assert not [name for name in registered if name.startswith("chaos")]
