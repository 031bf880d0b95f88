"""Deterministic fault-injection rig for the parallel runner.

The runner promises that a grid survives killed workers, stragglers,
transient exceptions and corrupt results (see
:mod:`repro.experiments.resilience`).  This module proves it with a
seeded :class:`FaultPlan` of ``kill`` / ``hang`` / ``raise`` /
``corrupt`` faults.  It is test code: the package neither imports nor
registers any of it.

Importing this module

* registers two experiments: ``chaos``, which runs an inner experiment
  (by default ``chaos_echo``, a cheap deterministic echo), and
  ``chaos_echo`` itself; and
* replaces the runner's module-level worker entry point
  ``_execute_task`` with :func:`_execute_with_faults`.  The runner's
  scheduler looks that function up at call time, inline runs call it
  in process and the pool forks its workers, so the wrapper runs for
  every task of every later grid.  It injects faults only into
  ``chaos`` tasks, and only while :data:`FAULT_PLAN_ENV` holds a plan.

The plan travels in the environment, never in task params, so a chaos
task's cache key is identical with and without faults.  Faults are keyed
on the task's content identity and the runner's attempt number.

Run ``PYTHONPATH=src python tests/chaos.py`` for the chaos smoke: it
executes the same grid with and without an injected fault plan and
exits nonzero unless the faulted run completes with byte-identical
results and cache entries.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments import runner
from repro.experiments.resilience import RetryPolicy, TransientError
from repro.experiments.runner import (
    FAILURE_KEY,
    ParallelRunner,
    ScenarioTask,
    _canonical,
    register_experiment,
    stable_seed,
)

#: Environment variable carrying a JSON-encoded :class:`FaultPlan`.
#: A plan set before the pool forks reaches every worker.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit code of a worker killed by an injected ``kill`` fault.
CHAOS_KILL_EXIT = 87

#: Fault kinds the rig can inject.
FAULT_KINDS = ("raise", "kill", "hang", "corrupt")


class ChaosFault(TransientError):
    """An injected fault of the ``raise`` kind."""


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    ``fault_for(ident, attempt)`` hashes the plan seed, the shard's
    content identity and the attempt number into a uniform draw; a
    fraction ``rate`` of shards fault, with the kind picked uniformly
    from ``kinds``.  Faults only fire on attempts below ``repeats``
    (default 1), so any retrying runner is guaranteed to converge: the
    retry of a faulted attempt runs clean.
    """

    seed: int = 0
    rate: float = 0.2
    kinds: Tuple[str, ...] = FAULT_KINDS
    hang_s: float = 30.0
    repeats: int = 1

    def __post_init__(self) -> None:
        unknown = sorted(set(self.kinds) - set(FAULT_KINDS))
        if unknown:
            raise ValueError(f"unknown fault kinds {unknown}; choose from {FAULT_KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")

    def fault_for(self, ident: Any, attempt: int) -> Optional[str]:
        """The fault (or ``None``) for one (shard identity, attempt)."""
        if self.rate <= 0.0 or attempt >= self.repeats or not self.kinds:
            return None
        draw = stable_seed("fault", self.seed, ident, attempt)
        if (draw % 1_000_000) / 1_000_000.0 >= self.rate:
            return None
        return self.kinds[(draw // 1_000_000) % len(self.kinds)]

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "rate": self.rate,
                "kinds": list(self.kinds),
                "hang_s": self.hang_s,
                "repeats": self.repeats,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        document = json.loads(text)
        if not isinstance(document, dict):
            raise ValueError(f"a fault plan must be a JSON object, got {type(document).__name__}")
        return cls(
            seed=int(document.get("seed", 0)),
            rate=float(document.get("rate", 0.2)),
            kinds=tuple(document.get("kinds", FAULT_KINDS)),
            hang_s=float(document.get("hang_s", 30.0)),
            repeats=int(document.get("repeats", 1)),
        )

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan from :data:`FAULT_PLAN_ENV`, or ``None`` when unset."""
        text = os.environ.get(FAULT_PLAN_ENV)
        return cls.from_json(text) if text else None


@register_experiment("chaos")
def run_chaos(
    seed: int = 0, inner: str = "chaos_echo", params: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Run the registered experiment ``inner`` with ``params``.

    The faults come from :func:`_execute_with_faults`, which wraps every
    ``chaos`` task; this function only delegates.
    """
    try:
        fn = runner.EXPERIMENTS[inner]
    except KeyError:
        raise KeyError(
            f"chaos wrapper: unknown inner experiment {inner!r}; "
            f"registered: {sorted(runner.EXPERIMENTS)}"
        ) from None
    return fn(seed=seed, **dict(params or {}))


@register_experiment("chaos_echo")
def run_chaos_echo(seed: int = 0, value: float = 0.0) -> Dict[str, Any]:
    """Cheap deterministic experiment for chaos grids and smoke tests."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return {"value": float(value), "seed": int(seed), "draw": float(rng.random())}


def chaos_tasks(shards: int, seed: int = 0) -> List[ScenarioTask]:
    """A grid of ``shards`` chaos-wrapped echo tasks (deterministic keys)."""
    return [
        ScenarioTask(
            "chaos",
            {"inner": "chaos_echo", "params": {"value": float(index)}},
            seed=stable_seed("chaos-grid", seed, index),
            label=f"chaos#{index}",
        )
        for index in range(shards)
    ]


#: The runner's own worker entry point, which the wrapper calls.
_execute_task = runner._execute_task


def _execute_with_faults(task: ScenarioTask, attempt: int = 0) -> Dict[str, Any]:
    """The runner's ``_execute_task`` with the env plan's faults injected.

    ``kill`` exits the worker process hard (downgraded to ``raise`` when
    running inline in the orchestrating process), ``hang`` sleeps past
    any sane shard timeout, ``raise`` throws a transient
    :class:`ChaosFault`, and ``corrupt`` returns the real sealed
    envelope with a damaged payload, so its checksum no longer matches.
    """
    plan = FaultPlan.from_env() if task.experiment == "chaos" else None
    inner = task.params.get("inner", "chaos_echo")
    fault = None
    if plan is not None:
        params = dict(task.params.get("params") or {})
        ident = {"inner": inner, "params": _canonical(params), "seed": task.seed}
        fault = plan.fault_for(ident, attempt)
    if fault == "kill":
        if multiprocessing.parent_process() is not None:
            os._exit(CHAOS_KILL_EXIT)
        fault = "raise"  # never hard-kill the orchestrating process
    if fault == "raise":
        raise ChaosFault(f"injected fault for {inner!r} (seed={task.seed})")
    if fault == "hang":
        time.sleep(plan.hang_s)
    envelope = _execute_task(task, attempt)
    if fault == "corrupt":
        # Damage the payload under its original digest, as a torn
        # transfer would: a digest-only flip would leave the payload
        # intact, and the smoke could not tell a runner that skips
        # verification from one that verifies.
        envelope = dict(envelope, payload=dict(envelope["payload"], corrupted=True))
    return envelope


runner._execute_task = _execute_with_faults


# ----------------------------------------------------------------------
# Chaos smoke driver (``python tests/chaos.py``)
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run a grid with and without injected faults and compare them.

    Exit 0 iff the faulted run completes every shard with results — and
    on-disk cache entries — byte-identical to the fault-free reference.
    The plan comes from :data:`FAULT_PLAN_ENV` when set, else from the
    command line flags.
    """
    parser = argparse.ArgumentParser(
        prog="python tests/chaos.py",
        description="Deterministic chaos smoke for the fault-tolerant runner.",
    )
    parser.add_argument("--shards", type=int, default=32, help="grid size")
    parser.add_argument("--workers", type=int, default=4, help="worker processes")
    parser.add_argument("--grid-seed", type=int, default=0, help="seed of the task grid")
    parser.add_argument("--plan-seed", type=int, default=11,
                        help="fault-plan seed (ignored when REPRO_FAULT_PLAN is set)")
    parser.add_argument("--rate", type=float, default=0.2,
                        help="fault rate (ignored when REPRO_FAULT_PLAN is set)")
    parser.add_argument("--hang-s", type=float, default=3.0,
                        help="hang-fault duration (ignored when REPRO_FAULT_PLAN is set)")
    parser.add_argument("--shard-timeout", type=float, default=1.0,
                        help="per-shard wall-clock timeout [s]")
    parser.add_argument("--retries", type=int, default=3,
                        help="retries per shard after the first attempt")
    args = parser.parse_args(argv)

    plan = FaultPlan.from_env() or FaultPlan(
        seed=args.plan_seed, rate=args.rate, hang_s=args.hang_s
    )
    tasks = chaos_tasks(args.shards, seed=args.grid_seed)
    saved_plan = os.environ.pop(FAULT_PLAN_ENV, None)
    try:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            reference_dir = Path(tmp) / "reference"
            chaos_dir = Path(tmp) / "chaos"
            reference = ParallelRunner(
                max_workers=args.workers, cache_dir=reference_dir
            ).run(tasks)

            os.environ[FAULT_PLAN_ENV] = plan.to_json()
            try:
                chaos_runner = ParallelRunner(
                    max_workers=args.workers,
                    cache_dir=chaos_dir,
                    retry_policy=RetryPolicy(max_attempts=args.retries + 1),
                    shard_timeout_s=args.shard_timeout,
                )
                results = chaos_runner.run(tasks, collect_errors=True)
            finally:
                os.environ.pop(FAULT_PLAN_ENV, None)

            failed = [r for r in results if isinstance(r, dict) and r.get(FAILURE_KEY)]
            mismatched = [
                task.describe()
                for task, got, want in zip(tasks, results, reference)
                if not (isinstance(got, dict) and got.get(FAILURE_KEY)) and got != want
            ]
            torn_files = [
                task.describe()
                for task in tasks
                if (reference_dir / f"{task.key()}.json").read_bytes()
                != (chaos_dir / f"{task.key()}.json").read_bytes()
            ] if not failed else []
            stats = chaos_runner.stats
            print(
                f"[chaos] shards={args.shards} plan={plan.to_json()}\n"
                f"[chaos] executed={stats.executed} retries={stats.retries} "
                f"timeouts={stats.timeouts} pool_restarts={stats.pool_restarts} "
                f"corrupt_results={stats.corrupt_results} "
                f"quarantined={stats.quarantined}"
            )
            if failed:
                print(f"[chaos] FAILED shards: {[f['task'] for f in failed]}", file=sys.stderr)
            if mismatched:
                print(f"[chaos] MISMATCHED results: {mismatched}", file=sys.stderr)
            if torn_files:
                print(f"[chaos] cache entries differ: {torn_files}", file=sys.stderr)
            ok = not failed and not mismatched and not torn_files
            print(f"[chaos] {'OK: faulted run byte-identical to fault-free run' if ok else 'FAILED'}")
            return 0 if ok else 1
    finally:
        if saved_plan is not None:
            os.environ[FAULT_PLAN_ENV] = saved_plan


if __name__ == "__main__":
    sys.exit(main())
