"""Fault tolerance for the parallel execution layer.

The paper's subject is staying reliable under adversity; this module
gives the execution substrate the same property.  It supplies the
pieces :class:`~repro.experiments.runner.ParallelRunner` assembles into
a crash-safe grid run:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic* jitter (derived from :func:`stable_seed`, so a rerun
  schedules the exact same delays), plus the transient-vs-permanent
  exception classification: a timeout, a killed worker or a corrupt
  result is worth retrying; a bad spec or an unknown experiment family
  fails fast.
* **Result integrity envelopes** — :func:`seal_result` wraps every
  worker result (and every on-disk cache entry) in a SHA-256 checksum;
  :func:`open_result` verifies it and raises :class:`CorruptResult` on
  a mismatch or a missing seal, which the runner turns into a
  quarantine (cache) or a retry (in-flight result).
* :class:`FaultPlan` — a seeded, fully deterministic schedule of
  ``kill`` / ``hang`` / ``raise`` / ``corrupt`` faults, threaded into
  workers through the :data:`FAULT_PLAN_ENV` environment knob and the
  registered ``chaos`` experiment wrapper.  Tests and CI use it to
  assert "a 64-shard grid completes, byte-identical to a fault-free
  run, despite 20% injected faults".
* :class:`GridInterrupted` — the graceful-interruption signal: SIGINT /
  SIGTERM during a grid run drains the in-flight shards, flushes them
  to the cache, and raises this (a ``KeyboardInterrupt`` subclass)
  carrying the partial-completion accounting.  Rerunning the grid
  serves the flushed shards from the cache; without a cache there is
  nothing to resume from.

Run ``python -m repro.experiments.resilience`` for a self-contained
chaos smoke: it executes the same grid with and without an injected
fault plan and exits nonzero unless the faulted run completes with
byte-identical cache contents.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import (
    FAILURE_KEY,
    ScenarioTask,
    _canonical,
    register_experiment,
    stable_seed,
)

#: Environment variable carrying a JSON-encoded :class:`FaultPlan`.
#: Read worker-side by the ``chaos`` experiment wrapper, so a plan set
#: before the pool forks reaches every worker without touching task
#: params (cache keys stay identical to a fault-free run).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit code of a worker killed by an injected ``kill`` fault.
CHAOS_KILL_EXIT = 87


# ----------------------------------------------------------------------
# Failure taxonomy
# ----------------------------------------------------------------------
class TransientError(RuntimeError):
    """Base class of failures worth retrying (the shard itself is fine)."""

    transient = True


class ChaosFault(TransientError):
    """An injected fault from the chaos wrapper (``raise`` kind)."""


class CorruptResult(TransientError):
    """A result (in flight or cached) failed checksum verification."""


class ShardTimeout(TransientError):
    """A shard exceeded the per-shard wall-clock timeout."""


class BrokenWorker(TransientError):
    """The worker process executing a shard died (SIGKILL / OOM / segfault)."""


class GridInterrupted(KeyboardInterrupt):
    """A grid run was interrupted (SIGINT/SIGTERM) and drained gracefully.

    Completed shards were flushed to the cache before this was raised,
    so a rerun with the same cache directory serves them as cache hits
    and computes only the rest.  Subclasses ``KeyboardInterrupt`` so
    callers that only handle ^C keep their semantics.
    """

    def __init__(self, completed: int = 0, total: int = 0) -> None:
        super().__init__(f"grid interrupted after {completed}/{total} shards")
        self.completed = completed
        self.total = total


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry schedule for transient shard failures.

    ``max_attempts`` counts total tries (1 = no retries).  Backoff is
    exponential with +-50% jitter derived from :func:`stable_seed` of the
    task key and the attempt number — reruns of the same grid schedule
    the exact same delays, keeping fault-injected runs reproducible.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.1
    backoff_factor: float = 2.0
    max_delay_s: float = 2.0
    #: Cap on pool rebuilds (broken-pool / timeout recoveries) per
    #: ``run()`` call; ``None`` derives a generous bound from the grid
    #: size.  A backstop against a pathological kill-loop, not a tuning
    #: knob.
    max_pool_restarts: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A policy that never retries (single attempt, fail fast)."""
        return cls(max_attempts=1)

    def delay_s(self, key: str, attempt: int) -> float:
        """Deterministic backoff before retry number ``attempt`` (>= 1)."""
        base = min(
            self.max_delay_s,
            self.base_delay_s * self.backoff_factor ** max(0, attempt - 1),
        )
        jitter = stable_seed("backoff", key, attempt) / float(2**31)  # [0, 1)
        return base * (0.5 + jitter)

    def is_transient(self, error: BaseException) -> bool:
        """Transient failures are retried; permanent ones fail fast.

        Transient: anything flagged ``transient`` (the taxonomy above),
        a broken worker pool, timeouts and torn IPC streams.  Permanent:
        everything else — an unknown experiment family (``KeyError``), a
        bad spec (``TypeError``/``ValueError``) or a deterministic bug
        in the experiment would fail identically on every retry.
        """
        from concurrent.futures.process import BrokenProcessPool

        if getattr(error, "transient", False):
            return True
        return isinstance(
            error, (BrokenProcessPool, TimeoutError, EOFError, BrokenPipeError)
        )

    def restart_budget(self, shards: int) -> int:
        """Effective pool-restart cap for a run of ``shards`` pending shards."""
        if self.max_pool_restarts is not None:
            return self.max_pool_restarts
        return max(8, 4 * shards)


# ----------------------------------------------------------------------
# Result integrity envelopes
# ----------------------------------------------------------------------
#: Marker key of a sealed result envelope (worker results and cache files).
SEAL_KEY = "__sealed__"


def result_checksum(payload: Any) -> str:
    """Content checksum of a JSON-able result payload."""
    canonical = json.dumps(_canonical(payload), sort_keys=True).encode()
    return hashlib.sha256(canonical).hexdigest()


def seal_result(payload: Any, tamper: bool = False) -> Dict[str, Any]:
    """Wrap ``payload`` in a checksummed envelope.

    ``tamper`` (used by the chaos wrapper's ``corrupt`` fault) seals
    with a deliberately wrong digest so verification fails downstream.
    """
    digest = result_checksum(payload)
    if tamper:
        digest = "deadbeef" * 8
    return {SEAL_KEY: 1, "sha256": digest, "payload": payload}


def open_result(envelope: Any, context: str = "") -> Any:
    """Verify and unwrap a sealed envelope.

    Raises :class:`CorruptResult` on a checksum mismatch and on anything
    without the seal: workers and the cache always seal, so an unsealed
    value is a foreign or hand-edited file, never a result.
    """
    where = f" ({context})" if context else ""
    if not (isinstance(envelope, dict) and envelope.get(SEAL_KEY)):
        raise CorruptResult(f"result is not sealed{where}")
    payload = envelope.get("payload")
    if envelope.get("sha256") != result_checksum(payload):
        raise CorruptResult(f"result checksum mismatch{where}")
    return payload


# ----------------------------------------------------------------------
# Deterministic fault injection
# ----------------------------------------------------------------------
#: Fault kinds the chaos wrapper can inject.
FAULT_KINDS = ("raise", "kill", "hang", "corrupt")


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
    """Fault-injection wrapper: run ``inner`` under the env fault plan.

    The plan comes from :data:`FAULT_PLAN_ENV` — never from task params,
    so a chaos task's cache key is identical with and without faults and
    the acceptance check "faulted run == fault-free run, same cache
    keys" holds by construction.  ``kill`` exits the worker process
    hard (downgraded to ``raise`` when running inline in the
    orchestrating process), ``hang`` sleeps past any sane shard timeout,
    ``raise`` throws a transient :class:`ChaosFault`, and ``corrupt``
    computes the real result but seals it with a broken checksum.
    """
    from repro.experiments import runner as _runner

    params = dict(params or {})
    plan = FaultPlan.from_env()
    fault = None
    if plan is not None:
        ident = {"inner": inner, "params": _canonical(params), "seed": seed}
        fault = plan.fault_for(ident, _runner.current_attempt())
    if fault == "kill":
        if multiprocessing.parent_process() is not None:
            os._exit(CHAOS_KILL_EXIT)
        fault = "raise"  # never hard-kill the orchestrating process
    if fault == "raise":
        raise ChaosFault(f"injected fault for {inner!r} (seed={seed})")
    if fault == "hang":
        time.sleep(plan.hang_s)
    try:
        fn = _runner.EXPERIMENTS[inner]
    except KeyError:
        raise KeyError(
            f"chaos wrapper: unknown inner experiment {inner!r}; "
            f"registered: {sorted(_runner.EXPERIMENTS)}"
        ) from None
    result = fn(seed=seed, **params)
    if fault == "corrupt":
        _runner.tamper_next_result()
    return result


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


# ----------------------------------------------------------------------
# Chaos smoke driver (``python -m repro.experiments.resilience``)
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run a grid with and without injected faults and compare them.

    Exit 0 iff the faulted run completes every shard with results — and
    on-disk cache entries — byte-identical to the fault-free reference.
    The plan comes from :data:`FAULT_PLAN_ENV` when set, else from the
    command line flags.
    """
    from repro.experiments.runner import ParallelRunner

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.resilience",
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
                runner = ParallelRunner(
                    max_workers=args.workers,
                    cache_dir=chaos_dir,
                    retry_policy=RetryPolicy(max_attempts=args.retries + 1),
                    shard_timeout_s=args.shard_timeout,
                )
                results = runner.run(tasks, collect_errors=True)
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
            stats = runner.stats
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
