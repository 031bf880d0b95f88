"""Parallel experiment runner.

Every harness in this repository ultimately evaluates a grid of
independent simulation runs — protocol x interference-ratio x seed for
the Fig. 5 sweep, protocol x WiFi-level for the D-Cube comparison,
scenario x seed for training-data collection.  Each grid point is a
self-contained simulation, so the grid parallelizes embarrassingly.

:class:`ParallelRunner` fans :class:`ScenarioTask` grids across worker
processes (``concurrent.futures``), with

* **deterministic seeding** — a task's outcome depends only on its
  content (experiment name, parameters, seed), never on worker count or
  scheduling order, so parallel results are bit-identical to serial
  ones;
* **an on-disk result cache** keyed by a content hash of the task, so
  re-running a sweep after editing one grid point only recomputes the
  changed tasks, and an interrupted grid resumes from it: a rerun
  serves every flushed shard from the cache;
* **retries and recovery** — transient failures (timeouts, dead
  workers, corrupt results) are retried under a
  :class:`~repro.experiments.resilience.RetryPolicy`, and SIGINT/SIGTERM
  drain the in-flight shards before stopping; and
* **failure propagation** — a crashing worker surfaces as a
  :class:`RunnerError` naming the offending task instead of a silent
  hole in the grid.

Experiments are registered by name (the registry maps the name to a
plain function executed inside the worker); tasks reference them by
name, keeping tasks picklable and cache keys stable.  The built-in
experiments live next to their spec families in
:mod:`repro.experiments.spec`, which the package imports, so they are
registered in every process that imports this module.
"""

from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.net.trace import atomic_write_json

logger = logging.getLogger(__name__)

#: Registry of experiment functions runnable by :class:`ParallelRunner`.
#: Each entry maps a name to ``fn(seed=..., **params) -> dict`` where the
#: returned dict must be JSON-serializable (it is written to the cache).
EXPERIMENTS: Dict[str, Callable[..., Dict[str, Any]]] = {}


def register_experiment(name: str) -> Callable[[Callable], Callable]:
    """Decorator registering an experiment function under ``name``."""

    def decorator(fn: Callable[..., Dict[str, Any]]) -> Callable[..., Dict[str, Any]]:
        EXPERIMENTS[name] = fn
        return fn

    return decorator


#: Lock-step groups: experiment name -> ``(group_key, run_group)``.
#: ``group_key(params)`` returns a hashable key, or ``None`` for a task
#: that must run alone; pending tasks with equal keys may run as chunks
#: of one ``run_group(params_list)`` call, which returns one result dict
#: per member (params carry the task's ``seed``), each equal to the
#: member's solo result.
EXPERIMENT_GROUPS: Dict[str, Tuple[Callable[[Mapping[str, Any]], Any], Callable[..., Any]]] = {}


def register_group(
    name: str, group_key: Callable[[Mapping[str, Any]], Any]
) -> Callable[[Callable], Callable]:
    """Decorator registering the lock-step group runner of experiment ``name``."""

    def decorator(fn: Callable[..., List[Dict[str, Any]]]) -> Callable[..., List[Dict[str, Any]]]:
        EXPERIMENT_GROUPS[name] = (group_key, fn)
        return fn

    return decorator


#: Exact types :func:`_canonical` returns unchanged (NumPy scalars are
#: subclasses of some of them, hence no ``isinstance``).
_JSON_SCALARS = frozenset({float, int, str, bool, type(None)})


def _canonical(value: Any) -> Any:
    """Normalize a parameter value into a JSON-stable representation."""
    if type(value) in _JSON_SCALARS:
        return value  # the bulk of a result payload: skip the ABC checks
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_canonical(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def stable_seed(*parts: Any) -> int:
    """Deterministic 31-bit seed derived from arbitrary (JSON-able) parts.

    Unlike built-in ``hash()``, the result does not depend on
    ``PYTHONHASHSEED``, the process, or the host — which is what makes
    parallel grids reproducible across worker counts and runs.
    """
    payload = json.dumps(_canonical(list(parts)), sort_keys=True).encode()
    digest = hashlib.sha1(payload).digest()
    return int.from_bytes(digest[:4], "big") % (2**31)


@dataclass(frozen=True)
class ScenarioTask:
    """One grid point: an experiment name, its parameters and a seed.

    ``params`` must be picklable and JSON-canonicalizable (plain dicts,
    lists, numbers, strings); the cache key hashes them together with
    the experiment name and the seed.
    """

    experiment: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    label: Optional[str] = None

    def key(self) -> str:
        """Content hash identifying this task (cache key)."""
        payload = {
            "experiment": self.experiment,
            "params": _canonical(dict(self.params)),
            "seed": self.seed,
        }
        return hashlib.sha1(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def describe(self) -> str:
        """Human-readable task name for error messages and logs."""
        return self.label or f"{self.experiment}[{self.key()[:10]}]"


class RunnerError(RuntimeError):
    """A worker failed while executing a task."""

    def __init__(self, task: ScenarioTask, cause: BaseException) -> None:
        super().__init__(f"task {task.describe()} failed: {cause!r}")
        self.task = task
        self.cause = cause


#: Marker key of a failed-shard result entry (``collect_errors`` mode).
#: ``_cache_load`` refuses to serve entries carrying it, so failures can
#: never be absorbed by the on-disk cache.
FAILURE_KEY = "__failed__"


def failure_entry(task: ScenarioTask, cause: BaseException) -> Dict[str, Any]:
    """Result entry describing a failed shard (never written to the cache)."""
    return {FAILURE_KEY: True, "task": task.describe(), "error": repr(cause)}


def _execute_task(task: ScenarioTask, attempt: int = 0) -> Dict[str, Any]:
    """Worker entry point: resolve the experiment, run it, seal the result.

    The return value is a checksummed envelope
    (:func:`repro.experiments.resilience.seal_result`); the parent
    verifies it on receipt, so a corrupted result is detected and
    retried instead of silently cached.

    ``attempt`` (0 on the first try) is not used here: it is the seam
    for a wrapper that replaces this module-level function, such as the
    fault-injection rig of the test suite, which keys its faults on it.
    The scheduler looks the function up at call time, inline runs call
    it in process, and forked workers inherit the replacement.
    """
    from repro.experiments.resilience import seal_result

    try:
        fn = EXPERIMENTS[task.experiment]
    except KeyError:
        raise KeyError(
            f"unknown experiment {task.experiment!r}; "
            f"registered: {sorted(EXPERIMENTS)}"
        ) from None
    result = fn(seed=task.seed, **dict(task.params))
    if not isinstance(result, dict):
        raise TypeError(
            f"experiment {task.experiment!r} must return a dict, "
            f"got {type(result).__name__}"
        )
    return seal_result(result)


def _execute_chunk(tasks: Sequence[ScenarioTask]) -> List[Dict[str, Any]]:
    """Worker entry point of a lock-step chunk: one sealed envelope per member.

    The members share one ``run_group`` call of their experiment (see
    :data:`EXPERIMENT_GROUPS`); any failure fails the whole chunk, and
    the runner then reruns its members one by one.
    """
    from repro.experiments.resilience import seal_result

    _, run_group = EXPERIMENT_GROUPS[tasks[0].experiment]
    results = run_group([dict(task.params, seed=task.seed) for task in tasks])
    if len(results) != len(tasks) or not all(isinstance(r, dict) for r in results):
        raise TypeError(
            f"group runner of {tasks[0].experiment!r} must return one dict per task"
        )
    return [seal_result(result) for result in results]


#: A unit of scheduled work: one task index, or a lock-step chunk of them.
_Unit = Union[int, Tuple[int, ...]]


def _members(unit: _Unit) -> Tuple[int, ...]:
    return unit if isinstance(unit, tuple) else (unit,)


def _worker_context():
    """Multiprocessing context for the worker pool.

    Experiments registered at runtime (outside this module) only exist
    in forked children, so prefer ``fork`` where the platform offers it
    — this also keeps behaviour stable across Python versions that
    change the default start method.  Platforms without ``fork``
    (Windows) fall back to the default; there, runtime-registered
    experiments must live in an importable module.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def _worker_signals() -> None:
    """Initializer of every pool worker: ignore SIGINT, die on SIGTERM.

    Forked workers would otherwise inherit the parent's
    :func:`_graceful_interrupts` handler, under which a SIGTERM from
    :func:`_terminate_pool` only sets a flag in a busy worker, which then
    runs on until the kill after the join timeout.  ^C reaches the
    whole process group; ignoring it in the workers leaves the drain to
    the parent, and the in-flight shards run to their end.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


@dataclass
class RunnerStats:
    """Cache, execution and fault accounting of :meth:`ParallelRunner.run` calls."""

    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    #: Transient shard failures that were retried (per retry, not per shard).
    retries: int = 0
    #: Shards cancelled by the per-shard wall-clock watchdog.
    timeouts: int = 0
    #: Corrupt cache entries renamed to ``*.corrupt`` instead of served.
    quarantined: int = 0
    #: In-flight results that failed checksum verification.
    corrupt_results: int = 0
    #: Worker-pool rebuilds (dead worker or timeout recovery).
    pool_restarts: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-able snapshot (the artifact envelope's ``runner_stats``)."""
        return asdict(self)


class _InterruptState:
    """Shared flag between the signal handlers and the scheduler loops."""

    def __init__(self) -> None:
        self.flag = False
        self.signals = 0


@contextmanager
def _graceful_interrupts():
    """Install drain-on-first-signal handlers for SIGINT/SIGTERM.

    The first signal sets the flag — the scheduler stops submitting new
    shards, drains the in-flight ones and raises
    :class:`~repro.experiments.resilience.GridInterrupted` after
    flushing them.  A second signal escalates to an immediate
    ``KeyboardInterrupt``, which the scheduler reports as
    ``GridInterrupted`` without waiting for the in-flight shards.
    Outside the main thread (or where signals are unavailable) this is
    a no-op and ^C keeps its default behavior.
    """
    state = _InterruptState()
    if threading.current_thread() is not threading.main_thread():
        yield state
        return
    previous: Dict[int, Any] = {}

    def handler(signum, frame):
        state.signals += 1
        state.flag = True
        if state.signals > 1:
            raise KeyboardInterrupt

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, handler)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            continue
    try:
        yield state
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)


class _InlineExecutor(Executor):
    """The worker pool of an inline run (``max_workers <= 1``).

    ``submit`` runs the call at once in the calling process and returns
    a completed future, so inline runs share the scheduler loop with
    pool runs.  A ``KeyboardInterrupt`` is not stored in the future: it
    propagates, and the scheduler reports it as ``GridInterrupted``.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            result = fn(*args, **kwargs)
        except KeyboardInterrupt:
            raise
        except BaseException as error:
            future.set_exception(error)
        else:
            future.set_result(result)
        return future


def _terminate_pool(pool: Optional[Executor]) -> None:
    """Tear a pool down hard: cancel queued work and kill the workers.

    Used when a worker died (the pool is broken anyway), when a shard
    overran its timeout (``ProcessPoolExecutor`` cannot cancel a running
    task, so the only way to reclaim the worker is to kill it), and on
    abort paths where waiting for stragglers would hang the caller.
    """
    if pool is None:
        return
    # Read before ``shutdown``, which drops the pool's references to both.
    # The manager thread is joined once the workers are dead: left running,
    # it races ``concurrent.futures``' exit hook on the closed wakeup pipe,
    # which prints ``OSError: [Errno 9]`` at interpreter exit.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass
    for process in processes:
        try:
            if process.is_alive():
                process.terminate()
        except Exception:  # pragma: no cover - defensive
            continue
    for process in processes:
        try:
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        except Exception:  # pragma: no cover - defensive
            continue
    if manager is not None:
        manager.join(timeout=5.0)


class ParallelRunner:
    """Fans scenario x seed grids across worker processes.

    Parameters
    ----------
    max_workers:
        Worker process count (``None`` = ``os.cpu_count()``).  ``0`` or
        ``1`` executes inline in the calling process, which is handy for
        debugging and avoids process startup for tiny grids.
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables
        caching.  Entries are JSON files named by the task content hash,
        so any parameter change invalidates exactly the affected tasks.
        Entries are checksummed on write and verified on load; a torn,
        corrupt or unsealed entry is quarantined (renamed to
        ``*.corrupt``) and the task recomputed.
    retry_policy:
        The :class:`~repro.experiments.resilience.RetryPolicy` applied
        per shard (``None`` = the default policy: 3 attempts with
        deterministic exponential backoff).  Transient failures —
        timeouts, dead workers, corrupt results — are retried; permanent
        ones (unknown family, bad spec, deterministic experiment bugs)
        fail fast.
    shard_timeout_s:
        Per-shard wall-clock timeout enforced by a watchdog over the
        worker futures (not enforceable inline).  An overrunning shard's worker
        pool is torn down and rebuilt, the shard counts a timeout and is
        retried under the policy; innocent in-flight shards are
        resubmitted without being charged an attempt.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache_dir: Optional[Path] = None,
        retry_policy: Optional[Any] = None,
        shard_timeout_s: Optional[float] = None,
    ) -> None:
        from repro.experiments.resilience import RetryPolicy

        if max_workers is not None and max_workers < 0:
            raise ValueError("max_workers must be non-negative")
        if shard_timeout_s is not None and shard_timeout_s <= 0:
            raise ValueError("shard_timeout_s must be positive")
        self.max_workers = max_workers
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.shard_timeout_s = shard_timeout_s
        self.stats = RunnerStats()

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------
    def _cache_path(self, task: ScenarioTask) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{task.key()}.json"

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt cache entry aside instead of silently dropping it.

        The quarantined file (``<entry>.corrupt``) keeps the evidence
        for post-mortems, the counter surfaces the event in
        :class:`RunnerStats` and the artifact envelope, and the rename
        guarantees the torn entry can never be served again even if the
        recompute is interrupted before overwriting it.
        """
        quarantined = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - entry vanished concurrently
                pass
        self.stats.quarantined += 1
        logger.warning("quarantined corrupt cache entry %s: %s", path.name, reason)

    def _cache_load(self, task: ScenarioTask) -> Optional[Dict[str, Any]]:
        path = self._cache_path(task)
        if path is None or not path.exists():
            return None
        from repro.experiments.resilience import CorruptResult, open_result

        try:
            with path.open("r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, ValueError) as error:
            # ValueError covers both torn JSON and invalid UTF-8.
            self._quarantine(path, repr(error))
            return None
        try:
            result = open_result(raw, context=task.describe())
        except CorruptResult as error:
            self._quarantine(path, str(error))
            return None
        if not isinstance(result, dict):
            self._quarantine(path, f"entry is {type(result).__name__}, not a dict")
            return None
        if result.get(FAILURE_KEY):
            # Never serve a recorded failure as a grid result: a failed
            # shard absorbed by the cache would silently poison every
            # re-run.  Treat it as a miss and recompute.
            return None
        return result

    def _cache_store(self, task: ScenarioTask, result: Dict[str, Any]) -> None:
        path = self._cache_path(task)
        if path is None:
            return
        from repro.experiments.resilience import seal_result

        # Checksummed envelope + write-then-rename: concurrent runners
        # never read a torn file, and a half-written or bit-rotted entry
        # is detected (and quarantined) on load instead of served.
        atomic_write_json(path, seal_result(result))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self, tasks: Sequence[ScenarioTask], collect_errors: bool = False
    ) -> List[Dict[str, Any]]:
        """Execute every task and return their results in task order.

        Cached results are returned without re-execution; the remaining
        tasks run through one scheduler loop (:meth:`_schedule`), on the
        worker pool or, at ``max_workers <= 1``, one at a time in this
        process, under the runner's
        :class:`~repro.experiments.resilience.RetryPolicy` and shard
        timeout (not enforceable inline).  By default the first
        *permanent* shard failure (or a transient one that exhausted its
        retries) aborts the run by raising :class:`RunnerError`; with
        ``collect_errors`` the grid completes and each failed shard
        yields a :func:`failure_entry` dict (flagged with
        :data:`FAILURE_KEY`) in its result slot instead — failures are never written to the cache, and cached
        entries carrying the marker are treated as misses, so a failed
        shard can never be silently served from disk.

        SIGINT/SIGTERM interrupt gracefully: no new shards are
        submitted, in-flight shards drain and flush to the cache, then
        :class:`~repro.experiments.resilience.GridInterrupted` is
        raised with the partial-completion accounting; a second signal
        (or ^C inside an inline shard) stops at once and raises it too.
        Rerunning the same grid serves the flushed shards from the cache.

        Pending tasks of an experiment with a registered lock-step group
        (see :func:`register_group`) and equal group keys run as chunks:
        dealt round-robin, in grid order, into ``min(workers, n)``
        chunks, each one worker call (see :meth:`_units`).  Every member
        is verified and cached under its own key; a user-set
        ``shard_timeout_s`` scales with the chunk's member count, and a
        chunk that fails in any way falls back to running its members
        one by one, so retries and failure entries stay per shard.
        """
        tasks = list(tasks)
        results: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
        pending: List[int] = []
        for index, task in enumerate(tasks):
            cached = self._cache_load(task)
            if cached is not None:
                results[index] = cached
                self.stats.cache_hits += 1
            else:
                pending.append(index)
                self.stats.cache_misses += 1

        if pending:
            with _graceful_interrupts() as interrupt:
                self._schedule(tasks, pending, results, collect_errors, interrupt)
        # Every slot must be filled: a hole here would silently shift the
        # positional regrouping done by the grid-level callers.
        missing = [tasks[i].describe() for i, r in enumerate(results) if r is None]
        if missing:
            raise RuntimeError(f"tasks produced no result: {missing}")
        return list(results)  # type: ignore[arg-type]

    @staticmethod
    def _units(
        tasks: Sequence[ScenarioTask], pending: Sequence[int], workers: int
    ) -> List[_Unit]:
        """Pending task indices, with lock-step groups dealt into chunks.

        Tasks whose experiment registered a group runner and whose group
        keys are equal are dealt round-robin, in grid order, into
        ``min(workers, n)`` chunks (a chunk of one is a plain task).
        Units are ordered by their first member.
        """
        units: List[_Unit] = []
        groups: Dict[Tuple[str, Any], List[int]] = {}
        for index in pending:
            task = tasks[index]
            group = EXPERIMENT_GROUPS.get(task.experiment)
            key = group[0](dict(task.params)) if group is not None else None
            if key is None:
                units.append(index)
            else:
                groups.setdefault((task.experiment, key), []).append(index)
        for members in groups.values():
            count = min(workers, len(members))
            for offset in range(count):
                chunk = tuple(members[offset::count])
                units.append(chunk if len(chunk) > 1 else chunk[0])
        units.sort(key=lambda unit: _members(unit)[0])
        return units

    def _finish(self, task: ScenarioTask, envelope: Any) -> Dict[str, Any]:
        """Verify and cache one completed shard's result.

        Raises :class:`~repro.experiments.resilience.CorruptResult` if
        the envelope fails checksum verification (a ``corrupt`` fault or
        a torn IPC stream) — the caller retries under the policy.
        """
        from repro.experiments.resilience import open_result

        result = open_result(envelope, context=task.describe())
        self._cache_store(task, result)
        self.stats.executed += 1
        return result

    def _schedule(
        self,
        tasks: Sequence[ScenarioTask],
        pending: Sequence[int],
        results: List[Optional[Dict[str, Any]]],
        collect_errors: bool,
        interrupt: _InterruptState,
    ) -> None:
        """The scheduler: watchdog, retries and pool recovery.

        ``max_workers <= 1`` runs the same loop over an
        :class:`_InlineExecutor` (one shard at a time, in this process;
        nothing can break it, and there is no worker to kill, so shard
        timeouts are not enforced); otherwise over a worker pool.

        Invariants:

        * every pending shard index lives in exactly one place — the
          ``ready`` queue, the ``delayed`` backoff list, the ``suspects``
          queue, the in-flight map, or its (result / failure) slot;
        * a dead worker (``BrokenProcessPool``) never sinks the grid:
          the pool is rebuilt, and since the executor cannot attribute
          the death to a shard, the in-flight shards are re-verified
          **one at a time** — the shard that breaks the pool alone is
          the culprit (charged an attempt and retried under the policy),
          the bystanders are requeued free of charge;
        * a shard overrunning ``shard_timeout_s`` costs the pool (a
          running future cannot be cancelled), which is torn down and
          rebuilt; the straggler is charged a timeout + attempt, the
          bystanders are requeued free of charge;
        * a lock-step chunk that raises, overruns its (member-scaled)
          timeout or dies with a worker falls back to its members: they
          are requeued one by one free of charge (after a worker death,
          as suspects), so every charge above stays per shard;
        * a ``KeyboardInterrupt`` that escapes the loop (a second signal,
          or ^C inside an inline shard) stops at once, and like a
          drained first signal ends in ``GridInterrupted``.
        """
        from repro.experiments.resilience import (
            BrokenWorker,
            CorruptResult,
            GridInterrupted,
            ShardTimeout,
        )

        policy = self.retry_policy
        inline = self.max_workers is not None and self.max_workers <= 1
        worker_count = 1 if inline else self.max_workers or os.cpu_count() or 1
        units = self._units(tasks, pending, worker_count)
        restart_budget = policy.restart_budget(len(pending))
        attempts: Dict[int, int] = {index: 0 for index in pending}
        ready: deque = deque(units)
        suspects: deque = deque()
        delayed: List[List[Any]] = []  # [due_monotonic, index, solo]
        inflight: Dict[Any, _Unit] = {}
        deadlines: Dict[Any, float] = {}
        restarts = 0
        pool: Optional[Executor] = None

        def new_pool() -> Executor:
            if inline:
                return _InlineExecutor()
            return ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=_worker_context(),
                initializer=_worker_signals,
            )

        def rebuild_pool() -> None:
            nonlocal pool, restarts
            _terminate_pool(pool)
            restarts += 1
            self.stats.pool_restarts += 1
            inflight.clear()
            deadlines.clear()
            pool = new_pool()

        def fail(index: int, error: BaseException) -> None:
            if not collect_errors:
                _terminate_pool(pool)
                raise RunnerError(tasks[index], error) from error
            results[index] = failure_entry(tasks[index], error)

        def retry_or_fail(index: int, error: BaseException, solo: bool = False) -> None:
            attempts[index] += 1
            if policy.is_transient(error) and attempts[index] < policy.max_attempts:
                self.stats.retries += 1
                due = time.monotonic() + policy.delay_s(tasks[index].key(), attempts[index])
                delayed.append([due, index, solo])
            else:
                fail(index, error)

        def fall_back(chunk: Tuple[int, ...], error: BaseException) -> None:
            logger.warning(
                "chunk of %d shards failed (%r); running them one by one", len(chunk), error
            )
            ready.extend(chunk)

        def submit(unit: _Unit) -> bool:
            try:
                if isinstance(unit, tuple):
                    future = pool.submit(_execute_chunk, [tasks[index] for index in unit])
                else:
                    future = pool.submit(_execute_task, tasks[unit], attempts[unit])
            except (BrokenProcessPool, RuntimeError):
                return False
            inflight[future] = unit
            if self.shard_timeout_s is not None:
                deadlines[future] = (
                    time.monotonic() + self.shard_timeout_s * len(_members(unit))
                )
            return True

        def handle_broken(victim_units: List[_Unit]) -> None:
            """Recover from a dead worker: rebuild, attribute, requeue."""
            victims = [
                index
                for unit in victim_units + list(inflight.values())
                for index in _members(unit)
            ]
            rebuild_pool()
            if restarts > restart_budget:
                error = BrokenWorker(
                    f"worker pool restart budget exhausted ({restart_budget})"
                )
                for index in victims:
                    fail(index, error)
                return
            if len(victims) == 1:
                # A lone in-flight shard is its own attribution.
                retry_or_fail(
                    victims[0],
                    BrokenWorker("worker process died executing this shard"),
                    solo=True,
                )
            else:
                # Unknown culprit: re-verify each suspect alone; no
                # attempt is charged until a shard breaks the pool solo.
                suspects.extend(victims)

        pool = new_pool()
        try:
            while ready or delayed or suspects or inflight:
                now = time.monotonic()
                for entry in [e for e in delayed if e[0] <= now]:
                    delayed.remove(entry)
                    (suspects if entry[2] else ready).append(entry[1])

                if interrupt.flag:
                    # Drain: submit nothing new; the loop ends once the
                    # in-flight shards have finished and flushed.
                    ready.clear()
                    suspects.clear()
                    delayed.clear()
                elif suspects:
                    # Solo-verification mode: wait out the parallel
                    # in-flight shards, then one suspect at a time.
                    if not inflight and not submit(suspects.popleft()):
                        handle_broken([])
                        continue
                else:
                    while ready and len(inflight) < worker_count:
                        unit = ready.popleft()
                        if not submit(unit):
                            ready.appendleft(unit)
                            handle_broken([])
                            break

                if not inflight:
                    if delayed:
                        next_due = min(entry[0] for entry in delayed)
                        time.sleep(min(0.05, max(0.0, next_due - time.monotonic())))
                    continue

                done, _ = wait(list(inflight), timeout=0.1, return_when=FIRST_COMPLETED)
                broken_victims: List[_Unit] = []
                for future in done:
                    unit = inflight.pop(future)
                    deadlines.pop(future, None)
                    error = future.exception()
                    if isinstance(error, BrokenProcessPool):
                        broken_victims.append(unit)
                    elif isinstance(unit, tuple) and error is not None:
                        fall_back(unit, error)
                    elif error is not None:
                        retry_or_fail(unit, error)
                    else:
                        envelopes = future.result()
                        if not isinstance(unit, tuple):
                            envelopes = [envelopes]
                        for index, envelope in zip(_members(unit), envelopes):
                            try:
                                results[index] = self._finish(tasks[index], envelope)
                            except CorruptResult as corrupt:
                                self.stats.corrupt_results += 1
                                retry_or_fail(index, corrupt)
                if broken_victims:
                    handle_broken(broken_victims)
                    continue

                if self.shard_timeout_s is not None and deadlines:
                    now = time.monotonic()
                    overdue = [f for f, due in deadlines.items() if due <= now]
                    if overdue:
                        timed_out = [inflight[f] for f in overdue]
                        bystanders = [
                            i for f, i in inflight.items() if f not in overdue
                        ]
                        self.stats.timeouts += len(timed_out)
                        rebuild_pool()
                        if restarts > restart_budget:
                            error = ShardTimeout(
                                f"pool restart budget exhausted ({restart_budget})"
                            )
                            for unit in timed_out + bystanders:
                                for index in _members(unit):
                                    fail(index, error)
                            continue
                        for unit in timed_out:
                            error = ShardTimeout(
                                f"shard exceeded {self.shard_timeout_s:.3g}s wall clock"
                            )
                            if isinstance(unit, tuple):
                                fall_back(unit, error)
                            else:
                                retry_or_fail(unit, error)
                        # The watchdog killed the pool under them;
                        # resubmit without charging an attempt.
                        ready.extend(bystanders)
        except KeyboardInterrupt:
            interrupt.flag = True
        finally:
            _terminate_pool(pool)
        if interrupt.flag:
            # Report the partial grid; every finished shard is flushed.
            raise GridInterrupted(
                completed=sum(1 for r in results if r is not None), total=len(tasks)
            )


# ----------------------------------------------------------------------
# Shared worker-side helpers
# ----------------------------------------------------------------------
def build_topology(spec: Mapping[str, Any]):
    """Construct a topology from a JSON-able spec (worker side).

    ``spec["kind"]`` selects the generator: ``"kiel"``, ``"dcube"``,
    ``"grid"`` or ``"random"``; the remaining keys are forwarded as
    keyword arguments.
    """
    from repro.net.topology import dcube_testbed, grid_topology, kiel_testbed, random_topology

    kind_map = {
        "kiel": kiel_testbed,
        "dcube": dcube_testbed,
        "grid": grid_topology,
        "random": random_topology,
    }
    spec = dict(spec)
    kind = spec.pop("kind")
    if kind not in kind_map:
        raise ValueError(f"unknown topology kind {kind!r}")
    return kind_map[kind](**spec)


def network_payload(network) -> Dict[str, Any]:
    """Serialize a policy network into the JSON payload tasks can carry.

    Accepts a float ``QNetwork`` or a ``QuantizedNetwork``; the latter
    is de-scaled back to floats for transport and records its scale so
    the worker rebuilds an identical ``QuantizedNetwork`` (lossless:
    re-quantizing with the same scale reproduces the integer weights).
    """
    from repro.rl.quantized import QuantizedNetwork

    if isinstance(network, QuantizedNetwork):
        return {
            "kind": "quantized",
            "scale": network.scale,
            "layer_sizes": list(network.layer_sizes),
            "hidden_activation": "relu",
            "weights": [(w / network.scale).tolist() for w in network.weights_q],
            "biases": [(b / network.scale).tolist() for b in network.biases_q],
        }
    return {
        "kind": "float",
        "layer_sizes": list(network.layer_sizes),
        "hidden_activation": network.hidden_activation,
        "weights": [w.tolist() for w in network.weights],
        "biases": [b.tolist() for b in network.biases],
    }


def network_from_payload(payload: Mapping[str, Any]):
    """Rebuild the network a :func:`network_payload` dict describes.

    Returns a ``QNetwork`` for float payloads and a ``QuantizedNetwork``
    (at the original scale) for quantized ones, so workers run the same
    inference pipeline the calling process would.
    """
    from repro.rl.qnetwork import QNetwork
    from repro.rl.quantized import QuantizedNetwork

    network = QNetwork(
        tuple(payload["layer_sizes"]), hidden_activation=payload["hidden_activation"]
    )
    network.set_weights(
        {
            "weights": [np.array(w, dtype=float) for w in payload["weights"]],
            "biases": [np.array(b, dtype=float) for b in payload["biases"]],
        }
    )
    if payload.get("kind") == "quantized":
        return QuantizedNetwork(network, scale=int(payload["scale"]))
    return network
