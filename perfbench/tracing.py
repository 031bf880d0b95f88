"""Per-layer timing taken from outside the library.

The traced run wraps public methods of ``repro`` (listed in
:data:`LAYER_METHODS`) with span recorders, so ``src/`` carries no
instrumentation.  A span records its name, start, end and parent; spans
stay in memory, one table per process timeline:

* the client's timeline — the job root span, ``api.session``
  (``Session.run_grid`` / ``run_entries``), ``runner.run``
  (``ParallelRunner.run``) and whatever the client runs itself (the DQN
  training of ``trace_train``);
* one table per shard, recorded in the worker by the ``perfbench_traced``
  experiment, which runs the real experiment under a ``runner.shard``
  root span and returns its spans along with the result.  While tracing
  is installed, ``ParallelRunner.run`` routes every task through it and
  unwraps the results, so callers see the untraced results.

The pool forks its workers inside every ``ParallelRunner.run`` call, so
the workers inherit the installed wrappers and the registered traced
experiment.

Nesting rules:

* wrappers of one *group* count only at the outermost level — e.g.
  ``CompositeInterference.penalty_windows`` calls its sources'
  ``penalty_windows``, and ``GlossyFlood.run_batch`` falls back to
  ``GlossyFlood.run``; the inner calls open no span;
* wrappers of different groups nest — e.g. ``DimmerProtocol.run_round``
  (``core.run_round``) calls ``NetworkSimulator.run_round``
  (``simulator.run_round``), which calls ``LWBRoundEngine.run_round``
  (``lwb.run_round``); each span's self time is its duration minus the
  time its child spans cover, so every second is counted once.

:func:`account` folds a job's tables into wall-clock seconds: worker-side
self times are divided by the worker count, ``runner.run`` keeps the part
of its wall time the workers did not cover (pool start-up, dispatch,
pickling, stragglers), and the self time of the root spans — the job
root in the client and ``runner.shard`` in the workers — is the
unattributed time.  The attributed self times plus the unattributed time
equal the job's wall time; :func:`account` checks that identity.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

TRACED_EXPERIMENT = "perfbench_traced"

#: (module, class, method, span name, group, amount counter).  Wrappers
#: of one group count only at the outermost level.  The amount counter,
#: when set, adds the length of the ``initiators`` argument to a counter
#: of that name (the floods of one ``run_batch`` call).
LAYER_METHODS: Tuple[Tuple[str, str, str, str, str, Optional[str]], ...] = (
    ("repro.net.glossy", "GlossyFlood", "run_batch", "glossy.run_batch", "glossy",
     "glossy.run_batch.floods"),
    ("repro.net.glossy", "GlossyFlood", "run", "glossy.run", "glossy", None),
    ("repro.net.lwb", "LWBRoundEngine", "run_round", "lwb.run_round", "lwb", None),
    ("repro.net.simulator", "NetworkSimulator", "run_round", "simulator.run_round",
     "simulator", None),
    ("repro.net.link", "LinkModel", "prr_matrix", "link.prr_matrix", "link", None),
    ("repro.core.protocol", "DimmerProtocol", "run_round", "core.run_round",
     "core.run_round", None),
    ("repro.core.controller", "DimmerController", "observe_round", "core.observe_round",
     "core.observe_round", None),
    ("repro.core.statistics", "StatisticsCollector", "build_view", "core.build_view",
     "core.build_view", None),
    ("repro.core.adaptivity", "AdaptivityControl", "decide", "core.decide",
     "core.decide", None),
    ("repro.rl.features", "FeatureEncoder", "encode_arrays", "rl.encode_arrays",
     "rl.encode_arrays", None),
    ("repro.rl.qnetwork", "QNetwork", "forward", "rl.forward", "rl.forward", None),
    ("repro.rl.quantized", "QuantizedNetwork", "forward", "rl.forward", "rl.forward", None),
    ("repro.rl.dqn", "DQNAgent", "train", "rl.train", "rl.train", None),
    ("repro.rl.dqn", "DQNAgent", "train_batch", "rl.train_batch", "rl.train_batch", None),
    ("repro.rl.trace_env", "TraceEnvironment", "step", "rl.env_step", "rl.env_step", None),
    ("repro.rl.trace_env", "TraceRecorder", "record", "rl.trace_record",
     "rl.trace_record", None),
    ("repro.baselines.crystal", "CrystalProtocol", "run_epoch",
     "baselines.crystal.run_epoch", "baselines", None),
    ("repro.baselines.pid", "PIDProtocol", "run_round", "baselines.pid.run_round",
     "baselines", None),
    ("repro.baselines.static_lwb", "StaticLWBProtocol", "run_round",
     "baselines.static_lwb.run_round", "baselines", None),
    ("repro.api", "Session", "run_grid", "api.session", "api", None),
    ("repro.api", "Session", "run_entries", "api.session", "api", None),
)

#: Every ``penalty_windows`` defined by a class of this module is wrapped.
INTERFERENCE_MODULE = "repro.net.interference"
INTERFERENCE_SPAN = "interference.penalty_windows"

JOB_SPAN = "job"
RUNNER_SPAN = "runner.run"
SHARD_SPAN = "runner.shard"


class Tracer:
    """Span and counter recorder of one process timeline."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._open_groups: set = set()

    def open(self, name: str, group: Optional[str] = None) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(index)
        if group is not None:
            self._open_groups.add(group)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int, group: Optional[str] = None) -> None:
        self.ends[index] = time.perf_counter()
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")
        self._stack.pop()
        if group is not None:
            self._open_groups.discard(group)

    def is_open(self, group: str) -> bool:
        return group in self._open_groups

    def export(self) -> dict:
        """The timeline as plain lists (what a worker sends back)."""
        return {
            "names": list(self.names),
            "starts": list(self.starts),
            "ends": list(self.ends),
            "parents": list(self.parents),
            "counters": dict(self.counters),
        }


def _span_wrapper(tracer: Tracer, fn: Callable, name: str, group: str,
                  amount: Optional[str]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.is_open(group):
            return fn(*args, **kwargs)
        if amount is not None:
            tracer.counters[amount] += len(args[1] if len(args) > 1 else kwargs["initiators"])
        index = tracer.open(name, group)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index, group)

    return wrapper


@dataclass
class JobTrace:
    """The span tables of one traced job."""

    client: dict
    #: (index of the ``runner.run`` span in ``client``, workers, shard tables)
    shards: List[Tuple[int, int, List[dict]]] = field(default_factory=list)


class Instrumentation:
    """Installs and removes the span wrappers and the traced experiment.

    Use as a context manager around one traced job; :attr:`last_job`
    then holds its :class:`JobTrace`.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._originals: List[Tuple[type, str, Callable]] = []
        self._shards: List[Tuple[int, int, List[dict]]] = []
        self.last_job: Optional[JobTrace] = None
        self._job_index: Optional[int] = None
        from repro.experiments.runner import register_experiment

        register_experiment(TRACED_EXPERIMENT)(self._traced_experiment)

    # -- worker side ---------------------------------------------------
    def _traced_experiment(self, seed: int, experiment: str, params: dict) -> dict:
        """Run one shard under a root span and return its spans with the result."""
        from repro.experiments.runner import EXPERIMENTS

        tracer = self.tracer
        tracer.reset()  # drop the client's spans inherited through fork
        root = tracer.open(SHARD_SPAN)
        try:
            result = EXPERIMENTS[experiment](seed=seed, **params)
        finally:
            tracer.close(root)
        return {"result": result, "spans": tracer.export()}

    # -- client side ---------------------------------------------------
    def _traced_runner_run(self, original: Callable) -> Callable:
        from repro.experiments.runner import FAILURE_KEY, ScenarioTask

        instrumentation = self

        @functools.wraps(original)
        def run(runner, tasks, collect_errors=False):
            traced = [
                ScenarioTask(
                    experiment=TRACED_EXPERIMENT,
                    params={"experiment": task.experiment, "params": dict(task.params)},
                    seed=task.seed,
                    label=task.label,
                )
                for task in tasks
            ]
            tracer = instrumentation.tracer
            retries = runner.stats.retries
            index = tracer.open(RUNNER_SPAN)
            try:
                entries = original(runner, traced, collect_errors=collect_errors)
            finally:
                tracer.close(index)
                tracer.counters["runner.retries"] += runner.stats.retries - retries
            shard_tables = []
            results = []
            for entry in entries:
                if entry.get(FAILURE_KEY):
                    results.append(entry)
                    continue
                shard_tables.append(entry["spans"])
                results.append(entry["result"])
            instrumentation._shards.append((index, runner.max_workers or 1, shard_tables))
            return results

        return run

    def _wrap(self, cls: type, method: str, wrapper: Callable) -> None:
        self._originals.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, wrapper)

    def __enter__(self) -> "Instrumentation":
        tracer = self.tracer
        tracer.reset()
        self._shards = []
        for module_name, class_name, method, name, group, amount in LAYER_METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._wrap(cls, method, _span_wrapper(tracer, cls.__dict__[method], name, group,
                                                  amount))
        interference = importlib.import_module(INTERFERENCE_MODULE)
        for value in vars(interference).values():
            if (
                isinstance(value, type)
                and issubclass(value, interference.InterferenceSource)
                and "penalty_windows" in value.__dict__
            ):
                self._wrap(value, "penalty_windows", _span_wrapper(
                    tracer, value.__dict__["penalty_windows"], INTERFERENCE_SPAN,
                    "interference", None))
        from repro.experiments.runner import ParallelRunner

        self._wrap(ParallelRunner, "run", self._traced_runner_run(ParallelRunner.__dict__["run"]))
        self._job_index = tracer.open(JOB_SPAN)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.close(self._job_index)
        for cls, method, original in reversed(self._originals):
            setattr(cls, method, original)
        self._originals = []
        self.last_job = JobTrace(client=self.tracer.export(), shards=self._shards)


# ----------------------------------------------------------------------
# Self-time arithmetic and job accounting
# ----------------------------------------------------------------------
def _covered(start: float, end: float, intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(table: dict) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    starts, ends = table["starts"], table["ends"]
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for index, parent in enumerate(table["parents"]):
        if parent >= 0:
            children[parent].append((starts[index], ends[index]))
    return [
        ends[i] - starts[i] - _covered(starts[i], ends[i], children.get(i, ()))
        for i in range(len(starts))
    ]


@dataclass
class Accounting:
    """A job's wall time split into layers (wall-clock seconds)."""

    wall_s: float
    #: span name -> self seconds, worker-side spans divided by the workers
    layers: Dict[str, float]
    unattributed_s: float
    #: span name -> [inclusive busy seconds, self busy seconds, calls], summed
    #: over every process (not divided by the workers)
    busy: Dict[str, List[float]]
    counters: Dict[str, int]
    shard_s: List[float]
    #: shard seconds / (workers x ``runner.run`` wall), over the job's calls
    busy_share: float

    @property
    def error_s(self) -> float:
        return sum(self.layers.values()) + self.unattributed_s - self.wall_s


def _add_busy(busy: Dict[str, List[float]], table: dict, selfs: List[float],
              skip_root: bool) -> None:
    for index, name in enumerate(table["names"]):
        if skip_root and index == 0:
            continue
        entry = busy.setdefault(name, [0.0, 0.0, 0])
        entry[0] += table["ends"][index] - table["starts"][index]
        entry[1] += selfs[index]
        entry[2] += 1


def account(job: JobTrace) -> Accounting:
    """Fold a traced job's client and shard timelines into one accounting.

    Raises ``ValueError`` when the self times plus the unattributed time
    miss the job's wall time by more than a microsecond — which happens
    when a child span escapes its parent or two sibling spans overlap.
    """
    client = job.client
    if not client["names"] or client["names"][0] != JOB_SPAN:
        raise ValueError("the client timeline must start with the job span")
    client_self = self_times(client)
    wall = client["ends"][0] - client["starts"][0]
    layers: Dict[str, float] = defaultdict(float)
    busy: Dict[str, List[float]] = {}
    counters: Dict[str, int] = defaultdict(int)
    unattributed = client_self[0]
    for index in range(1, len(client_self)):
        layers[client["names"][index]] += client_self[index]
    _add_busy(busy, client, client_self, skip_root=True)
    for name, value in client["counters"].items():
        counters[name] += value

    shard_s: List[float] = []
    capacity = 0.0
    for runner_index, workers, tables in job.shards:
        if client["names"][runner_index] != RUNNER_SPAN:
            raise ValueError(f"span {runner_index} is not a {RUNNER_SPAN} span")
        capacity += workers * (client["ends"][runner_index] - client["starts"][runner_index])
        for table in tables:
            selfs = self_times(table)
            duration = table["ends"][0] - table["starts"][0]
            shard_s.append(duration)
            layers[RUNNER_SPAN] -= duration / workers
            unattributed += selfs[0] / workers
            for index in range(1, len(selfs)):
                layers[table["names"][index]] += selfs[index] / workers
            _add_busy(busy, table, selfs, skip_root=False)
            for name, value in table["counters"].items():
                counters[name] += value

    accounting = Accounting(
        wall_s=wall,
        layers=dict(layers),
        unattributed_s=unattributed,
        busy=busy,
        counters=dict(counters),
        shard_s=shard_s,
        busy_share=sum(shard_s) / capacity if capacity > 0 else 0.0,
    )
    if abs(accounting.error_s) > 1e-6:
        raise ValueError(
            f"self times plus unattributed time miss the wall time by {accounting.error_s:.3g} s"
        )
    return accounting


def tail_percentile(count: int, ladder: Sequence[float] = (99.0, 95.0, 90.0, 75.0)) -> float:
    """The highest percentile of ``ladder`` with at least ten samples beyond it."""
    for pct in ladder:
        if count * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: Per-layer metrics: name -> (unit, value from a job's accounting)
def _busy(name: str, column: int) -> Callable[[Accounting], float]:
    return lambda acc: float(acc.busy.get(name, (0.0, 0.0, 0))[column])


LAYER_METRICS: Dict[str, Tuple[str, Callable[[Accounting], float]]] = {
    "glossy.run_batch.s": ("s", _busy("glossy.run_batch", 0)),
    "glossy.run_batch.calls": ("count", _busy("glossy.run_batch", 2)),
    "glossy.run_batch.floods": ("count", lambda acc: float(acc.counters.get(
        "glossy.run_batch.floods", 0))),
    "glossy.run.s": ("s", _busy("glossy.run", 0)),
    "glossy.run.calls": ("count", _busy("glossy.run", 2)),
    "interference.penalty_windows.s": ("s", _busy(INTERFERENCE_SPAN, 0)),
    "interference.penalty_windows.calls": ("count", _busy(INTERFERENCE_SPAN, 2)),
    "lwb.run_round.self_s": ("s", _busy("lwb.run_round", 1)),
    "simulator.run_round.self_s": ("s", _busy("simulator.run_round", 1)),
    "simulator.rounds": ("count", _busy("simulator.run_round", 2)),
    "link.prr_matrix.s": ("s", _busy("link.prr_matrix", 0)),
    "link.prr_matrix.calls": ("count", _busy("link.prr_matrix", 2)),
    "core.run_round.self_s": ("s", _busy("core.run_round", 1)),
    "core.observe_round.self_s": ("s", _busy("core.observe_round", 1)),
    "core.build_view.s": ("s", _busy("core.build_view", 0)),
    "core.decide.self_s": ("s", _busy("core.decide", 1)),
    "rl.encode_arrays.s": ("s", _busy("rl.encode_arrays", 0)),
    "rl.forward.s": ("s", _busy("rl.forward", 0)),
    "rl.train.self_s": ("s", _busy("rl.train", 1)),
    "rl.train_batch.s": ("s", _busy("rl.train_batch", 0)),
    "rl.env_step.s": ("s", _busy("rl.env_step", 0)),
    "rl.trace_record.self_s": ("s", _busy("rl.trace_record", 1)),
    "baselines.crystal.run_epoch.self_s": ("s", _busy("baselines.crystal.run_epoch", 1)),
    "baselines.pid.run_round.self_s": ("s", _busy("baselines.pid.run_round", 1)),
    "baselines.static_lwb.run_round.self_s": ("s", _busy("baselines.static_lwb.run_round", 1)),
    "api.self_s": ("s", _busy("api.session", 1)),
    "runner.shards": ("count", lambda acc: float(len(acc.shard_s))),
    "runner.retries": ("count", lambda acc: float(acc.counters.get("runner.retries", 0))),
    "runner.idle_share": ("share", lambda acc: 1.0 - acc.busy_share),
    "trace.unattributed_share": ("share", lambda acc: acc.unattributed_s / acc.wall_s),
}


def layer_metrics(jobs: Sequence[Accounting]) -> Dict[str, Tuple[float, str, int]]:
    """Per-layer metrics over traced jobs: name -> (value, unit, samples).

    Per-job values are reported as their median over the jobs; shard
    percentiles pool the shards of every traced job.
    """
    out: Dict[str, Tuple[float, str, int]] = {}
    for name, (unit, value) in LAYER_METRICS.items():
        out[name] = (statistics.median(value(acc) for acc in jobs), unit, len(jobs))
    shards = [duration for acc in jobs for duration in acc.shard_s]
    tail = tail_percentile(len(shards))
    out["runner.shard_s.p50"] = (percentile(shards, 50.0), "s", len(shards))
    out["runner.shard_s.tail"] = (percentile(shards, tail), "s", len(shards))
    out["runner.shard_s.tail_pct"] = (tail, "%", len(shards))
    return out
