"""The :class:`Session` facade — one entry point for every experiment family.

A :class:`Session` owns the pieces every experiment driver used to
assemble by hand: the :class:`~repro.experiments.runner.ParallelRunner`
(worker fan-out + content-hash result cache), session-wide engine
selection (an ``engine=`` default applied to any spec that leaves it
unset), the policy network payload for Dimmer runs, and JSON artifact
emission.

Running experiments is declarative: build an
:class:`~repro.experiments.spec.ExperimentSpec` (or a grid of them) and
hand it to the session::

    from repro.api import Session
    from repro.experiments.spec import SweepSpec

    session = Session(cache_dir=".repro_bench_cache", network=trained_network)
    point = SweepSpec(protocol="dimmer", ratio=0.15, topology={"kind": "kiel"},
                      rounds=75, round_period_s=4.0, engine="vectorized")
    metrics = session.run(point)                       # one typed result
    grid = session.run_grid(point.grid(ratios=[0.0, 0.15, 0.35], seeds=range(3)))

Results are typed per family (``SweepSpec`` returns
:class:`~repro.experiments.metrics.ExperimentMetrics`, ``DynamicSpec``
a :class:`~repro.experiments.dynamic.DynamicRunResult`, ``DCubeSpec`` a
:class:`~repro.experiments.dcube.DCubeResult`, ...).  The figure-level
drivers (:meth:`Session.sweep`, :meth:`Session.dynamic_comparison`,
:meth:`Session.dcube`, :meth:`Session.feature_sweep`,
:meth:`Session.scenario_family`) build the same spec grids the paper
harnesses always ran and aggregate them into the historical result
objects.  Cache keys are unchanged from the hand-built task dicts that
preceded the specs: a cache directory warmed by those tasks is a full
cache hit for the equivalent specs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.experiments.runner import (
    FAILURE_KEY,
    ParallelRunner,
    RunnerStats,
    stable_seed,
)
from repro.experiments.spec import (
    DCubeSpec,
    DynamicSpec,
    ExperimentSpec,
    FeatureSweepSpec,
    MobileJammerSpec,
    NodeChurnSpec,
    SweepSpec,
    UNSET,
)

#: Default on-disk cache for grid results (shared with ``repro-bench``).
DEFAULT_CACHE_DIR = Path(".repro_bench_cache")


def _network_payload(network: Any) -> Optional[Dict[str, Any]]:
    """Normalize a policy network argument into its JSON payload."""
    if network is None:
        return None
    if isinstance(network, Mapping):
        return dict(network)
    from repro.experiments.runner import network_payload

    return network_payload(network)


@dataclass
class ScenarioFamilyResult:
    """Aggregated Dimmer-vs-baselines comparison over one scenario family."""

    family: str
    engine: str
    #: protocol -> {reliability, radio_on_ms, energy_j, runs} (successful
    #: runs only; protocols whose every run failed are absent).
    protocols: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Failed-shard entries (``collect_errors`` mode), empty on success.
    failed: List[Dict[str, Any]] = field(default_factory=list)


class Session:
    """Facade owning the runner, engine selection and artifact emission.

    Parameters
    ----------
    max_workers:
        Worker process count (``None`` = all cores, ``1`` = inline);
        ignored when ``runner`` is given.
    cache_dir:
        On-disk result cache directory (``None`` disables caching);
        ignored when ``runner`` is given.
    runner:
        An existing :class:`ParallelRunner` to reuse.
    engine:
        Default flood engine applied to any spec with an unset
        ``engine`` field (``"scalar"`` / ``"vectorized"``).
    network:
        Session-wide policy network (live ``QNetwork`` /
        ``QuantizedNetwork`` or its JSON payload) injected into any
        Dimmer spec that leaves ``network`` unset.
    retry_policy:
        Per-shard :class:`~repro.experiments.resilience.RetryPolicy`
        (``None`` = the default: 3 attempts, deterministic backoff);
        ignored when ``runner`` is given.
    shard_timeout_s:
        Per-shard wall-clock timeout enforced by the runner's watchdog;
        ignored when ``runner`` is given.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        runner: Optional[ParallelRunner] = None,
        engine: Optional[str] = None,
        network: Any = None,
        retry_policy: Any = None,
        shard_timeout_s: Optional[float] = None,
    ) -> None:
        self.runner = (
            runner
            if runner is not None
            else ParallelRunner(
                max_workers=max_workers,
                cache_dir=cache_dir,
                retry_policy=retry_policy,
                shard_timeout_s=shard_timeout_s,
            )
        )
        self.engine = engine
        self.network = _network_payload(network)

    @property
    def stats(self) -> RunnerStats:
        """Cache/execution accounting of the underlying runner."""
        return self.runner.stats

    @property
    def cache_dir(self) -> Optional[Path]:
        """The runner's on-disk result cache directory."""
        return self.runner.cache_dir

    # ------------------------------------------------------------------
    # Spec execution
    # ------------------------------------------------------------------
    def prepare(self, spec: ExperimentSpec) -> ExperimentSpec:
        """Apply session defaults (engine, network).

        Only fields the spec leaves :data:`UNSET` are filled in, and the
        network payload only reaches Dimmer specs — so a spec that sets
        its fields explicitly hashes to the same cache key under every
        session.
        """
        names = {spec_field.name for spec_field in fields(spec)}
        updates: Dict[str, Any] = {}
        if self.engine is not None and "engine" in names and spec.engine is UNSET:
            updates["engine"] = self.engine
        if (
            self.network is not None
            and "network" in names
            and spec.network is UNSET
            and getattr(spec, "protocol", None) == "dimmer"
        ):
            updates["network"] = self.network
        return replace(spec, **updates) if updates else spec

    def run_entries(
        self, specs: Sequence[ExperimentSpec], collect_errors: bool = False
    ) -> List[Dict[str, Any]]:
        """Execute specs and return the raw worker result entries in order."""
        tasks = [self.prepare(spec).task() for spec in specs]
        return self.runner.run(tasks, collect_errors=collect_errors)

    def run_grid(
        self, specs: Sequence[ExperimentSpec], collect_errors: bool = False
    ) -> List[Any]:
        """Execute specs and return each family's typed result, in order.

        With ``collect_errors``, failed shards come back as their raw
        :data:`FAILURE_KEY`-flagged dicts instead of typed results.
        """
        specs = list(specs)
        entries = self.run_entries(specs, collect_errors=collect_errors)
        return [
            entry if isinstance(entry, dict) and entry.get(FAILURE_KEY) else spec.parse(entry)
            for spec, entry in zip(specs, entries)
        ]

    def run(self, spec: ExperimentSpec) -> Any:
        """Execute one spec and return its typed result."""
        return self.run_grid([spec])[0]

    # ------------------------------------------------------------------
    # Figure-level drivers (the seven families)
    # ------------------------------------------------------------------
    def sweep(
        self,
        network: Any = None,
        ratios: Optional[Sequence[float]] = None,
        protocols: Optional[Sequence[str]] = None,
        topology_spec: Optional[Mapping[str, Any]] = None,
        rounds_per_run: int = 75,
        runs: int = 3,
        round_period_s: float = 4.0,
        engine: str = "vectorized",
        seed: int = 0,
    ):
        """Fig. 5: the protocol x interference-ratio sweep.

        Every (protocol, ratio, run) triple is one :class:`SweepSpec`
        seeded by :func:`stable_seed` over (seed, protocol, ratio
        percent, run index), so the worker count never changes results,
        and cache keys equal the historical parallel driver's.
        """
        from repro.experiments.interference_sweep import (
            PAPER_INTERFERENCE_RATIOS,
            PAPER_PROTOCOLS,
            SweepPoint,
            SweepResult,
        )
        from repro.experiments.metrics import aggregate_experiment_metrics

        ratios = tuple(PAPER_INTERFERENCE_RATIOS if ratios is None else ratios)
        protocols = tuple(PAPER_PROTOCOLS if protocols is None else protocols)
        topology = dict(topology_spec) if topology_spec is not None else {"kind": "kiel"}
        payload = _network_payload(network) or self.network

        specs: List[SweepSpec] = []
        for protocol in protocols:
            if protocol == "dimmer" and payload is None:
                raise ValueError("the Dimmer runs need a trained policy network")
            for ratio in ratios:
                for run_index in range(runs):
                    specs.append(
                        SweepSpec(
                            protocol=protocol,
                            ratio=ratio,
                            topology=topology,
                            rounds=rounds_per_run,
                            round_period_s=round_period_s,
                            engine=engine,
                            network=payload if protocol == "dimmer" else UNSET,
                            seed=stable_seed(seed, protocol, round(ratio * 100), run_index),
                            label=f"sweep:{protocol}@{ratio:.2f}#{run_index}",
                        )
                    )
        flat = self.run_grid(specs)

        result = SweepResult()
        cursor = 0
        for protocol in protocols:
            for ratio in ratios:
                per_run = flat[cursor: cursor + runs]
                cursor += runs
                result.points.append(
                    SweepPoint(
                        protocol=protocol,
                        interference_ratio=ratio,
                        metrics=aggregate_experiment_metrics(per_run),
                    )
                )
        return result

    def dynamic_comparison(
        self,
        network: Any = None,
        topology_spec: Optional[Mapping[str, Any]] = None,
        time_scale: float = 1.0,
        round_period_s: float = 4.0,
        seed: int = 0,
    ):
        """Fig. 4c vs 4d: Dimmer and the PID baseline on the same timeline."""
        from repro.experiments.dynamic import DynamicComparison

        payload = _network_payload(network) or self.network
        if payload is None:
            raise ValueError("the Dimmer run needs a trained policy network")
        topology = dict(topology_spec) if topology_spec is not None else {"kind": "kiel"}
        base = DynamicSpec(
            topology=topology,
            time_scale=time_scale,
            round_period_s=round_period_s,
            seed=seed,
        )
        dimmer, pid = self.run_grid(
            [
                replace(base, protocol="dimmer", network=payload, label="dynamic:dimmer"),
                replace(base, protocol="pid", label="dynamic:pid"),
            ]
        )
        return DynamicComparison(dimmer=dimmer, pid=pid)

    def dcube(
        self,
        network: Any = None,
        levels: Optional[Sequence[int]] = None,
        protocols: Optional[Sequence[str]] = None,
        topology_spec: Optional[Mapping[str, Any]] = None,
        num_rounds: int = 200,
        num_sources: int = 5,
        max_retries: int = 5,
        seed: int = 0,
    ):
        """Fig. 7: the D-Cube comparison grid (one spec per grid point)."""
        from repro.experiments.dcube import (
            DCUBE_LEVELS,
            DCUBE_PROTOCOLS,
            DCubeComparison,
        )

        levels = tuple(DCUBE_LEVELS if levels is None else levels)
        protocols = tuple(DCUBE_PROTOCOLS if protocols is None else protocols)
        topology = dict(topology_spec) if topology_spec is not None else {"kind": "dcube"}
        payload = _network_payload(network) or self.network

        specs: List[DCubeSpec] = []
        for level in levels:
            for protocol in protocols:
                if protocol == "dimmer" and payload is None:
                    raise ValueError("the Dimmer runs need a trained policy network")
                specs.append(
                    DCubeSpec(
                        protocol=protocol,
                        level=level,
                        topology=topology,
                        num_rounds=num_rounds,
                        num_sources=num_sources,
                        max_retries=max_retries,
                        network=payload if protocol == "dimmer" else UNSET,
                        seed=seed,
                        label=f"dcube:{protocol}@L{level}",
                    )
                )
        comparison = DCubeComparison()
        comparison.results.extend(self.run_grid(specs))
        return comparison

    def feature_sweep(
        self,
        dimension: str,
        values: Sequence[int],
        topology_spec: Optional[Mapping[str, Any]] = None,
        models_per_value: int = 3,
        profile: Any = None,
        training_episodes: Optional[Sequence] = None,
        evaluation_episodes: Optional[Sequence] = None,
        evaluation_repeats: int = 2,
        data_dir: Optional[Path] = None,
        seed: int = 0,
    ):
        """Fig. 4b: one feature-sweep panel (one spec per value x model).

        The shared trace set is collected once up front when a
        ``data_dir`` is given (it does not depend on the swept value),
        so workers only train and evaluate.
        """
        import numpy as np

        from repro.experiments.feature_selection import (
            EVALUATION_EPISODES,
            FeatureSweepPoint,
            FeatureSweepResult,
            feature_config_for,
        )
        from repro.experiments.runner import build_topology
        from repro.experiments.training import TrainingPipeline, TrainingProfile
        from repro.rl.trace_env import DEFAULT_TRAINING_EPISODES

        profile = profile if profile is not None else TrainingProfile.fast()
        training_episodes = (
            DEFAULT_TRAINING_EPISODES if training_episodes is None else training_episodes
        )
        evaluation_episodes = (
            EVALUATION_EPISODES if evaluation_episodes is None else evaluation_episodes
        )
        topology = dict(topology_spec) if topology_spec is not None else {"kind": "kiel"}

        if data_dir is not None and values:
            # Pre-collect the shared traces so the fan-out does not
            # collect them once per worker (the trace key is independent
            # of the swept dimension; per-model seeds beyond the first
            # still collect their own, protected by the atomic save).
            # The lock-stepped simulators fan out through this session's
            # runner; the merged trace is identical to the serial one.
            TrainingPipeline(
                topology=build_topology(topology),
                topology_spec=topology,
                feature_config=feature_config_for(dimension, values[0]),
                profile=profile,
                episodes=training_episodes,
                data_dir=data_dir,
                seed=seed,
            ).collect_traces(runner=self.runner)

        specs: List[FeatureSweepSpec] = []
        for value in values:
            for model_index in range(models_per_value):
                specs.append(
                    FeatureSweepSpec(
                        dimension=dimension,
                        value=value,
                        topology=topology,
                        profile=profile,
                        training_episodes=training_episodes,
                        evaluation_episodes=evaluation_episodes,
                        evaluation_repeats=evaluation_repeats,
                        data_dir=str(data_dir) if data_dir is not None else None,
                        eval_seed=seed + 7 + model_index,
                        seed=seed + 31 * model_index,
                        label=f"fig4b:{dimension}={value}#{model_index}",
                    )
                )
        flat = self.run_entries(specs)

        result = FeatureSweepResult(dimension=dimension)
        cursor = 0
        for value in values:
            entries = flat[cursor: cursor + models_per_value]
            cursor += models_per_value
            reliabilities = [entry["reliability"] for entry in entries]
            radio_on = [entry["radio_on_ms"] for entry in entries]
            result.points.append(
                FeatureSweepPoint(
                    value=int(value),
                    radio_on_ms=float(np.mean(radio_on)),
                    radio_on_std_ms=float(np.std(radio_on)),
                    reliability=float(np.mean(reliabilities)),
                    reliability_std=float(np.std(reliabilities)),
                    dqn_size_kb=float(entries[-1]["dqn_size_kb"]),
                    models=models_per_value,
                )
            )
        return result

    def scenario_family(
        self,
        family: str,
        protocols: Sequence[str] = ("lwb", "dimmer", "pid"),
        runs: int = 3,
        rounds: int = 40,
        engine: str = "vectorized",
        network: Any = None,
        seed: int = 0,
    ) -> ScenarioFamilyResult:
        """Dimmer vs baselines over one dynamic scenario family.

        ``family`` is ``"mobile_jammer"`` or ``"node_churn"``.  The grid
        completes around failed shards (``collect_errors``); protocols
        whose every run failed are reported in ``failed`` only.
        """
        spec_types = {"mobile_jammer": MobileJammerSpec, "node_churn": NodeChurnSpec}
        try:
            spec_type = spec_types[family]
        except KeyError:
            raise ValueError(
                f"unknown scenario family {family!r}; choose from {sorted(spec_types)}"
            ) from None
        payload = _network_payload(network) or self.network

        specs: List[ExperimentSpec] = []
        for protocol in protocols:
            if protocol == "dimmer" and payload is None:
                raise ValueError("the Dimmer runs need a trained policy network")
            for run_index in range(runs):
                specs.append(
                    spec_type(
                        protocol=protocol,
                        rounds=rounds,
                        engine=engine,
                        network=payload if protocol == "dimmer" else UNSET,
                        seed=stable_seed(seed, spec_type.experiment, protocol, run_index),
                        label=f"{family}:{protocol}#{run_index}",
                    )
                )
        entries = self.run_entries(specs, collect_errors=True)

        result = ScenarioFamilyResult(
            family=family,
            engine=engine,
            failed=[entry for entry in entries if entry.get(FAILURE_KEY)],
        )
        cursor = 0
        for protocol in protocols:
            ok = [
                entry
                for entry in entries[cursor: cursor + runs]
                if not entry.get(FAILURE_KEY)
            ]
            cursor += runs
            if not ok:
                continue
            result.protocols[protocol] = {
                "reliability": sum(e["reliability"] for e in ok) / len(ok),
                "radio_on_ms": sum(e["radio_on_ms"] for e in ok) / len(ok),
                "energy_j": sum(e["energy_j"] for e in ok) / len(ok),
                "runs": len(ok),
            }
        return result

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------
    def write_artifact(
        self,
        path: Union[str, Path],
        command: str,
        payload: Mapping[str, Any],
        failed_shards: Sequence[Mapping[str, Any]] = (),
    ) -> Path:
        """Write a run's JSON artifact (atomic) and return its path.

        The envelope is shared by every ``repro-bench`` subcommand:
        ``command``, the per-command ``payload`` keys, the runner's
        cache/execution ``runner_stats`` and the (possibly empty)
        ``failed_shards`` list.
        """
        from repro.net.trace import atomic_write_json

        path = Path(path)
        document = dict(payload)
        document["command"] = command
        # Full accounting, fault counters included: retries, timeouts,
        # quarantined cache entries, corrupt results and pool restarts
        # all land in the artifact.
        document["runner_stats"] = self.stats.as_dict()
        document["failed_shards"] = [dict(entry) for entry in failed_shards]
        atomic_write_json(path, document)
        return path
