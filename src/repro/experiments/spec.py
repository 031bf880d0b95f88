"""Declarative experiment specs.

Every experiment family in this repository is ultimately "a registered
worker function plus a JSON-able parameter dict plus a seed" — that is
what :class:`~repro.experiments.runner.ScenarioTask` encodes and what
the on-disk result cache hashes.  Historically each family hand-built
those dicts in its own parallel driver, which meant each new scenario
family duplicated the marshalling, the cache-key canonicalization and
the grid expansion.

This module replaces the hand-marshalling with frozen
:class:`ExperimentSpec` dataclasses, one per family:

``SweepSpec``
    one (protocol, interference-ratio) point of the Fig. 5 sweep;
``DynamicSpec``
    one protocol run of the §V-C dynamic-interference timeline;
``DCubeSpec``
    one (protocol, WiFi-level) point of the Fig. 7 comparison;
``FeatureSweepSpec``
    one (dimension, value, model) point of the Fig. 4b feature sweeps;
``TraceEpisodeSpec``
    one (episode, N_TX) slice of the training-trace collection;
``MobileJammerSpec`` / ``NodeChurnSpec``
    the two dynamic scenario families.

Specs are declarative and JSON round-trippable:

* :meth:`ExperimentSpec.to_payload` / :func:`spec_from_payload` convert
  a spec to/from a plain JSON object (``{"family": ..., fields...}``);
  unknown fields are rejected, so stale spec files fail loudly.
* Every field defaults to the :data:`UNSET` sentinel; only explicitly
  set fields travel in the payload and in the task parameters, which is
  what keeps content-hash cache keys identical to the historical
  hand-built dicts (a key is only hashed if a caller set it).
* Field values are canonicalized on construction (numeric casts, tuples
  to lists, numpy scalars to Python) so two specs describing the same
  run compare equal — and hash to the same cache key — regardless of
  how the caller spelled the values.
* :meth:`ExperimentSpec.task` derives the runner task: the experiment
  name comes from the spec class, the parameters from the canonical
  payload, the seed from the ``seed`` field.  ``spec.key()`` is the
  on-disk cache key.
* :meth:`ExperimentSpec.grid` cross-products any subset of fields
  (``spec.grid(ratios=[0.0, 0.1], seeds=range(5))``) into a list of
  specs, in deterministic order.

Each family's worker function follows its spec class, registered in
:data:`~repro.experiments.runner.EXPERIMENTS` under the class's
``experiment`` name, so the name is written once per family.  The
package ``repro.experiments`` imports this module, so importing the
runner (as a spawned worker does) registers every built-in worker; the
worker bodies import the simulation modules lazily.

The :class:`~repro.api.Session` facade runs specs through the parallel
runner.
"""

from __future__ import annotations

import inspect
import itertools
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, ClassVar, Dict, List, Mapping, Optional, Sequence, Type

import numpy as np

from repro.experiments.runner import (
    ScenarioTask,
    _canonical,
    build_topology,
    network_from_payload,
    network_payload,
    register_experiment,
    register_group,
)


class _Unset:
    """Sentinel for "the caller did not set this field".

    Unset fields are omitted from payloads and task parameters, so the
    worker function's own defaults apply and — crucially — the task's
    content-hash cache key only covers fields a caller actually set,
    exactly like the historical hand-built parameter dicts.
    """

    _instance: ClassVar[Optional["_Unset"]] = None

    def __new__(cls) -> "_Unset":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNSET"

    def __bool__(self) -> bool:
        return False


#: The shared unset-field sentinel.
UNSET = _Unset()

#: Registry of spec families: payload ``family`` name -> spec class.
SPEC_FAMILIES: Dict[str, Type["ExperimentSpec"]] = {}


def register_spec(cls: Type["ExperimentSpec"]) -> Type["ExperimentSpec"]:
    """Class decorator registering a spec family by its ``family`` name."""
    if not getattr(cls, "family", None):
        raise ValueError(f"{cls.__name__} must define a family name")
    if cls.family in SPEC_FAMILIES:
        raise ValueError(f"spec family {cls.family!r} registered twice")
    SPEC_FAMILIES[cls.family] = cls
    return cls


# ----------------------------------------------------------------------
# Field casts (canonical value types, so cache keys never depend on how
# a caller spelled a number)
# ----------------------------------------------------------------------
def _cast_topology(value: Any) -> Dict[str, Any]:
    spec = dict(value)
    if "kind" not in spec:
        raise ValueError(f"topology spec needs a 'kind': {spec!r}")
    return spec


def _cast_network(value: Any) -> Dict[str, Any]:
    if isinstance(value, Mapping):
        return dict(value)
    if value is None or not hasattr(value, "layer_sizes"):
        raise ValueError(
            "network must be a payload mapping or a QNetwork/QuantizedNetwork, "
            f"got {value!r} (leave the field unset to use the worker default)"
        )
    # Accept live QNetwork / QuantizedNetwork objects for convenience.
    return network_payload(value)


def _cast_episode(value: Any) -> List[List[float]]:
    return [[int(rounds), float(ratio)] for rounds, ratio in value]


def _cast_episode_list(value: Any) -> List[List[List[float]]]:
    return [_cast_episode(episode) for episode in value]


def _cast_profile(value: Any) -> Dict[str, Any]:
    from repro.experiments.training import TrainingProfile

    known = [profile_field.name for profile_field in fields(TrainingProfile)]
    if not isinstance(value, Mapping):
        # Accept a live TrainingProfile.
        if not hasattr(value, "trace_repetitions"):
            raise ValueError(
                "profile must be a mapping of TrainingProfile fields or a "
                f"TrainingProfile, got {value!r}"
            )
        value = {name: getattr(value, name) for name in known}
    unknown = sorted(set(value) - set(known))
    if unknown:
        # Same fail-loudly contract as top-level spec fields: a
        # misspelled profile key must not silently fall back to the
        # defaults (and hash to a different cache key).
        raise ValueError(f"unknown profile key(s) {unknown}; known keys: {known}")
    # Unset keys take the ``fast`` profile's values, cast to their types.
    defaults = asdict(TrainingProfile.fast())
    return {name: type(defaults[name])(value.get(name, defaults[name])) for name in known}


def _cast_churn(value: Any) -> List[Dict[str, Any]]:
    from repro.rl.trace_env import interval_churn_events

    return interval_churn_events(value)


def _cast_opt_str(value: Any) -> Optional[str]:
    return None if value is None else str(value)


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative grid point of a registered experiment family.

    Subclasses set the class attributes ``family`` (payload/registry
    name) and ``experiment`` (the
    :data:`~repro.experiments.runner.EXPERIMENTS` entry executed in the
    worker), declare their fields with :data:`UNSET` defaults, and may
    map field names to cast callables in ``casts``.

    ``seed`` becomes the task seed (it is hashed into the cache key
    next to the parameters, like every :class:`ScenarioTask`);
    ``label`` is a purely cosmetic task name for logs and error
    messages — it is excluded from comparisons, payloads and cache
    keys.
    """

    #: Registry name of the family (payload ``"family"`` value).
    family: ClassVar[str] = ""
    #: Name of the registered runner experiment this spec executes.
    experiment: ClassVar[str] = ""
    #: Optional per-field cast callables applied on construction.
    casts: ClassVar[Mapping[str, Callable[[Any], Any]]] = {}

    seed: int = 0
    label: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed))
        for spec_field in fields(self):
            if spec_field.name in ("seed", "label"):
                continue
            value = getattr(self, spec_field.name)
            if value is UNSET:
                continue
            cast = self.casts.get(spec_field.name)
            if cast is not None:
                value = cast(value)
            object.__setattr__(self, spec_field.name, _canonical(value))

    # ------------------------------------------------------------------
    # Payload round trip
    # ------------------------------------------------------------------
    def params(self) -> Dict[str, Any]:
        """The explicitly set fields, canonicalized — the task params."""
        return {
            spec_field.name: getattr(self, spec_field.name)
            for spec_field in fields(self)
            if spec_field.name not in ("seed", "label")
            and getattr(self, spec_field.name) is not UNSET
        }

    def to_payload(self) -> Dict[str, Any]:
        """Canonical JSON object describing this spec (round-trippable)."""
        payload: Dict[str, Any] = {"family": self.family, "seed": self.seed}
        payload.update(self.params())
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_payload` output.

        Called on a subclass it validates the ``family`` entry (when
        present); called on :class:`ExperimentSpec` it dispatches on it.
        Unknown fields raise :class:`ValueError` so stale or misspelled
        spec files fail loudly instead of silently changing cache keys.
        """
        payload = dict(payload)
        family = payload.pop("family", None)
        if cls is ExperimentSpec:
            return spec_from_payload({"family": family, **payload})
        if family is not None and family != cls.family:
            raise ValueError(
                f"payload family {family!r} does not match {cls.__name__} "
                f"(family {cls.family!r})"
            )
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown field(s) {unknown} for spec family {cls.family!r}; "
                f"known fields: {sorted(known)}"
            )
        return cls(**payload)

    # ------------------------------------------------------------------
    # Runner integration
    # ------------------------------------------------------------------
    def task(self, label: Optional[str] = None) -> ScenarioTask:
        """The runner task this spec describes.

        The experiment name comes from the spec class, the parameters
        from the canonical payload and the seed from the ``seed`` field
        — this is the single marshalling point for every caller, so the
        content-hash cache key of a grid point no longer depends on
        which driver built it.
        """
        return ScenarioTask(
            experiment=self.experiment,
            params=self.params(),
            seed=self.seed,
            label=label or self.label,
        )

    def key(self) -> str:
        """Content-hash cache key of this spec (see :meth:`ScenarioTask.key`)."""
        return self.task().key()

    def describe(self) -> str:
        """Human-readable name for logs and error messages."""
        return self.label or f"{self.family}[{self.key()[:10]}]"

    def parse(self, entry: Dict[str, Any]) -> Any:
        """Convert a worker result entry into this family's typed result.

        The base implementation returns the raw entry; families with a
        richer result type (sweep metrics, dynamic time series, D-Cube
        grid entries) override it.
        """
        return entry

    # ------------------------------------------------------------------
    # Grid expansion
    # ------------------------------------------------------------------
    def grid(self, **sweeps: Any) -> List["ExperimentSpec"]:
        """Cross-product any subset of fields into a list of specs.

        Keyword names address fields either exactly or by their plural
        (``ratios`` sweeps ``ratio``, ``seeds`` sweeps ``seed``).  The
        expansion order is deterministic: :func:`itertools.product`
        over the keyword order, each value sequence in the order given.

        >>> SweepSpec(protocol="lwb").grid(ratios=[0.0, 0.1], seeds=[1, 2])
        ... # [ratio 0.0 seed 1, ratio 0.0 seed 2, ratio 0.1 seed 1, ...]
        """
        known = {spec_field.name for spec_field in fields(self)}
        resolved: List[tuple] = []
        for name, values in sweeps.items():
            if name in known:
                target = name
            elif name.endswith("s") and name[:-1] in known:
                target = name[:-1]
            else:
                raise ValueError(
                    f"{name!r} matches no field of {type(self).__name__} "
                    f"(fields: {sorted(known)})"
                )
            if isinstance(values, (str, bytes)):
                raise ValueError(
                    f"grid sweep {name!r} must be a list of values, got {values!r} "
                    f"(a bare string would expand character by character)"
                )
            try:
                resolved.append((target, list(values)))
            except TypeError:
                raise ValueError(
                    f"grid sweep {name!r} must be a list of values, got {values!r}"
                ) from None
        if not resolved:
            return [self]
        names = [target for target, _ in resolved]
        return [
            # The base label is not copied onto expanded points: it
            # would misattribute failures (every grid point would
            # describe() identically); the key-based fallback stays
            # unique per point.
            replace(self, label=None, **dict(zip(names, combo)))
            for combo in itertools.product(*(values for _, values in resolved))
        ]


# ----------------------------------------------------------------------
# The seven families, each followed by the worker function it names
# ----------------------------------------------------------------------
@register_spec
@dataclass(frozen=True)
class SweepSpec(ExperimentSpec):
    """One (protocol, interference-ratio, run) point of the Fig. 5 sweep."""

    family: ClassVar[str] = "sweep"
    experiment: ClassVar[str] = "sweep_point"
    casts: ClassVar[Mapping[str, Callable[[Any], Any]]] = {
        "protocol": str,
        "ratio": float,
        "topology": _cast_topology,
        "rounds": int,
        "round_period_s": float,
        "engine": str,
        "network": _cast_network,
    }

    protocol: Any = UNSET
    ratio: Any = UNSET
    topology: Any = UNSET
    rounds: Any = UNSET
    round_period_s: Any = UNSET
    engine: Any = UNSET
    network: Any = UNSET

    def parse(self, entry: Dict[str, Any]) -> Any:
        from repro.experiments.metrics import ExperimentMetrics

        return ExperimentMetrics.from_dict(entry)


@register_experiment(SweepSpec.experiment)
def run_sweep_point(
    seed: int = 0,
    protocol: str = "lwb",
    ratio: float = 0.0,
    topology: Optional[Mapping[str, Any]] = None,
    rounds: int = 75,
    round_period_s: float = 4.0,
    engine: str = "vectorized",
    network: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """One (protocol, interference-ratio) run of the Fig. 5 sweep.

    The one-spec case of :func:`run_sweep_points`.
    """
    (metrics,) = run_sweep_points(
        [
            {
                "seed": seed,
                "protocol": protocol,
                "ratio": ratio,
                "topology": topology,
                "rounds": rounds,
                "round_period_s": round_period_s,
                "engine": engine,
                "network": network,
            }
        ]
    )
    return metrics


def _sweep_arguments(params: Mapping[str, Any]) -> Dict[str, Any]:
    """``params`` bound to :func:`run_sweep_point`'s signature, defaults filled."""
    bound = inspect.signature(run_sweep_point).bind(**params)
    bound.apply_defaults()
    return dict(bound.arguments)


def _sweep_group_key(params: Mapping[str, Any]) -> Optional[str]:
    """Lock-step group of a ``sweep_point`` task (``None`` = run alone).

    Shards over one topology, round count and round period advance
    round by round together.  Only the vectorized engine batches: the
    scalar engine draws per node, so its floods gain nothing from
    sharing a call.
    """
    try:
        arguments = _sweep_arguments(params)
    except TypeError:
        return None  # invalid params fail in their own shard
    if arguments["engine"] != "vectorized":
        return None
    return json.dumps(
        [
            arguments["topology"] or {"kind": "kiel"},
            arguments["rounds"],
            arguments["round_period_s"],
        ],
        sort_keys=True,
    )


@register_group(SweepSpec.experiment, _sweep_group_key)
def run_sweep_points(params_list: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Fig. 5 grid points run in lock-step, one result dict per point.

    Each entry of ``params_list`` holds :func:`run_sweep_point`'s
    keyword arguments.  One simulator and protocol per point advance
    round by round together: each round's control floods, then its data
    floods, of every point run as one batched kernel call
    (:func:`~repro.net.glossy.run_lockstep`).  Every point keeps its own
    generator, links, interference and controller, so its result equals
    its solo run bit for bit.  Each round is reduced to the two floats
    the metrics read as soon as it ends, and its
    :class:`~repro.net.lwb.RoundResult` is dropped, so memory does not
    grow with the round count.
    """
    from repro.experiments.dynamic import build_protocol
    from repro.experiments.metrics import summarize_rounds
    from repro.experiments.scenarios import jamming_interference
    from repro.net.glossy import run_lockstep
    from repro.net.simulator import NetworkSimulator, SimulatorConfig

    points = [_sweep_arguments(params) for params in params_list]
    topologies: Dict[str, Any] = {}
    simulators, protocols = [], []
    for point in points:
        spec = point["topology"] or {"kind": "kiel"}
        topology_key = json.dumps(spec, sort_keys=True)
        if topology_key not in topologies:
            topologies[topology_key] = build_topology(spec)
        topology = topologies[topology_key]
        simulator = NetworkSimulator(
            topology,
            SimulatorConfig(
                round_period_s=point["round_period_s"],
                channel_hopping=False,
                seed=point["seed"],
                engine=point["engine"],
            ),
        )
        simulator.set_interference(jamming_interference(topology, point["ratio"]))
        network = point["network"]
        simulators.append(simulator)
        protocols.append(
            build_protocol(
                point["protocol"],
                simulator,
                network_from_payload(network) if network is not None else None,
            )
        )

    reliabilities: List[List[float]] = [[] for _ in points]
    radio_on: List[List[float]] = [[] for _ in points]
    for round_index in range(max((point["rounds"] for point in points), default=0)):
        running = [e for e, point in enumerate(points) if round_index < point["rounds"]]
        results = run_lockstep([protocols[e].round_steps() for e in running])
        for e, result in zip(running, results):
            reliabilities[e].append(result.reliability)
            radio_on[e].append(result.average_radio_on_ms)
            simulators[e].round_history.clear()
    return [
        summarize_rounds(
            reliabilities[e], radio_on[e], energy_j=simulators[e].total_energy_j()
        ).as_dict()
        for e in range(len(points))
    ]


@register_spec
@dataclass(frozen=True)
class DynamicSpec(ExperimentSpec):
    """One protocol run of the §V-C dynamic-interference timeline."""

    family: ClassVar[str] = "dynamic"
    experiment: ClassVar[str] = "dynamic_run"
    casts: ClassVar[Mapping[str, Callable[[Any], Any]]] = {
        "protocol": str,
        "topology": _cast_topology,
        "time_scale": float,
        "round_period_s": float,
        "network": _cast_network,
    }

    protocol: Any = UNSET
    topology: Any = UNSET
    time_scale: Any = UNSET
    round_period_s: Any = UNSET
    network: Any = UNSET

    def parse(self, entry: Dict[str, Any]) -> Any:
        from repro.experiments.dynamic import _dynamic_result_from_task

        return _dynamic_result_from_task(entry)


@register_experiment(DynamicSpec.experiment)
def run_dynamic_task(
    seed: int = 0,
    protocol: str = "dimmer",
    topology: Optional[Mapping[str, Any]] = None,
    time_scale: float = 1.0,
    round_period_s: float = 4.0,
    network: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """One protocol run of the §V-C dynamic-interference timeline."""
    from repro.experiments.dynamic import run_dynamic_experiment

    topo = build_topology(topology or {"kind": "kiel"})
    net = network_from_payload(network) if network is not None else None
    result = run_dynamic_experiment(
        protocol,
        network=net,
        topology=topo,
        time_scale=time_scale,
        round_period_s=round_period_s,
        seed=seed,
    )
    return {
        "protocol": result.protocol,
        "metrics": result.metrics.as_dict(),
        "times_s": list(result.reliability.times_s),
        "reliability": list(result.reliability.values),
        "n_tx": list(result.n_tx.values),
        "radio_on_ms": list(result.radio_on_ms.values),
        "interference_ratio": list(result.interference_ratio.values),
    }


@register_spec
@dataclass(frozen=True)
class DCubeSpec(ExperimentSpec):
    """One (protocol, WiFi-level) grid point of the Fig. 7 comparison."""

    family: ClassVar[str] = "dcube"
    experiment: ClassVar[str] = "dcube_point"
    casts: ClassVar[Mapping[str, Callable[[Any], Any]]] = {
        "protocol": str,
        "level": int,
        "topology": _cast_topology,
        "num_rounds": int,
        "num_sources": int,
        "max_retries": int,
        "network": _cast_network,
    }

    protocol: Any = UNSET
    level: Any = UNSET
    topology: Any = UNSET
    num_rounds: Any = UNSET
    num_sources: Any = UNSET
    max_retries: Any = UNSET
    network: Any = UNSET

    def parse(self, entry: Dict[str, Any]) -> Any:
        from repro.experiments.dcube import DCubeResult

        return DCubeResult(
            protocol=entry["protocol"],
            level=int(entry["level"]),
            reliability=entry["reliability"],
            energy_j=entry["energy_j"],
            average_radio_on_ms=entry["average_radio_on_ms"],
            packets_generated=int(entry["packets_generated"]),
            packets_delivered=int(entry["packets_delivered"]),
        )


@register_experiment(DCubeSpec.experiment)
def run_dcube_point(
    seed: int = 0,
    protocol: str = "lwb",
    level: int = 0,
    topology: Optional[Mapping[str, Any]] = None,
    num_rounds: int = 200,
    num_sources: int = 5,
    max_retries: int = 5,
    network: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """One (protocol, WiFi-level) grid point of the Fig. 7 comparison."""
    from repro.experiments.dcube import run_single_dcube_point

    topo = build_topology(topology or {"kind": "dcube"})
    net = network_from_payload(network) if network is not None else None
    result = run_single_dcube_point(
        protocol, level, net, topo, num_rounds, num_sources, max_retries, seed
    )
    return {
        "protocol": result.protocol,
        "level": result.level,
        "reliability": result.reliability,
        "energy_j": result.energy_j,
        "average_radio_on_ms": result.average_radio_on_ms,
        "packets_generated": result.packets_generated,
        "packets_delivered": result.packets_delivered,
    }


@register_spec
@dataclass(frozen=True)
class FeatureSweepSpec(ExperimentSpec):
    """One (dimension, value, model) point of the Fig. 4b feature sweeps."""

    family: ClassVar[str] = "feature_sweep"
    experiment: ClassVar[str] = "feature_sweep_point"
    casts: ClassVar[Mapping[str, Callable[[Any], Any]]] = {
        "dimension": str,
        "value": int,
        "topology": _cast_topology,
        "profile": _cast_profile,
        "training_episodes": _cast_episode_list,
        "evaluation_episodes": _cast_episode_list,
        "evaluation_repeats": int,
        "data_dir": _cast_opt_str,
        "eval_seed": int,
    }

    dimension: Any = UNSET
    value: Any = UNSET
    topology: Any = UNSET
    profile: Any = UNSET
    training_episodes: Any = UNSET
    evaluation_episodes: Any = UNSET
    evaluation_repeats: Any = UNSET
    data_dir: Any = UNSET
    eval_seed: Any = UNSET


@register_experiment(FeatureSweepSpec.experiment)
def run_feature_sweep_point(
    seed: int = 0,
    dimension: str = "input_nodes",
    value: int = 10,
    topology: Optional[Mapping[str, Any]] = None,
    profile: Optional[Mapping[str, Any]] = None,
    training_episodes: Sequence[Sequence[Sequence[float]]] = (),
    evaluation_episodes: Sequence[Sequence[Sequence[float]]] = (),
    evaluation_repeats: int = 1,
    data_dir: Optional[str] = None,
    eval_seed: int = 0,
) -> Dict[str, Any]:
    """One (value, model) point of the Fig. 4b feature sweeps.

    ``seed`` is the training-pipeline seed; trained weights and traces
    are cached under ``data_dir`` (atomic writes keep concurrent
    workers safe), so re-running a sweep is nearly free.
    """
    from repro.experiments.feature_selection import train_and_evaluate_point
    from repro.experiments.training import TrainingProfile

    topo = build_topology(topology or {"kind": "kiel"})
    training_profile = TrainingProfile(**profile) if profile else TrainingProfile.fast()
    episodes = [
        tuple((int(rounds), float(ratio)) for rounds, ratio in episode)
        for episode in training_episodes
    ]
    eval_episodes = [
        tuple((int(rounds), float(ratio)) for rounds, ratio in episode)
        for episode in evaluation_episodes
    ]
    reliability, radio_on_ms, dqn_size_kb = train_and_evaluate_point(
        dimension,
        int(value),
        topo,
        training_profile,
        episodes,
        eval_episodes,
        int(evaluation_repeats),
        Path(data_dir) if data_dir else None,
        train_seed=seed,
        eval_seed=int(eval_seed),
    )
    return {
        "value": int(value),
        "reliability": float(reliability),
        "radio_on_ms": float(radio_on_ms),
        "dqn_size_kb": float(dqn_size_kb),
    }


@register_spec
@dataclass(frozen=True)
class TraceEpisodeSpec(ExperimentSpec):
    """One (episode, N_TX) slice of the training-trace collection."""

    family: ClassVar[str] = "trace_episode"
    experiment: ClassVar[str] = "trace_episode"
    casts: ClassVar[Mapping[str, Callable[[Any], Any]]] = {
        "topology": _cast_topology,
        "n_tx": int,
        "episode": _cast_episode,
        "ambient_rate": float,
        "round_period_s": float,
        "interference_seed": int,
        "churn": _cast_churn,
    }

    topology: Any = UNSET
    n_tx: Any = UNSET
    episode: Any = UNSET
    ambient_rate: Any = UNSET
    round_period_s: Any = UNSET
    interference_seed: Any = UNSET
    churn: Any = UNSET

    def parse(self, entry: Dict[str, Any]) -> Any:
        return entry["records"]


@register_experiment(TraceEpisodeSpec.experiment)
def run_trace_episode(
    seed: int = 0,
    topology: Optional[Mapping[str, Any]] = None,
    n_tx: int = 3,
    episode: Sequence[Sequence[float]] = (),
    ambient_rate: float = 0.02,
    round_period_s: float = 4.0,
    interference_seed: int = 0,
    churn: Sequence[Mapping[str, Any]] = (),
) -> Dict[str, Any]:
    """One (episode, N_TX) slice of the trace collection.

    ``seed`` is the episode seed shared by all slices of a decision
    point.  The one-spec case of :func:`run_trace_episodes`.
    """
    (records,) = run_trace_episodes(
        [
            {
                "seed": seed,
                "topology": topology,
                "n_tx": n_tx,
                "episode": episode,
                "ambient_rate": ambient_rate,
                "round_period_s": round_period_s,
                "interference_seed": interference_seed,
                "churn": churn,
            }
        ]
    )
    return records


def _trace_arguments(params: Mapping[str, Any]) -> Dict[str, Any]:
    """``params`` bound to :func:`run_trace_episode`'s signature, defaults filled."""
    bound = inspect.signature(run_trace_episode).bind(**params)
    bound.apply_defaults()
    return dict(bound.arguments)


def _trace_topology_key(arguments: Mapping[str, Any]) -> str:
    """The topology spec of bound ``trace_episode`` arguments, as a key."""
    return json.dumps(arguments["topology"] or {"kind": "kiel"}, sort_keys=True)


def _trace_group_key(params: Mapping[str, Any]) -> Optional[str]:
    """Lock-step group of a ``trace_episode`` task (``None`` = run alone).

    Slices over one topology advance round by round together; episodes
    of unequal length drop out as they finish.
    """
    try:
        arguments = _trace_arguments(params)
    except TypeError:
        return None  # invalid params fail in their own shard
    return _trace_topology_key(arguments)


@register_group(TraceEpisodeSpec.experiment, _trace_group_key)
def run_trace_episodes(params_list: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Trace slices run in lock-step, one result dict per slice.

    Each entry of ``params_list`` holds :func:`run_trace_episode`'s
    keyword arguments.  The slices over each topology run through one
    :func:`~repro.rl.trace_env.record_episodes` call: one batched
    kernel call per round step for all of them, each slice's records
    equal to its solo run bit for bit.
    """
    from repro.rl.trace_env import TraceSlice, record_episodes

    arguments = [_trace_arguments(params) for params in params_list]
    groups: Dict[str, List[int]] = {}
    for position, bound in enumerate(arguments):
        groups.setdefault(_trace_topology_key(bound), []).append(position)
    results: List[Dict[str, Any]] = [{} for _ in arguments]
    for positions in groups.values():
        slices = [
            TraceSlice(
                n_tx=int(bound["n_tx"]),
                episode=[(int(rounds), float(ratio)) for rounds, ratio in bound["episode"]],
                ambient_rate=bound["ambient_rate"],
                round_period_s=bound["round_period_s"],
                episode_seed=bound["seed"],
                interference_seed=int(bound["interference_seed"]),
                churn=bound["churn"],
            )
            for bound in (arguments[p] for p in positions)
        ]
        topology = build_topology(arguments[positions[0]]["topology"] or {"kind": "kiel"})
        for position, records in zip(positions, record_episodes(topology, slices)):
            results[position] = {"records": records}
    return results


@register_spec
@dataclass(frozen=True)
class MobileJammerSpec(ExperimentSpec):
    """A protocol under a jammer patrolling across the deployment."""

    family: ClassVar[str] = "mobile_jammer"
    experiment: ClassVar[str] = "mobile_jammer_run"
    casts: ClassVar[Mapping[str, Callable[[Any], Any]]] = {
        "topology": _cast_topology,
        "protocol": str,
        "n_tx": int,
        "rounds": int,
        "round_period_s": float,
        "interference_ratio": float,
        "speed_mps": float,
        "engine": str,
        "network": _cast_network,
    }

    topology: Any = UNSET
    protocol: Any = UNSET
    n_tx: Any = UNSET
    rounds: Any = UNSET
    round_period_s: Any = UNSET
    interference_ratio: Any = UNSET
    speed_mps: Any = UNSET
    engine: Any = UNSET
    network: Any = UNSET


@register_experiment(MobileJammerSpec.experiment)
def run_mobile_jammer_task(
    seed: int = 0,
    topology: Optional[Mapping[str, Any]] = None,
    protocol: str = "lwb",
    n_tx: int = 3,
    rounds: int = 40,
    round_period_s: float = 1.0,
    interference_ratio: float = 0.3,
    speed_mps: float = 1.0,
    engine: str = "vectorized",
    network: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """A protocol under a jammer patrolling across the deployment.

    ``protocol`` selects static LWB (default), Dimmer (needs a
    ``network`` payload) or the PID baseline.
    """
    from repro.experiments.dynamic import build_protocol
    from repro.experiments.metrics import summarize_round_results
    from repro.experiments.scenarios import MobileJammerScenario
    from repro.net.simulator import NetworkSimulator, SimulatorConfig

    topo = build_topology(topology or {"kind": "kiel"})
    net = network_from_payload(network) if network is not None else None
    scenario = MobileJammerScenario.across(
        topo, interference_ratio=interference_ratio, speed_mps=speed_mps
    )
    simulator = NetworkSimulator(
        topo,
        SimulatorConfig(
            round_period_s=round_period_s, channel_hopping=False, engine=engine, seed=seed
        ),
    )
    runner = build_protocol(protocol, simulator, net, n_tx=n_tx)
    for _ in range(rounds):
        simulator.set_interference(scenario.interference_at(simulator.time_ms / 1000.0))
        runner.run_round()
    summary = summarize_round_results(simulator.round_history).as_dict()
    summary["protocol"] = protocol
    summary["energy_j"] = simulator.total_energy_j()
    return summary


@register_spec
@dataclass(frozen=True)
class NodeChurnSpec(ExperimentSpec):
    """A protocol while traffic sources churn (leave and rejoin the bus)."""

    family: ClassVar[str] = "node_churn"
    experiment: ClassVar[str] = "node_churn_run"
    casts: ClassVar[Mapping[str, Callable[[Any], Any]]] = {
        "topology": _cast_topology,
        "protocol": str,
        "n_tx": int,
        "rounds": int,
        "round_period_s": float,
        "churn_rate": float,
        "min_outage_rounds": int,
        "max_outage_rounds": int,
        "engine": str,
        "network": _cast_network,
    }

    topology: Any = UNSET
    protocol: Any = UNSET
    n_tx: Any = UNSET
    rounds: Any = UNSET
    round_period_s: Any = UNSET
    churn_rate: Any = UNSET
    min_outage_rounds: Any = UNSET
    max_outage_rounds: Any = UNSET
    engine: Any = UNSET
    network: Any = UNSET


@register_experiment(NodeChurnSpec.experiment)
def run_node_churn_task(
    seed: int = 0,
    topology: Optional[Mapping[str, Any]] = None,
    protocol: str = "lwb",
    n_tx: int = 3,
    rounds: int = 40,
    round_period_s: float = 1.0,
    churn_rate: float = 0.2,
    min_outage_rounds: int = 3,
    max_outage_rounds: int = 8,
    engine: str = "vectorized",
    network: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """A protocol while sources churn (nodes leave and rejoin the bus)."""
    from repro.experiments.dynamic import build_protocol
    from repro.experiments.metrics import summarize_round_results
    from repro.experiments.scenarios import NodeChurnScenario
    from repro.net.simulator import NetworkSimulator, SimulatorConfig

    topo = build_topology(topology or {"kind": "kiel"})
    net = network_from_payload(network) if network is not None else None
    scenario = NodeChurnScenario(
        topology=topo,
        churn_rate=churn_rate,
        min_outage_rounds=min_outage_rounds,
        max_outage_rounds=max_outage_rounds,
        seed=seed,
    )
    simulator = NetworkSimulator(
        topo,
        SimulatorConfig(
            round_period_s=round_period_s, channel_hopping=False, engine=engine, seed=seed
        ),
    )
    runner = build_protocol(protocol, simulator, net, n_tx=n_tx)
    active_counts: List[int] = []
    for round_index in range(rounds):
        sources = scenario.active_sources(round_index)
        active_counts.append(len(sources))
        simulator.set_sources(sources)
        runner.run_round(sources=sources)
    summary = summarize_round_results(simulator.round_history).as_dict()
    summary["average_active_sources"] = float(np.mean(active_counts))
    summary["protocol"] = protocol
    summary["energy_j"] = simulator.total_energy_j()
    return summary


# ----------------------------------------------------------------------
# Payload / file helpers
# ----------------------------------------------------------------------
def spec_from_payload(payload: Mapping[str, Any]) -> ExperimentSpec:
    """Rebuild a spec of any registered family from its JSON payload."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"spec payload must be a JSON object, got {type(payload).__name__}")
    family = payload.get("family")
    if family is None:
        raise ValueError(
            f"spec payload needs a 'family' entry; registered: {sorted(SPEC_FAMILIES)}"
        )
    try:
        cls = SPEC_FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown spec family {family!r}; registered: {sorted(SPEC_FAMILIES)}"
        ) from None
    return cls.from_payload(payload)


def expand_spec_payload(payload: Mapping[str, Any]) -> List[ExperimentSpec]:
    """Expand one payload into specs, honouring an optional ``"grid"`` entry.

    ``{"family": "sweep", ..., "grid": {"ratios": [0.0, 0.1], "seeds": [0, 1]}}``
    cross-products like :meth:`ExperimentSpec.grid`.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(
            f"spec payload must be a JSON object, got {type(payload).__name__}"
        )
    payload = dict(payload)
    grid = payload.pop("grid", None)
    base = spec_from_payload(payload)
    if not grid:
        return [base]
    if not isinstance(grid, Mapping):
        raise ValueError(f"'grid' must be a JSON object of field sweeps, got {grid!r}")
    return list(base.grid(**grid))


def load_specs(path: Path) -> List[ExperimentSpec]:
    """Load specs from a JSON file.

    The file may hold a single spec object, a list of spec objects, or
    ``{"specs": [...]}``; every object may carry a ``"grid"`` entry for
    cross-product expansion.
    """
    with Path(path).open("r", encoding="utf-8") as handle:
        document = json.load(handle)
    if isinstance(document, Mapping) and "specs" in document:
        entries = document["specs"]
    elif isinstance(document, Mapping):
        entries = [document]
    elif isinstance(document, list):
        entries = document
    else:
        raise ValueError(
            f"spec file {path} must hold a spec object, a list of them, "
            f"or {{'specs': [...]}}"
        )
    specs: List[ExperimentSpec] = []
    for entry in entries:
        specs.extend(expand_spec_payload(entry))
    if not specs:
        raise ValueError(f"spec file {path} contains no specs")
    return specs
