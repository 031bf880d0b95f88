"""Experiment harness.

One module per element of the paper's evaluation (§V):

* :mod:`repro.experiments.scenarios` — interference scenarios and
  testbed setups shared by all experiments.
* :mod:`repro.experiments.metrics` — reliability / radio-on / energy
  aggregation helpers.
* :mod:`repro.experiments.training` — the offline training pipeline
  (trace collection, DQN training, quantization) with artifact caching.
* :mod:`repro.experiments.feature_selection` — Fig. 4b (input nodes and
  history-size sweeps).
* :mod:`repro.experiments.dynamic` — Fig. 4c / 4d (dynamic interference
  timelines for Dimmer and the PID baseline).
* :mod:`repro.experiments.interference_sweep` — Fig. 5a / 5b (static
  interference-ratio sweep for LWB, Dimmer and PID).
* :mod:`repro.experiments.forwarder` — Fig. 6 (forwarder selection).
* :mod:`repro.experiments.dcube` — Fig. 7 (48-node D-Cube comparison
  of LWB, Dimmer and Crystal).
* :mod:`repro.experiments.runner` — the parallel experiment runner
  fanning scenario x seed grids across worker processes, with
  deterministic seeding and an on-disk result cache.
* :mod:`repro.experiments.resilience` — the fault-tolerance layer of
  the runner: retry policy with deterministic backoff, the
  transient-failure taxonomy, checksummed result envelopes and
  graceful interruption.  The fault-injection rig that exercises it
  lives in the test suite.
* :mod:`repro.experiments.spec` — declarative, JSON round-trippable
  experiment specs (one frozen dataclass per family) executed through
  the :class:`repro.api.Session` facade.
* :mod:`repro.experiments.reporting` — plain-text table/series printers
  used by the benchmark harness.
"""

from repro.experiments.metrics import (
    ExperimentMetrics,
    aggregate_experiment_metrics,
    summarize_rounds,
)
from repro.experiments.resilience import GridInterrupted, RetryPolicy
from repro.experiments.runner import (
    ParallelRunner,
    RunnerError,
    ScenarioTask,
    register_experiment,
    stable_seed,
)
from repro.experiments.scenarios import (
    DynamicInterferenceScenario,
    MobileJammerScenario,
    NodeChurnScenario,
    dcube_wifi_interference,
    jamming_interference,
    paper_dynamic_scenario,
)
from repro.experiments.spec import (
    SPEC_FAMILIES,
    UNSET,
    DCubeSpec,
    DynamicSpec,
    ExperimentSpec,
    FeatureSweepSpec,
    MobileJammerSpec,
    NodeChurnSpec,
    SweepSpec,
    TraceEpisodeSpec,
    register_spec,
    spec_from_payload,
)
from repro.experiments.training import TrainingPipeline, TrainingProfile, load_pretrained_agent

__all__ = [
    "ExperimentMetrics",
    "aggregate_experiment_metrics",
    "summarize_rounds",
    "ParallelRunner",
    "RunnerError",
    "ScenarioTask",
    "GridInterrupted",
    "RetryPolicy",
    "register_experiment",
    "stable_seed",
    "SPEC_FAMILIES",
    "UNSET",
    "ExperimentSpec",
    "SweepSpec",
    "DynamicSpec",
    "DCubeSpec",
    "FeatureSweepSpec",
    "TraceEpisodeSpec",
    "MobileJammerSpec",
    "NodeChurnSpec",
    "register_spec",
    "spec_from_payload",
    "DynamicInterferenceScenario",
    "MobileJammerScenario",
    "NodeChurnScenario",
    "dcube_wifi_interference",
    "jamming_interference",
    "paper_dynamic_scenario",
    "TrainingPipeline",
    "TrainingProfile",
    "load_pretrained_agent",
]
