#!/usr/bin/env python3
"""Train Dimmer's DQN from scratch (the §IV-B offline training pipeline).

Collects unlabeled traces from scripted jamming episodes on the
simulated 18-node testbed, trains the 31-30-3 DQN offline with
epsilon-greedy exploration and a discount factor of 0.7, quantizes the
result for embedded inference, and reports how the policy behaves on a
held-out simulation episode.

Run with::

    python examples/train_dqn.py [fast|standard|paper]

``fast`` (default) finishes in a couple of minutes; ``paper`` uses the
full 200 000-iteration budget of the paper.
"""

import sys
import tempfile
import time
from pathlib import Path

from repro.api import Session
from repro.experiments.training import TrainingPipeline, TrainingProfile
from repro.rl.trace_env import SimulationEnvironment


def main(profile_name: str = "fast") -> None:
    profiles = {
        "fast": TrainingProfile.fast(),
        "standard": TrainingProfile.standard(),
        "paper": TrainingProfile.paper(),
    }
    if profile_name not in profiles:
        raise SystemExit(f"unknown profile {profile_name!r}; choose from {sorted(profiles)}")
    profile = profiles[profile_name]

    # The trace and model caches go to a temporary directory: their keys
    # cover only the configuration, so caches kept in the package would
    # be reused after a code change instead of being rebuilt.
    with tempfile.TemporaryDirectory() as data_dir:
        run(profile, Path(data_dir))


def run(profile: TrainingProfile, data_dir: Path) -> None:
    # topology_spec lets the trace collection fan its lock-stepped
    # simulators out across the session's worker processes.
    pipeline = TrainingPipeline(
        profile=profile, seed=0, topology_spec={"kind": "kiel"}, data_dir=data_dir
    )
    session = Session()
    print(f"profile            : {profile.name}")
    print(f"trace repetitions  : {profile.trace_repetitions}")
    print(f"training iterations: {profile.training_iterations}")

    start = time.time()
    print("collecting traces (lock-stepped simulators, one per N_TX value) ...")
    trace = pipeline.collect_traces(runner=session.runner)
    print(f"  {len(trace)} trace records in {time.time() - start:.0f}s")

    start = time.time()
    print("training the DQN offline on the trace-replay environment ...")
    agent, _ = pipeline.train()
    print(f"  done in {time.time() - start:.0f}s; weights cached at {pipeline.model_path()}")

    quantized = agent.quantize()
    report = quantized.report()
    print(f"quantized DQN      : {report.flash_kb:.2f} kB flash, {report.ram_bytes} B RAM, "
          f"~{report.estimated_runtime_ms:.0f} ms per inference on a 4 MHz MSP430")

    print("evaluating the greedy policy on a held-out episode (calm -> 30% jamming -> calm) ...")
    environment = SimulationEnvironment(
        topology=pipeline.topology,
        feature_config=pipeline.feature_config,
        episodes=[((4, 0.0), (8, 0.30), (4, 0.0))],
        seed=99,
    )
    state = environment.reset()
    done = False
    while not done:
        action = quantized.predict_action(state)
        step = environment.step(action)
        state = step.state
        done = step.done
        print(
            f"  N_TX={step.info['n_tx']}  reliability={step.info['reliability']:.3f}  "
            f"radio-on={step.info['radio_on_ms']:.2f} ms  "
            f"(interference {step.info['interference_ratio'] * 100:.0f}%)"
        )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "fast")
