"""``repro-bench`` — cached, parallel grid runs from the command line.

Console-script front end for the figure harnesses.  Every subcommand
builds declarative :mod:`~repro.experiments.spec` grids and executes
them through a :class:`~repro.api.Session` (worker fan-out + on-disk
content-hash result cache), so re-running a sweep after editing one
grid point only recomputes the changed tasks.

Examples
--------
::

    repro-bench sweep --ratios 0 0.15 0.35 --runs 2
    repro-bench dcube --rounds 150
    repro-bench features --dimension input_nodes --values 1 5 10 18
    repro-bench scenarios --family mobile_jammer --protocols lwb dimmer pid
    repro-bench run --spec my_experiment.json

The ``run`` subcommand executes *any* registered spec family from a
JSON file — a single spec object, a list of them, or ``{"specs":
[...]}``; a spec may carry a ``"grid"`` entry that cross-products
fields (``{"family": "sweep", ..., "grid": {"ratios": [0.0, 0.15],
"seeds": [0, 1]}}``).  Dimmer specs that leave ``network`` unset get
the shipped pretrained policy injected by the session.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.api import DEFAULT_CACHE_DIR, Session
from repro.experiments.reporting import format_table
from repro.experiments.resilience import GridInterrupted, RetryPolicy
from repro.experiments.runner import FAILURE_KEY, RunnerError
from repro.experiments.spec import load_specs
from repro.net import FLOOD_ENGINES


def _session(args: argparse.Namespace, network: Any = None) -> Session:
    cache_dir = None if args.no_cache else Path(args.cache_dir)
    retries = getattr(args, "retries", None)
    return Session(
        max_workers=args.workers,
        cache_dir=cache_dir,
        engine=getattr(args, "session_engine", None),
        network=network,
        retry_policy=RetryPolicy(max_attempts=retries + 1) if retries is not None else None,
        shard_timeout_s=getattr(args, "shard_timeout", None),
    )


def _load_network():
    from repro.experiments.training import load_pretrained_agent

    return load_pretrained_agent(allow_training=False).online


def _print_stats(session: Session) -> None:
    stats = session.stats
    line = (
        f"[runner] executed={stats.executed} "
        f"cache_hits={stats.cache_hits} cache_misses={stats.cache_misses}"
    )
    # Fault counters only when something actually happened — the happy
    # path stays as quiet as it always was.
    faults = {
        "retries": stats.retries,
        "timeouts": stats.timeouts,
        "quarantined": stats.quarantined,
        "corrupt_results": stats.corrupt_results,
        "pool_restarts": stats.pool_restarts,
    }
    extras = " ".join(f"{name}={count}" for name, count in faults.items() if count)
    print(f"{line} {extras}" if extras else line)


def _emit_output(
    args: argparse.Namespace,
    command: str,
    payload: Dict[str, Any],
    session: Session,
    failed_shards: Sequence[Dict[str, Any]] = (),
) -> int:
    """Write the run's JSON artifact, print its path, return the exit code.

    Every subcommand records its results (or its failure) to a JSON
    file — ``--output`` or ``repro_bench_<command>.json`` — and always
    prints the path.  A grid with failed shards exits nonzero and lists
    the shards in the artifact; the runner itself never caches
    failures, so a re-run recomputes exactly the failed points.
    """
    path = Path(args.output) if args.output else Path(f"repro_bench_{command}.json")
    session.write_artifact(path, command, payload, failed_shards)
    print(f"[output] {path}")
    if failed_shards:
        print(
            f"[error] {len(failed_shards)} failed shard(s); see {path}",
            file=sys.stderr,
        )
        return 1
    return 0


def _runner_failure(error: RunnerError) -> List[Dict[str, Any]]:
    """Failed-shard entries for a grid aborted by :class:`RunnerError`."""
    return [{"task": error.task.describe(), "error": repr(error.cause)}]


def cmd_sweep(args: argparse.Namespace) -> int:
    """Fig. 5: protocol x interference-ratio sweep."""
    session = _session(args, network=_load_network())
    try:
        sweep = session.sweep(
            ratios=tuple(args.ratios),
            rounds_per_run=args.rounds,
            runs=args.runs,
            seed=args.seed,
        )
    except RunnerError as error:
        return _emit_output(args, "sweep", {}, session, _runner_failure(error))
    rows = []
    points: Dict[str, Dict[str, Any]] = {}
    for ratio in sweep.ratios():
        row = [f"{ratio * 100:.0f}%"]
        for protocol in ("lwb", "dimmer", "pid"):
            point = sweep.point(protocol, ratio)
            row.append(
                f"{point.metrics.reliability:.3f} / {point.metrics.radio_on_ms:.2f}ms"
            )
            points.setdefault(protocol, {})[f"{ratio}"] = point.metrics.as_dict()
        rows.append(row)
    print(format_table(
        ["interference", "LWB", "Dimmer", "PID"],
        rows,
        title="Fig. 5: reliability / radio-on per interference ratio",
    ))
    _print_stats(session)
    return _emit_output(args, "sweep", {"points": points}, session)


def cmd_dcube(args: argparse.Namespace) -> int:
    """Fig. 7: D-Cube comparison grid."""
    session = _session(args, network=_load_network())
    try:
        comparison = session.dcube(
            num_rounds=args.rounds,
            num_sources=args.sources,
            seed=args.seed,
        )
    except RunnerError as error:
        return _emit_output(args, "dcube", {}, session, _runner_failure(error))
    rows = []
    points: Dict[str, Dict[str, Any]] = {}
    for level in comparison.levels():
        row = [f"level {level}"]
        for protocol in ("lwb", "dimmer", "crystal"):
            result = comparison.get(protocol, level)
            row.append(f"{result.reliability:.3f} / {result.energy_j:.1f}J")
            points.setdefault(protocol, {})[f"{level}"] = {
                "reliability": result.reliability,
                "energy_j": result.energy_j,
            }
        rows.append(row)
    print(format_table(
        ["scenario", "LWB", "Dimmer", "Crystal"],
        rows,
        title="Fig. 7: D-Cube reliability / energy",
    ))
    _print_stats(session)
    return _emit_output(args, "dcube", {"points": points}, session)


def cmd_features(args: argparse.Namespace) -> int:
    """Fig. 4b: DQN feature sweeps (trains one model per value)."""
    from repro.experiments.training import TrainingProfile, default_data_dir

    session = _session(args)
    profile = TrainingProfile(
        name="bench",
        trace_repetitions=args.trace_repetitions,
        training_iterations=args.iterations,
        anneal_steps=max(1, args.iterations // 2),
    )
    try:
        result = session.feature_sweep(
            args.dimension,
            values=tuple(args.values),
            models_per_value=args.models,
            profile=profile,
            evaluation_repeats=1,
            data_dir=default_data_dir(),
            seed=args.seed,
        )
    except RunnerError as error:
        return _emit_output(args, "features", {}, session, _runner_failure(error))
    rows = [
        [point.value, point.reliability, point.radio_on_ms, point.dqn_size_kb]
        for point in result.points
    ]
    print(format_table(
        [args.dimension, "reliability", "radio-on [ms]", "DQN size [kB]"],
        rows,
        title=f"Fig. 4b: {args.dimension} sweep",
    ))
    _print_stats(session)
    return _emit_output(
        args,
        "features",
        {
            "dimension": args.dimension,
            "points": [
                {
                    "value": point.value,
                    "reliability": point.reliability,
                    "radio_on_ms": point.radio_on_ms,
                    "dqn_size_kb": point.dqn_size_kb,
                }
                for point in result.points
            ],
        },
        session,
    )


def cmd_scenarios(args: argparse.Namespace) -> int:
    """Dimmer vs baselines over the mobile-jammer / node-churn families."""
    session = _session(args, network=_load_network())
    family = session.scenario_family(
        args.family,
        protocols=args.protocols,
        runs=args.runs,
        rounds=args.rounds,
        engine=args.engine,
        seed=args.seed,
    )
    rows = []
    for protocol in args.protocols:
        entry = family.protocols.get(protocol)
        if entry is None:
            rows.append([protocol, "failed", "failed", "failed"])
        else:
            rows.append(
                [protocol, entry["reliability"], entry["radio_on_ms"], entry["energy_j"]]
            )
    print(format_table(
        ["protocol", "reliability", "radio-on [ms]", "energy [J]"],
        rows,
        title=f"{args.family} scenario: Dimmer vs baselines",
    ))
    _print_stats(session)
    return _emit_output(
        args,
        "scenarios",
        {"family": args.family, "engine": args.engine, "protocols": family.protocols},
        session,
        family.failed,
    )


def cmd_run(args: argparse.Namespace) -> int:
    """Execute any registered spec family from a JSON spec file."""
    try:
        specs = load_specs(Path(args.spec))
    except (OSError, TypeError, ValueError) as error:
        print(f"[error] {error}", file=sys.stderr)
        return 2
    if args.session_engine:
        from dataclasses import fields as spec_fields

        skipped = sorted({
            spec.family
            for spec in specs
            if "engine" not in {f.name for f in spec_fields(spec)}
        })
        if skipped:
            print(
                f"[warn] --engine {args.session_engine} has no effect on "
                f"famil{'ies' if len(skipped) > 1 else 'y'} without an "
                f"engine field: {', '.join(skipped)}",
                file=sys.stderr,
            )
    needs_network = any(
        getattr(spec, "protocol", None) == "dimmer" and "network" not in spec.params()
        for spec in specs
    )
    session = _session(args, network=_load_network() if needs_network else None)
    # Report the *prepared* specs: after session defaults (engine,
    # network) are injected, so the printed keys and the artifact's
    # spec payloads match what actually executed and got cached.
    specs = [session.prepare(spec) for spec in specs]
    entries = session.run_entries(specs, collect_errors=True)
    failed = [entry for entry in entries if entry.get(FAILURE_KEY)]
    rows = []
    for spec, entry in zip(specs, entries):
        status = "failed" if entry.get(FAILURE_KEY) else "ok"
        rows.append([spec.describe(), spec.family, spec.key()[:10], status])
    print(format_table(
        ["spec", "family", "key", "status"],
        rows,
        title=f"spec file: {args.spec}",
    ))
    _print_stats(session)
    return _emit_output(
        args,
        "run",
        {
            "spec_file": str(args.spec),
            "specs": [spec.to_payload() for spec in specs],
            "results": entries,
        },
        session,
        failed,
    )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: all cores; 1 = inline)",
    )
    common.add_argument(
        "--cache-dir", default=str(DEFAULT_CACHE_DIR),
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    common.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk result cache"
    )
    common.add_argument("--seed", type=int, default=0, help="base seed of the grid")
    common.add_argument(
        "--output", default=None,
        help="path of the JSON results artifact "
             "(default: repro_bench_<command>.json; always printed)",
    )
    common.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retries per shard after the first attempt for transient "
             "failures (timeouts, dead workers, corrupt results); "
             "default: 2, with deterministic exponential backoff",
    )
    common.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="per-shard wall-clock timeout; an overrunning shard is "
             "cancelled (its worker pool rebuilt) and retried",
    )

    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Cached, parallel benchmark grids for the Dimmer reproduction.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sweep = commands.add_parser("sweep", help="Fig. 5 interference sweep", parents=[common])
    sweep.add_argument("--ratios", type=float, nargs="+",
                       default=[0.0, 0.05, 0.15, 0.25, 0.35])
    sweep.add_argument("--rounds", type=int, default=75)
    sweep.add_argument("--runs", type=int, default=3)
    sweep.set_defaults(func=cmd_sweep)

    dcube = commands.add_parser("dcube", help="Fig. 7 D-Cube comparison", parents=[common])
    dcube.add_argument("--rounds", type=int, default=200)
    dcube.add_argument("--sources", type=int, default=5)
    dcube.set_defaults(func=cmd_dcube)

    features = commands.add_parser(
        "features", help="Fig. 4b feature sweeps", parents=[common]
    )
    features.add_argument("--dimension", choices=("input_nodes", "history"),
                          default="input_nodes")
    features.add_argument("--values", type=int, nargs="+", default=[1, 5, 10, 18])
    features.add_argument("--models", type=int, default=1)
    features.add_argument("--iterations", type=int, default=4000)
    features.add_argument("--trace-repetitions", type=int, default=3)
    features.set_defaults(func=cmd_features)

    scenarios = commands.add_parser(
        "scenarios",
        help="Dimmer vs baselines under mobile-jammer / node-churn",
        parents=[common],
    )
    scenarios.add_argument("--family", choices=("mobile_jammer", "node_churn"),
                           default="mobile_jammer")
    scenarios.add_argument("--protocols", nargs="+", default=["lwb", "dimmer", "pid"])
    scenarios.add_argument("--rounds", type=int, default=40)
    scenarios.add_argument("--runs", type=int, default=3)
    scenarios.add_argument(
        "--engine", choices=FLOOD_ENGINES, default="vectorized",
        help="flood engine for the scenario simulators",
    )
    scenarios.set_defaults(func=cmd_scenarios)

    run = commands.add_parser(
        "run",
        help="execute any registered spec family from a JSON spec file",
        parents=[common],
    )
    run.add_argument(
        "--spec", required=True,
        help="JSON file holding a spec object, a list of them, or "
             "{'specs': [...]}; objects may carry a 'grid' entry for "
             "cross-product expansion",
    )
    run.add_argument(
        "--engine", dest="session_engine", default=None,
        choices=FLOOD_ENGINES,
        help="session-wide flood engine applied to specs that leave "
             "'engine' unset",
    )
    run.set_defaults(func=cmd_run)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-bench`` console script."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GridInterrupted as stop:
        # Completed shards were flushed to the cache before the drain
        # finished; rerunning the same command serves them from it and
        # computes only the rest (a --no-cache run starts over).
        print(
            f"[interrupted] {stop.completed}/{stop.total} shards completed and "
            f"flushed; rerun to resume",
            file=sys.stderr,
        )
        return 130


if __name__ == "__main__":
    sys.exit(main())
