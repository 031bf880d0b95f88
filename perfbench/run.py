"""Repository benchmark: closed-loop jobs through ``repro.api.Session``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload kiel_sweep --seed 0 --seconds 20 --trace 0

One client submits one job at a time through a ``Session`` with two
worker processes and no result cache, and waits for it to finish.  A
warm-up job runs first; jobs then repeat for ``--seconds`` and the
medians over them are reported.

* ``--trace 0`` reports the end-to-end metrics: ``wall_s`` (host seconds
  per job, pool start-up included), ``rounds_per_s`` (simulated rounds
  per host second of the simulation phase), ``setup_s`` (median over
  five fresh processes of the time from process start until the first
  job can be submitted) and ``peak_rss_mb`` (the larger of the client's
  and its children's peak resident set).
* ``--trace 1`` alternates untraced and traced jobs and reports the
  per-layer metrics of :mod:`tracing`, ``rl.train_iters_per_s`` and
  ``trace.overhead_s`` (median traced minus median untraced wall time).

Every job's shard outputs are digested and checked (:mod:`check`);
``failed`` in the result line counts failed or mismatched shards.  The
last line of standard output is the JSON result; the lines before it
give provenance, every metric with its unit and sample count, and the
simulated reliability and radio-on time of each protocol (for readers,
not checked).  Spans and the full report go to ``.perfbench_out/``.

``--write-reference`` stores the run's shard digests as the reference
of its workload and seed in ``perfbench/reference_digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bootstrap
import workloads

OUT_DIR = bootstrap.ROOT / ".perfbench_out"
SETUP_PROBES = 5
MIN_JOBS = 3


def measure_setup(probes: int = SETUP_PROBES) -> list:
    """Seconds from process start until a fresh client is ready, per probe."""
    samples = []
    for _ in range(probes):
        start = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(Path(bootstrap.__file__).resolve())],
            stdout=subprocess.PIPE,
            text=True,
            cwd=bootstrap.ROOT,
        )
        try:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
        finally:
            probe.stdout.close()
            code = probe.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
        samples.append(elapsed)
    return samples


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def provenance(seed: int, ignored: list) -> dict:
    import numpy

    commit, dirty = "unknown (not a git checkout)", None
    if (bootstrap.ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(bootstrap.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(["git", "-C", str(bootstrap.ROOT), "status", "--porcelain"],
                                capture_output=True, text=True)
        if head.returncode == 0:
            commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "commit": commit,
        "dirty": dirty,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workers": bootstrap.WORKERS,
        "engine": "vectorized (SweepSpec.engine); DCubeSpec/TraceEpisodeSpec: "
                  "SimulatorConfig default vectorized, Crystal GlossyFlood default scalar",
        "blas_threads": 1,
        "seed": seed,
        "ignored_environment": ignored,
    }


def run_jobs(job, seconds: float, instrumentation) -> tuple:
    """Warm up, then run jobs for ``seconds``; return (warm-up, untraced, traced).

    With ``instrumentation``, untraced and traced jobs alternate.
    """
    warmup = job()
    untraced, traced = [], []
    start = time.perf_counter()
    while (
        time.perf_counter() - start < seconds
        or len(untraced) < MIN_JOBS
        or (instrumentation is not None and len(traced) < MIN_JOBS)
    ):
        if instrumentation is not None and len(traced) < len(untraced):
            with instrumentation:
                output = job()
            traced.append((output, instrumentation.last_job))
        else:
            untraced.append(job())
    return warmup, untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    try:
        ignored = bootstrap.pin_environment()
    except bootstrap.MissingSource as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if ignored:
        print(f"perfbench: ignoring {', '.join(ignored)}", file=sys.stderr)

    import check
    import tracing

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        setup_samples = measure_setup() if args.trace == 0 else []
        session, payload = bootstrap.setup()
        job = workloads.WORKLOADS[args.workload](session, payload, args.seed, workdir)
        instrumentation = tracing.Instrumentation() if args.trace else None
        warmup, untraced, traced = run_jobs(job, args.seconds, instrumentation)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # --- correctness -------------------------------------------------
    outputs = [warmup] + untraced + [output for output, _ in traced]
    digests = [[check.digest(s) if s is not None else None for s in o.shards] for o in outputs]
    expected = check.reference_for(args.workload, args.seed)
    checked_against = "reference" if expected is not None else "warm-up job"
    if expected is None:
        expected = digests[0]
    attempted = sum(len(d) for d in digests)
    failed = sum(len(check.mismatches(d, expected)) for d in digests)
    problems = []
    if failed:
        problems.append(f"{failed} shard outputs failed or differ from the {checked_against}")

    # --- metrics -----------------------------------------------------
    metrics = {}  # name -> (value, unit, sample count)
    samples = {
        "wall_s": [o.wall_s for o in untraced],
        "rounds_per_s": [o.rounds / o.sim_s for o in untraced],
        "train_iters_per_s": [o.train_iterations / o.train_s for o in untraced if o.train_s],
        "setup_s": setup_samples,
    }
    if args.trace == 0:
        for name, unit in (("wall_s", "s"), ("rounds_per_s", "1/s"), ("setup_s", "s")):
            metrics[name] = (statistics.median(samples[name]), unit, len(samples[name]))
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    else:
        accountings = []
        for _, job_trace in traced:
            try:
                accountings.append(tracing.account(job_trace))
            except ValueError as error:
                problems.append(f"accounting: {error}")
        if accountings:
            metrics.update(tracing.layer_metrics(accountings))
            rates = [
                o.train_iterations / acc.busy["rl.train"][0] if "rl.train" in acc.busy else 0.0
                for (o, _), acc in zip(traced, accountings)
            ]
            metrics["rl.train_iters_per_s"] = (statistics.median(rates), "1/s", len(rates))
            overhead = (statistics.median(o.wall_s for o, _ in traced)
                        - statistics.median(o.wall_s for o in untraced))
            metrics["trace.overhead_s"] = (overhead, "s", len(traced) + len(untraced))

    # --- report ------------------------------------------------------
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed, ignored),
        "jobs": {"warmup": 1, "untraced": len(untraced), "traced": len(traced)},
        "samples": samples,
        "metrics": {name: {"value": v, "unit": u, "samples": n}
                    for name, (v, u, n) in metrics.items()},
        "simulated": warmup.summary,
        "checked_against": checked_against,
        "shard_digests": digests[0],
        "problems": problems,
    }
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    for name, (value, unit, count) in metrics.items():
        print(f"metric {name} = {value!r} {unit} (n={count})")
    for name, values in samples.items():
        if values:
            print(f"samples {name}: n={len(values)} min {min(values):.4g} "
                  f"median {statistics.median(values):.4g} max {max(values):.4g}")
    for group, values in warmup.summary.items():
        print(f"simulated {group}: reliability {values['reliability']:.4f}, "
              f"radio-on {values['radio_on_ms']:.3f} ms")
    print(f"correctness: {attempted - failed}/{attempted} shard outputs "
          f"match the {checked_against}")
    if checked_against != "reference":
        print("digests " + json.dumps(digests[0]))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if traced:
        spans = [{"client": t.client, "shards": t.shards} for _, t in traced]
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(spans))

    if args.write_reference:
        if any(d != digests[0] for d in digests):
            print("perfbench: jobs disagree; no reference written", file=sys.stderr)
            return 1
        check.write_reference(args.workload, args.seed, digests[0])

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
