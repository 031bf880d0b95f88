"""Pinned environment and set-up shared by the benchmark and its set-up probe.

Importing this module changes nothing.  :func:`pin_environment` must run
before NumPy or ``repro`` is imported: it removes every ``REPRO_*``
variable (``REPRO_ENGINE`` would flip the simulator's default engine,
``REPRO_FAULT_PLAN`` would inject faults, ``REPRO_BENCH_*`` steer the
pytest benchmarks), pins the BLAS thread pools to one thread so two
workers cannot oversubscribe two cores, and puts the checkout's ``src``
first on ``sys.path``.  Forked workers inherit all of it.

Run as a script, this file is the set-up probe: it pins the environment,
runs :func:`setup` and prints ``ready`` — the parent times the probe
from process start to that line (``setup_s``).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Worker processes per job (the closed-loop client's ``max_workers``).
WORKERS = 2

_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class MissingSource(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def pin_environment() -> list:
    """Pin the process environment; return the names of ignored variables."""
    ignored = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in ignored:
        del os.environ[name]
    for name in _THREAD_VARIABLES:
        os.environ[name] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSource(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return ignored


def setup():
    """Everything a client does before its first job can be submitted.

    Imports the library, loads the shipped policy and creates the
    :class:`~repro.api.Session` (no result cache).  Returns
    ``(session, network_payload)``.
    """
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise MissingSource(f"repro imported from {repro.__file__}, not from {SRC}")
    from repro.api import Session
    from repro.experiments.runner import network_payload
    from repro.experiments.training import load_pretrained_agent

    agent = load_pretrained_agent(allow_training=False)
    session = Session(max_workers=WORKERS, cache_dir=None)
    return session, network_payload(agent.online)


if __name__ == "__main__":
    pin_environment()
    setup()
    print("ready", flush=True)
