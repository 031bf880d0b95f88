"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import grid_topology, kiel_testbed
from repro.rl.qnetwork import QNetwork

#: Environment variable that enables the ``slow`` tests (CI sets it in
#: its own step; tier-1 skips them).
RUN_SLOW_ENV = "REPRO_RUN_SLOW"


def pytest_configure(config):
    config.addinivalue_line(
        "markers", f"slow: rebuild checks of tens of seconds, run only with {RUN_SLOW_ENV}=1"
    )


def pytest_collection_modifyitems(config, items):
    if os.environ.get(RUN_SLOW_ENV) == "1":
        return
    skip = pytest.mark.skip(reason=f"slow test: set {RUN_SLOW_ENV}=1 to run it")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def kiel():
    """The 18-node testbed topology (session-scoped, it is immutable)."""
    return kiel_testbed()


@pytest.fixture()
def small_topology():
    """A small 3x3 grid, cheap enough for per-test simulations."""
    return grid_topology(rows=3, cols=3, spacing_m=6.0, comm_range_m=9.0)


@pytest.fixture()
def small_simulator(small_topology):
    """A deterministic simulator over the small grid."""
    return NetworkSimulator(
        small_topology,
        SimulatorConfig(seed=7, channel_hopping=False, round_period_s=1.0),
    )


@pytest.fixture()
def untrained_network():
    """A randomly initialised 31-30-3 Q-network (no training needed)."""
    return QNetwork((31, 30, 3), seed=0)


@pytest.fixture()
def rng():
    """A seeded random generator."""
    return np.random.default_rng(1234)
