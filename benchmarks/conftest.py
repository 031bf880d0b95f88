"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's
evaluation (§V) and prints the corresponding rows/series.  The runs are
scaled down (fewer rounds / repetitions than the multi-hour testbed
experiments) so the whole harness finishes in minutes; the *shape* of
the results — who wins, by roughly what factor, where crossovers fall —
is what they reproduce.
"""

from __future__ import annotations

import pytest

from repro.experiments.training import load_pretrained_agent
from repro.net.topology import dcube_testbed, kiel_testbed


@pytest.fixture(scope="session")
def pretrained_agent():
    """The DQN shipped with the repository (trained on the 18-node testbed)."""
    return load_pretrained_agent(allow_training=False)


@pytest.fixture(scope="session")
def pretrained_network(pretrained_agent):
    """The trained policy network (floating point; protocols quantize it)."""
    return pretrained_agent.online


@pytest.fixture(scope="session")
def kiel():
    """The 18-node office testbed of Fig. 4a."""
    return kiel_testbed()


@pytest.fixture(scope="session")
def dcube():
    """The 48-node D-Cube-like deployment of §V-E."""
    return dcube_testbed()


@pytest.fixture(scope="session")
def fig4b_data_dir(tmp_path_factory):
    """Trace and model caches of the two Fig. 4b sweeps, built per session.

    The caches are build outputs keyed by configuration only, not by
    code, so every session rebuilds them in a temporary directory
    instead of reusing whatever an earlier run left in the package's
    data directory.  The two sweeps share the trace set and the
    K=10, M=2 model.
    """
    return tmp_path_factory.mktemp("fig4b-data")
