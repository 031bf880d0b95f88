"""Tests for deployment topologies."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.net.topology import (
    Topology,
    dcube_testbed,
    grid_topology,
    kiel_testbed,
    random_topology,
)


class TestKielTestbed:
    def test_has_18_nodes(self, kiel):
        assert kiel.num_nodes == 18

    def test_is_three_hops(self, kiel):
        assert kiel.network_diameter_hops() == 3

    def test_is_connected(self, kiel):
        assert kiel.is_connected()

    def test_has_two_jammers(self, kiel):
        assert len(kiel.jammers) == 2

    def test_coordinator_is_node_zero(self, kiel):
        assert kiel.coordinator == 0

    def test_spans_roughly_23_metres(self, kiel):
        xs = [p[0] for p in kiel.positions.values()]
        ys = [p[1] for p in kiel.positions.values()]
        assert max(xs) - min(xs) <= 23.0
        assert max(ys) - min(ys) <= 23.0


class TestDCubeTestbed:
    def test_has_48_nodes(self):
        topo = dcube_testbed()
        assert topo.num_nodes == 48

    def test_is_connected_and_multihop(self):
        topo = dcube_testbed()
        assert topo.is_connected()
        assert topo.network_diameter_hops() >= 3

    def test_deterministic_for_same_seed(self):
        assert dcube_testbed(seed=202).positions == dcube_testbed(seed=202).positions


class TestGenerators:
    def test_grid_size(self):
        topo = grid_topology(3, 4, spacing_m=5.0)
        assert topo.num_nodes == 12

    def test_grid_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            grid_topology(0, 4)

    def test_random_topology_is_connected(self):
        topo = random_topology(num_nodes=15, seed=3)
        assert topo.is_connected()

    def test_random_topology_reproducible(self):
        a = random_topology(num_nodes=10, seed=5)
        b = random_topology(num_nodes=10, seed=5)
        assert a.positions == b.positions

    def test_random_topology_impossible_raises(self):
        with pytest.raises(RuntimeError):
            random_topology(num_nodes=30, area_m=500.0, comm_range_m=2.0, max_attempts=3)


class TestTopologyQueries:
    def test_distance_symmetric(self, kiel):
        assert kiel.distance(1, 5) == pytest.approx(kiel.distance(5, 1))

    def test_neighbors_within_range(self, kiel):
        for neighbor in kiel.neighbors(0):
            assert kiel.distance(0, neighbor) <= kiel.comm_range_m

    def test_hop_distances_start_at_zero(self, kiel):
        hops = kiel.hop_distances()
        assert hops[kiel.coordinator] == 0
        assert all(h >= 0 for h in hops.values())

    def test_unknown_coordinator_rejected(self):
        with pytest.raises(ValueError):
            Topology(positions={0: (0.0, 0.0)}, coordinator=5)

    def test_nonpositive_range_rejected(self):
        with pytest.raises(ValueError):
            Topology(positions={0: (0.0, 0.0)}, coordinator=0, comm_range_m=0.0)


class TestHopTables:
    """Literal hop tables from the coordinator, in node-id order."""

    def test_kiel_testbed(self, kiel):
        hops = kiel.hop_distances()
        assert list(hops.values()) == [0, 1, 2, 2, 3, 3, 2, 1, 1, 1, 1, 1, 2, 3, 3, 2, 2, 2]
        assert kiel.network_diameter_hops() == 3

    def test_dcube_testbed(self):
        topo = dcube_testbed()
        # The seed-202 draw needs one range nudge to be connected.
        assert topo.comm_range_m == 14.0
        assert list(topo.hop_distances().values()) == [
            0, 1, 2, 5, 3, 4, 1, 2, 3, 5, 4, 6, 1, 1, 3, 6, 3, 4, 2, 2, 3, 6, 4, 4,
            1, 2, 2, 5, 4, 5, 2, 1, 3, 6, 5, 5, 1, 1, 2, 5, 5, 4, 1, 1, 3, 6, 5, 4,
        ]
        assert topo.network_diameter_hops() == 6

    def test_grid(self):
        # 6 m spacing under a 10 m range: diagonal neighbours are one hop.
        topo = grid_topology(4, 5)
        assert list(topo.hop_distances().values()) == [
            0, 1, 2, 3, 4,
            1, 1, 2, 3, 4,
            2, 2, 2, 3, 4,
            3, 3, 3, 3, 4,
        ]
        assert topo.network_diameter_hops() == 4

    def test_other_source(self):
        topo = grid_topology(4, 5)
        assert list(topo.hop_distances(19).values()) == [
            4, 3, 3, 3, 3,
            4, 3, 2, 2, 2,
            4, 3, 2, 1, 1,
            4, 3, 2, 1, 0,
        ]

    def test_out_of_range_node_reads_minus_one(self):
        topo = Topology(
            positions={0: (0.0, 0.0), 1: (8.0, 0.0), 2: (16.0, 0.0), 3: (100.0, 100.0)},
            coordinator=0,
        )
        assert topo.hop_distances() == {0: 0, 1: 1, 2: 2, 3: -1}
        assert topo.network_diameter_hops() == 2
        assert not topo.is_connected()


def test_package_imports_load_no_networkx():
    """Importing the package and building both testbeds loads no networkx."""
    code = (
        "import sys\n"
        "import repro, repro.api, repro.experiments\n"
        "from repro.net.topology import dcube_testbed, kiel_testbed\n"
        "kiel_testbed(); dcube_testbed()\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
