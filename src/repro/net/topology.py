"""Deployment topologies.

The paper evaluates Dimmer on two deployments:

* an 18-node, 3-hop testbed spanning 23 x 23 m located in offices and
  lab rooms, with two additional TelosB jammers (Fig. 4a), and
* the public 48-node D-Cube testbed whose layout and interferer
  positions are unknown to the protocol under test (§V-E).

Since the physical testbeds are not available, this module recreates
both as coordinate layouts with comparable hop diameters, plus generic
generators (grid and random-geometric) for testing and for exploring
other deployments.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

Position = Tuple[float, float]


@dataclass
class Topology:
    """A deployment: node identifiers, positions and the coordinator.

    Parameters
    ----------
    positions:
        Mapping from node id to (x, y) coordinates in metres.
    coordinator:
        Node id of the LWB/Dimmer coordinator (host).
    jammers:
        Positions of interference sources physically present in the
        deployment (e.g. the two TelosB jammers of the 18-node testbed).
    comm_range_m:
        Nominal communication range used to derive the connectivity
        graph; links longer than this are considered unusable, links
        shorter have a distance-dependent packet reception rate (see
        :class:`repro.net.link.LinkModel`).
    name:
        Human-readable deployment name.
    """

    positions: Dict[int, Position]
    coordinator: int
    jammers: Sequence[Position] = field(default_factory=tuple)
    comm_range_m: float = 10.0
    name: str = "topology"

    def __post_init__(self) -> None:
        if self.coordinator not in self.positions:
            raise ValueError(f"coordinator {self.coordinator} is not part of the topology")
        if self.comm_range_m <= 0:
            raise ValueError("comm_range_m must be positive")

    @property
    def node_ids(self) -> List[int]:
        """Sorted list of node identifiers."""
        return sorted(self.positions)

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the deployment."""
        return len(self.positions)

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance in metres between nodes ``a`` and ``b``."""
        ax, ay = self.positions[a]
        bx, by = self.positions[b]
        return math.hypot(ax - bx, ay - by)

    def distance_to_point(self, node: int, point: Position) -> float:
        """Euclidean distance from ``node`` to an arbitrary ``point``."""
        nx_, ny_ = self.positions[node]
        px, py = point
        return math.hypot(nx_ - px, ny_ - py)

    def neighbors(self, node: int) -> List[int]:
        """Nodes within communication range of ``node``."""
        return sorted(
            other
            for other in self.node_ids
            if other != node and self.distance(node, other) <= self.comm_range_m
        )

    def hop_distances(self, source: Optional[int] = None) -> Dict[int, int]:
        """Hop distance from ``source`` (default: coordinator) to every node.

        Unreachable nodes are assigned a hop distance of ``-1``.
        """
        origin = self.coordinator if source is None else source
        lengths = {origin: 0}
        frontier = deque([origin])
        while frontier:
            node = frontier.popleft()
            for neighbor in self.neighbors(node):
                if neighbor not in lengths:
                    lengths[neighbor] = lengths[node] + 1
                    frontier.append(neighbor)
        return {node: lengths.get(node, -1) for node in self.node_ids}

    def network_diameter_hops(self) -> int:
        """Maximum hop distance from the coordinator to any reachable node."""
        hops = [h for h in self.hop_distances().values() if h >= 0]
        return max(hops) if hops else 0

    def is_connected(self) -> bool:
        """True when every node can reach the coordinator over the graph."""
        return all(h >= 0 for h in self.hop_distances().values())


def grid_topology(
    rows: int,
    cols: int,
    spacing_m: float = 6.0,
    comm_range_m: float = 10.0,
    coordinator: Optional[int] = None,
    name: str = "grid",
) -> Topology:
    """Regular grid of ``rows`` x ``cols`` nodes spaced ``spacing_m`` apart."""
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    positions: Dict[int, Position] = {}
    node_id = 0
    for r in range(rows):
        for c in range(cols):
            positions[node_id] = (c * spacing_m, r * spacing_m)
            node_id += 1
    host = coordinator if coordinator is not None else 0
    return Topology(positions=positions, coordinator=host, comm_range_m=comm_range_m, name=name)


def random_topology(
    num_nodes: int,
    area_m: float = 40.0,
    comm_range_m: float = 12.0,
    seed: Optional[int] = None,
    coordinator: Optional[int] = None,
    name: str = "random",
    max_attempts: int = 200,
) -> Topology:
    """Random geometric topology guaranteed to be connected.

    Node positions are drawn uniformly at random in an ``area_m`` x
    ``area_m`` square; the draw is repeated until the connectivity graph
    is connected (up to ``max_attempts`` times).
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        coords = rng.uniform(0.0, area_m, size=(num_nodes, 2))
        positions = {i: (float(coords[i, 0]), float(coords[i, 1])) for i in range(num_nodes)}
        host = coordinator if coordinator is not None else 0
        topo = Topology(positions=positions, coordinator=host, comm_range_m=comm_range_m, name=name)
        if topo.is_connected():
            return topo
    raise RuntimeError(
        f"failed to draw a connected topology of {num_nodes} nodes in {max_attempts} attempts; "
        "increase comm_range_m or reduce the area"
    )


def kiel_testbed(comm_range_m: float = 9.0) -> Topology:
    """18-node, 3-hop office deployment of Fig. 4a (23 x 23 m).

    Node 0 is the coordinator, placed roughly at the centre-left of the
    floor as in the paper's figure.  Two jammer positions reproduce the
    controlled 802.15.4 interference sources; the nearest jammer
    moderately perturbs the coordinator.
    """
    positions: Dict[int, Position] = {
        0: (6.0, 12.0),    # coordinator (C), moderately affected by jammer 1
        1: (2.0, 20.0),
        2: (7.0, 21.0),
        3: (13.0, 22.0),
        4: (19.0, 21.0),
        5: (22.0, 16.0),
        6: (16.0, 17.0),
        7: (11.0, 16.0),
        8: (3.0, 15.0),
        9: (1.0, 8.0),
        10: (6.0, 5.0),
        11: (12.0, 8.0),
        12: (17.0, 10.0),
        13: (22.0, 8.0),
        14: (21.0, 2.0),
        15: (15.0, 2.0),
        16: (9.0, 1.0),
        17: (2.0, 1.0),
    }
    jammers: Tuple[Position, ...] = ((9.0, 14.0), (18.0, 4.0))
    return Topology(
        positions=positions,
        coordinator=0,
        jammers=jammers,
        comm_range_m=comm_range_m,
        name="kiel-18",
    )


def dcube_testbed(seed: int = 202, comm_range_m: float = 13.0) -> Topology:
    """48-node deployment mimicking the public D-Cube testbed (§V-E).

    The real D-Cube layout is unknown to the protocol under evaluation;
    we therefore generate a dense, multi-hop random-geometric layout
    over a larger area with a distinct seed, with node 0 standing in for
    D-Cube's coordinator (device id 202 in the paper).  Jammers are
    spread across the deployment to emulate the testbed's distributed
    WiFi interferers.
    """
    rng = np.random.default_rng(seed)
    # Cluster-structured layout: D-Cube spans several rooms/floors, so
    # draw nodes around a handful of cluster centres to obtain a 4-6 hop
    # network instead of a uniformly dense blob.
    centers = [(8.0, 8.0), (28.0, 10.0), (48.0, 8.0), (12.0, 30.0), (32.0, 32.0), (50.0, 30.0)]
    positions: Dict[int, Position] = {}
    for node_id in range(48):
        cx, cy = centers[node_id % len(centers)]
        x = float(np.clip(cx + rng.normal(0.0, 5.0), 0.0, 60.0))
        y = float(np.clip(cy + rng.normal(0.0, 5.0), 0.0, 40.0))
        positions[node_id] = (x, y)
    jammers: Tuple[Position, ...] = ((8.0, 8.0), (28.0, 10.0), (48.0, 8.0), (12.0, 30.0), (32.0, 32.0), (50.0, 30.0))
    topo = Topology(
        positions=positions,
        coordinator=0,
        jammers=jammers,
        comm_range_m=comm_range_m,
        name="dcube-48",
    )
    if not topo.is_connected():
        # Nudge the communication range up until the draw is connected; the
        # qualitative evaluation only needs a connected multi-hop network.
        for extra in (1.0, 2.0, 3.0, 5.0, 8.0):
            topo = Topology(
                positions=positions,
                coordinator=0,
                jammers=jammers,
                comm_range_m=comm_range_m + extra,
                name="dcube-48",
            )
            if topo.is_connected():
                break
    return topo
