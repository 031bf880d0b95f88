"""Wireless link model.

Links between nodes are modelled with a log-distance path-loss model
plus log-normal shadowing, mapped through a simplified CC2420 PRR
(packet-reception-rate) curve.  Concurrent synchronous transmissions
from multiple Glossy forwarders combine through the capture effect /
constructive interference: the reception probability is the complement
of all individual links failing, slightly boosted when transmitters are
tightly synchronized (identical packets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.net.topology import Topology

#: Centre and slope of the logistic PRR curve approximating the CC2420
#: waterfall region (PRR rises from ~0 to ~1 over roughly 6 dB around an
#: SNR of 4 dB).  :meth:`LinkModel.prr_matrix` evaluates it; the per-pair
#: reference in ``tests/reference_flood.py`` reads the same constants.
PRR_SNR_MIDPOINT_DB = 4.0
PRR_SNR_SLOPE_PER_DB = 1.2


@dataclass
class LinkModel:
    """Distance-based link quality model.

    Parameters
    ----------
    topology:
        Deployment whose links are being modelled.
    tx_power_dbm:
        Transmission power (the paper transmits at 0 dBm).
    path_loss_exponent:
        Log-distance path-loss exponent; indoor office deployments
        typically sit between 2.5 and 3.5.
    shadowing_std_db:
        Standard deviation of the per-link log-normal shadowing term.
        Shadowing is drawn once per link (static obstacles).
    noise_floor_dbm:
        Receiver noise floor.
    seed:
        Seed for the per-link shadowing draw, making link qualities
        reproducible for a given topology.
    """

    topology: Topology
    tx_power_dbm: float = 0.0
    path_loss_exponent: float = 3.0
    reference_loss_db: float = 40.0
    shadowing_std_db: float = 3.0
    noise_floor_dbm: float = -94.0
    capture_boost: float = 0.15
    seed: Optional[int] = None
    #: Per-link shadowing (dB) as an ``(N, N)`` symmetric matrix in
    #: :attr:`node_index` order, zero on the diagonal.
    _shadowing: np.ndarray = field(init=False, repr=False, compare=False)
    _overrides: Dict[Tuple[int, int], float] = field(default_factory=dict, repr=False)
    _prr_matrix: Optional[np.ndarray] = field(default=None, repr=False)
    _failure_matrix: Optional[np.ndarray] = field(default=None, repr=False)
    _node_index: Dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        rng = np.random.default_rng(self.seed)
        ids = self.topology.node_ids
        self._node_index = {node: index for index, node in enumerate(ids)}
        # One draw per unordered pair, row by row over the upper
        # triangle.  Shadowing is symmetric: the same obstacles sit on
        # both directions of a link.
        n = len(ids)
        upper = np.triu_indices(n, k=1)
        self._shadowing = np.zeros((n, n))
        self._shadowing[upper] = rng.normal(0.0, self.shadowing_std_db, size=len(upper[0]))
        self._shadowing.T[upper] = self._shadowing[upper]

    @property
    def node_index(self) -> Dict[int, int]:
        """Mapping node id -> row/column index of the matrix APIs.

        Rows and columns of :meth:`prr_matrix` follow
        ``topology.node_ids`` (sorted) order.
        """
        return self._node_index

    def invalidate_caches(self) -> None:
        """Drop the cached PRR and failure matrices.

        Call after anything that changes link qualities; the next
        :meth:`prr_matrix` access recomputes from scratch.
        """
        self._prr_matrix = None
        self._failure_matrix = None

    def set_link_quality(self, sender: int, receiver: int, prr: float) -> None:
        """Override the PRR of a link, in both directions.

        Degrades or severs one link of an otherwise distance-derived
        medium (the lossy links the kernel and parity tests build on).
        The override invalidates the cached :meth:`prr_matrix`, so both
        engines see the new quality on their next flood.
        """
        if sender not in self._node_index or receiver not in self._node_index:
            raise ValueError("both link endpoints must be part of the topology")
        if sender == receiver:
            raise ValueError("a node has no link to itself")
        if not 0.0 <= prr <= 1.0:
            raise ValueError("prr must be in [0, 1]")
        self._overrides[(sender, receiver)] = prr
        self._overrides[(receiver, sender)] = prr
        self.invalidate_caches()

    def prr_matrix(self) -> np.ndarray:
        """Interference-free PRR of every directed link as an ``(N, N)`` matrix.

        Entry ``[i, j]`` is the packet reception rate of the link
        ``node_ids[i] -> node_ids[j]`` (see :attr:`node_index` for the
        id -> index mapping); ``tests/reference_flood.py`` computes the
        same values one link at a time, and the tests hold the two equal
        bit for bit.  The diagonal is zero: a node never receives its own transmission.
        The matrix is cached; callers must not mutate the returned
        array.  Mutating link qualities through :meth:`set_link_quality`
        (or calling :meth:`invalidate_caches`) drops the cache, so the
        next access reflects the new qualities.
        """
        if self._prr_matrix is None:
            ids = self.topology.node_ids
            coords = np.array([self.topology.positions[node] for node in ids], dtype=float)
            delta = coords[:, None, :] - coords[None, :, :]
            distance = np.hypot(delta[..., 0], delta[..., 1])
            path_loss = self.reference_loss_db + 10.0 * self.path_loss_exponent * np.log10(
                np.maximum(distance, 0.5)
            )
            rssi = self.tx_power_dbm - path_loss + self._shadowing
            snr = rssi - self.noise_floor_dbm
            prr = 1.0 / (
                1.0 + np.exp(-(snr - PRR_SNR_MIDPOINT_DB) * PRR_SNR_SLOPE_PER_DB)
            )
            prr[distance > self.topology.comm_range_m] = 0.0
            for (a, b), value in self._overrides.items():
                prr[self._node_index[a], self._node_index[b]] = value
            np.fill_diagonal(prr, 0.0)
            prr.setflags(write=False)
            self._prr_matrix = prr
            failure = 1.0 - prr
            failure.setflags(write=False)
            self._failure_matrix = failure
        return self._prr_matrix
