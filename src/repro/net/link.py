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

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.net.topology import Topology

#: Centre and slope of the logistic PRR curve approximating the CC2420
#: waterfall region (PRR rises from ~0 to ~1 over roughly 6 dB around an
#: SNR of 4 dB).  Shared by the scalar path and the cached PRR matrix —
#: tune the curve here, not in either implementation.
PRR_SNR_MIDPOINT_DB = 4.0
PRR_SNR_SLOPE_PER_DB = 1.2


@dataclass(frozen=True)
class LinkQuality:
    """Static quality of a directed link: PRR in the absence of interference."""

    prr: float
    distance_m: float
    rssi_dbm: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.prr <= 1.0:
            raise ValueError("prr must be in [0, 1]")


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
    _shadowing: Dict[Tuple[int, int], float] = field(default_factory=dict, repr=False)
    _cache: Dict[Tuple[int, int], LinkQuality] = field(default_factory=dict, repr=False)
    _overrides: Dict[Tuple[int, int], float] = field(default_factory=dict, repr=False)
    _prr_matrix: Optional[np.ndarray] = field(default=None, repr=False)
    _failure_matrix: Optional[np.ndarray] = field(default=None, repr=False)
    _node_index: Dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        rng = np.random.default_rng(self.seed)
        ids = self.topology.node_ids
        self._node_index = {node: index for index, node in enumerate(ids)}
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                shadow = float(rng.normal(0.0, self.shadowing_std_db))
                # Shadowing is symmetric: the same obstacles sit on both
                # directions of a link.
                self._shadowing[(a, b)] = shadow
                self._shadowing[(b, a)] = shadow

    @property
    def node_index(self) -> Dict[int, int]:
        """Mapping node id -> row/column index of the matrix APIs.

        Rows and columns of :meth:`prr_matrix` follow
        ``topology.node_ids`` (sorted) order.
        """
        return self._node_index

    def rssi_dbm(self, sender: int, receiver: int) -> float:
        """Received signal strength of ``sender`` at ``receiver``."""
        distance = max(self.topology.distance(sender, receiver), 0.5)
        path_loss = self.reference_loss_db + 10.0 * self.path_loss_exponent * math.log10(distance)
        shadow = self._shadowing.get((sender, receiver), 0.0)
        return self.tx_power_dbm - path_loss + shadow

    def prr_from_snr(self, snr_db: float) -> float:
        """Map an SNR to a packet reception rate with a logistic PRR curve.

        The curve approximates the CC2420 waterfall region (see
        :data:`PRR_SNR_MIDPOINT_DB` / :data:`PRR_SNR_SLOPE_PER_DB`).
        """
        return 1.0 / (
            1.0 + math.exp(-(snr_db - PRR_SNR_MIDPOINT_DB) * PRR_SNR_SLOPE_PER_DB)
        )

    def invalidate_caches(self) -> None:
        """Drop every derived-quality cache (per-link and matrix).

        Call after anything that changes link qualities; the next
        :meth:`link` / :meth:`prr_matrix` access recomputes from scratch.
        """
        self._cache.clear()
        self._prr_matrix = None
        self._failure_matrix = None

    def set_link_quality(
        self, sender: int, receiver: int, prr: float, symmetric: bool = True
    ) -> None:
        """Override the PRR of a link (node churn / mobile obstacles).

        Scenario scripts use this to degrade or sever individual links at
        runtime.  The override invalidates the cached per-link qualities
        *and* the cached :meth:`prr_matrix`, so both engines see the new
        quality on their next flood.  Pass ``symmetric=False`` to touch
        only the ``sender -> receiver`` direction.
        """
        if sender not in self._node_index or receiver not in self._node_index:
            raise ValueError("both link endpoints must be part of the topology")
        if sender == receiver:
            raise ValueError("a node has no link to itself")
        if not 0.0 <= prr <= 1.0:
            raise ValueError("prr must be in [0, 1]")
        self._overrides[(sender, receiver)] = prr
        if symmetric:
            self._overrides[(receiver, sender)] = prr
        self.invalidate_caches()

    def clear_link_quality_override(
        self, sender: int, receiver: int, symmetric: bool = True
    ) -> None:
        """Remove the :meth:`set_link_quality` override of one link.

        Restores the base (distance-derived) quality of exactly this
        link, leaving every other override in place — what scenario
        scripts with overlapping outages need.  Missing overrides are
        ignored, so restoring twice is harmless.
        """
        removed = self._overrides.pop((sender, receiver), None) is not None
        if symmetric:
            removed = (
                self._overrides.pop((receiver, sender), None) is not None or removed
            )
        if removed:
            self.invalidate_caches()

    def clear_link_quality_overrides(self) -> None:
        """Remove every :meth:`set_link_quality` override."""
        if self._overrides:
            self._overrides.clear()
            self.invalidate_caches()

    def link(self, sender: int, receiver: int) -> LinkQuality:
        """Return the static quality of the directed link sender -> receiver."""
        key = (sender, receiver)
        if key in self._cache:
            return self._cache[key]
        distance = self.topology.distance(sender, receiver)
        if key in self._overrides:
            quality = LinkQuality(
                prr=self._overrides[key],
                distance_m=distance,
                rssi_dbm=self.rssi_dbm(sender, receiver),
            )
        elif distance > self.topology.comm_range_m:
            quality = LinkQuality(prr=0.0, distance_m=distance, rssi_dbm=-float("inf"))
        else:
            rssi = self.rssi_dbm(sender, receiver)
            snr = rssi - self.noise_floor_dbm
            prr = self.prr_from_snr(snr)
            quality = LinkQuality(prr=prr, distance_m=distance, rssi_dbm=rssi)
        self._cache[key] = quality
        return quality

    def prr(self, sender: int, receiver: int) -> float:
        """Packet reception rate of the directed link sender -> receiver."""
        return self.link(sender, receiver).prr

    def reception_probability(
        self,
        transmitters: Iterable[int],
        receiver: int,
        interference_penalty: float = 0.0,
    ) -> float:
        """Probability that ``receiver`` decodes a synchronized transmission.

        ``transmitters`` are Glossy forwarders sending the *same* packet in
        the same phase.  Constructive interference / the capture effect
        means that having several synchronized transmitters helps: the
        reception fails only if every individual link fails, and a small
        ``capture_boost`` rewards redundancy.  ``interference_penalty``
        in [0, 1] scales down the success probability to account for a
        colliding interference burst (1.0 means fully jammed).
        """
        if not 0.0 <= interference_penalty <= 1.0:
            raise ValueError("interference_penalty must be in [0, 1]")
        prrs = [self.prr(tx, receiver) for tx in transmitters if tx != receiver]
        if not prrs:
            return 0.0
        failure = 1.0
        for prr in prrs:
            failure *= 1.0 - prr
        success = 1.0 - failure
        if len(prrs) > 1 and success > 0.0:
            success = min(1.0, success * (1.0 + self.capture_boost))
        return success * (1.0 - interference_penalty)

    def prr_matrix(self) -> np.ndarray:
        """Interference-free PRR of every directed link as an ``(N, N)`` matrix.

        Entry ``[i, j]`` is the packet reception rate of the link
        ``node_ids[i] -> node_ids[j]`` (see :attr:`node_index` for the
        id -> index mapping) and matches :meth:`prr` element-wise.  The
        diagonal is zero: a node never receives its own transmission.
        The matrix is cached; callers must not mutate the returned
        array.  Mutating link qualities through :meth:`set_link_quality`
        (or calling :meth:`invalidate_caches`) drops the cache, so the
        next access reflects the new qualities.
        """
        if self._prr_matrix is None:
            ids = self.topology.node_ids
            n = len(ids)
            coords = np.array([self.topology.positions[node] for node in ids], dtype=float)
            delta = coords[:, None, :] - coords[None, :, :]
            distance = np.hypot(delta[..., 0], delta[..., 1])
            shadow = np.zeros((n, n), dtype=float)
            for (a, b), value in self._shadowing.items():
                shadow[self._node_index[a], self._node_index[b]] = value
            path_loss = self.reference_loss_db + 10.0 * self.path_loss_exponent * np.log10(
                np.maximum(distance, 0.5)
            )
            rssi = self.tx_power_dbm - path_loss + shadow
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

    def reception_probabilities(
        self,
        transmitter_mask: np.ndarray,
        interference_penalty: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`reception_probability` for every node at once.

        Parameters
        ----------
        transmitter_mask:
            Boolean vector of length ``N`` (in :meth:`prr_matrix` index
            order) flagging the synchronized Glossy forwarders of the
            phase.
        interference_penalty:
            Optional per-receiver penalty vector in [0, 1].

        Returns
        -------
        np.ndarray
            Per-node success probability; entry ``i`` equals
            ``reception_probability(transmitters, node_ids[i], penalty_i)``.
        """
        matrix = self.prr_matrix()
        mask = np.asarray(transmitter_mask, dtype=bool)
        if mask.shape != (matrix.shape[0],):
            raise ValueError("transmitter_mask must have one entry per node")
        tx_indices = np.flatnonzero(mask)
        num_tx = len(tx_indices)
        if num_tx == 0:
            return np.zeros(matrix.shape[0])
        if num_tx == 1:
            # Single transmitter: the link PRR is the success probability
            # (the zero diagonal yields 0 for the transmitter itself).
            success = matrix[tx_indices[0]].copy()
        else:
            # A reception fails only if every individual (non-self) link
            # fails; the zero diagonal makes self-links a no-op factor.
            failure = self._failure_matrix[tx_indices].prod(axis=0)
            success = 1.0 - failure
            # Redundancy reward: a receiver hearing >1 synchronized
            # transmitters (itself excluded) gets the capture boost.
            boosted = np.minimum(1.0, success * (1.0 + self.capture_boost))
            if num_tx == 2:
                # A transmitting receiver only has one *other* transmitter.
                boosted[tx_indices] = success[tx_indices]
            success = boosted
        if interference_penalty is not None:
            penalty = np.asarray(interference_penalty, dtype=float)
            if penalty.shape != success.shape:
                raise ValueError("interference_penalty must have one entry per node")
            if np.any((penalty < 0.0) | (penalty > 1.0)):
                raise ValueError("interference_penalty must be in [0, 1]")
            success *= 1.0 - penalty
        return success

    def usable_links(self, min_prr: float = 0.1) -> Dict[Tuple[int, int], LinkQuality]:
        """All directed links whose interference-free PRR exceeds ``min_prr``."""
        links: Dict[Tuple[int, int], LinkQuality] = {}
        for a in self.topology.node_ids:
            for b in self.topology.node_ids:
                if a == b:
                    continue
                quality = self.link(a, b)
                if quality.prr >= min_prr:
                    links[(a, b)] = quality
        return links
