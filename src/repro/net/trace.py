"""Trace records for offline DQN training.

The paper trains its DQN on traces collected over multiple days on the
physical testbed: for each decision point the round's aggregated
feedback (reliability and radio-on time of the worst nodes), the
retransmission parameter in force, and the outcome of both the
increase and decrease alternative executed back to back under the same
controlled jamming.

Since the physical testbed is replaced by :class:`NetworkSimulator`,
traces are recorded from scripted simulation episodes
(:class:`repro.rl.trace_env.TraceRecorder`) and stored/replayed through
the structures in this module.  A :class:`TraceRecord` holds its
per-node values as NumPy arrays aligned with its ``node_ids`` (no
per-node dicts); traces serialize to plain JSON as parallel lists, so
they can be shipped with the repository or regenerated at will.  Trace
files of the older ``{str(id): value}`` format still load: they are
converted to arrays when read.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

import numpy as np


def atomic_write_json(path: Path, payload: Dict) -> None:
    """Write ``payload`` as JSON via write-then-rename.

    Concurrent writers of the same file (e.g. parallel workers sharing
    an artifact cache) never leave a torn file behind; the last
    completed write wins.  Shared by the trace cache and the parallel
    runner's result cache.  The text is encoded in one ``json.dumps``
    call, which runs the C encoder (``json.dump`` runs the pure-Python
    one); the bytes are the same.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload))
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


class TraceRecord:
    """One decision point recorded from a (simulated) deployment.

    Per-node observables are NumPy arrays aligned with :attr:`node_ids`.

    Attributes
    ----------
    round_index:
        Round counter at which the record was taken.
    n_tx:
        Retransmission parameter in force during the round.
    node_ids:
        Nodes the record covers, as a tuple.
    reliability_array:
        Per-node reliability observed during the round.
    radio_on_array:
        Per-node per-slot radio-on time observed during the round.
    interference_ratio:
        Ground-truth interference duty cycle active during the round
        (only used for analysis and sanity checks, never fed to the agent).
    had_losses:
        Whether at least one scheduled packet was missed network-wide.
    """

    __slots__ = (
        "round_index",
        "n_tx",
        "node_ids",
        "reliability_array",
        "radio_on_array",
        "interference_ratio",
        "had_losses",
    )

    def __init__(
        self,
        round_index: int,
        n_tx: int,
        node_ids: Sequence[int],
        reliability_array: np.ndarray,
        radio_on_array: np.ndarray,
        interference_ratio: float = 0.0,
        had_losses: bool = False,
    ) -> None:
        self.round_index = round_index
        self.n_tx = n_tx
        self.node_ids = tuple(node_ids)
        self.reliability_array = reliability_array
        self.radio_on_array = radio_on_array
        self.interference_ratio = interference_ratio
        self.had_losses = had_losses

    def worst_nodes(self, k: int) -> List[int]:
        """Return the ``k`` node ids with lowest reliability (ties by id).

        ``k`` larger than the node count returns every node; a NaN
        reliability (a churned node that dropped out mid-round) ranks as
        worst-possible, so dropped-out nodes surface first.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if not self.node_ids:
            return []
        ids = np.asarray(self.node_ids)
        values = np.where(np.isnan(self.reliability_array), -np.inf, self.reliability_array)
        order = np.lexsort((ids, values))
        return ids[order][:k].tolist()


@dataclass
class TraceSet:
    """An ordered collection of trace records plus episode boundaries."""

    records: List[TraceRecord] = field(default_factory=list)
    #: Indices into ``records`` where a new episode starts.
    episode_starts: List[int] = field(default_factory=list)
    metadata: Dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self.records[index]

    def start_episode(self) -> None:
        """Mark the next appended record as the start of a new episode."""
        self.episode_starts.append(len(self.records))

    def append(self, record: TraceRecord) -> None:
        """Append a record to the current episode."""
        if not self.episode_starts:
            self.episode_starts.append(0)
        self.records.append(record)

    def episodes(self) -> List[List[TraceRecord]]:
        """Split the records into per-episode lists."""
        if not self.records:
            return []
        starts = sorted(set(self.episode_starts)) or [0]
        episodes: List[List[TraceRecord]] = []
        for i, start in enumerate(starts):
            end = starts[i + 1] if i + 1 < len(starts) else len(self.records)
            if start < end:
                episodes.append(self.records[start:end])
        return episodes

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Serialize the trace set to plain Python structures.

        The per-node observables are written as parallel arrays
        (``node_ids`` + value lists) instead of ``{str(id): value}``
        maps: the arrays round-trip without the per-entry key
        stringify/parse the dict format needed.
        """
        return {
            "metadata": dict(self.metadata),
            "episode_starts": list(self.episode_starts),
            "records": [
                {
                    "round_index": r.round_index,
                    "n_tx": r.n_tx,
                    "node_ids": list(r.node_ids),
                    "reliabilities": r.reliability_array.tolist(),
                    "radio_on_ms": r.radio_on_array.tolist(),
                    "interference_ratio": r.interference_ratio,
                    "had_losses": r.had_losses,
                }
                for r in self.records
            ],
        }

    @staticmethod
    def _record_from_entry(entry: Dict) -> TraceRecord:
        """Rebuild one record; accepts the array format and the legacy
        ``{str(id): value}`` dict format of earlier trace files (whose
        key order becomes the record's node order)."""
        reliabilities = entry["reliabilities"]
        radio_on = entry["radio_on_ms"]
        if isinstance(reliabilities, dict):
            node_ids = [int(key) for key in reliabilities]
            radio_on = [radio_on[key] for key in reliabilities]
            reliabilities = list(reliabilities.values())
        else:
            node_ids = [int(node) for node in entry["node_ids"]]
        return TraceRecord(
            round_index=entry["round_index"],
            n_tx=entry["n_tx"],
            node_ids=node_ids,
            reliability_array=np.asarray(reliabilities, dtype=float),
            radio_on_array=np.asarray(radio_on, dtype=float),
            interference_ratio=float(entry.get("interference_ratio", 0.0)),
            had_losses=bool(entry.get("had_losses", False)),
        )

    @classmethod
    def from_dict(cls, data: Dict) -> "TraceSet":
        """Rebuild a trace set from :meth:`to_dict` output."""
        records = [cls._record_from_entry(entry) for entry in data.get("records", [])]
        return cls(
            records=records,
            episode_starts=list(data.get("episode_starts", [0] if records else [])),
            metadata={str(k): str(v) for k, v in data.get("metadata", {}).items()},
        )

    def save(self, path: Path) -> None:
        """Write the trace set to a JSON file (atomically, parallel-safe)."""
        atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: Path) -> "TraceSet":
        """Read a trace set from a JSON file."""
        with Path(path).open("r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))
