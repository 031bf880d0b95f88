"""Output correctness: canonical SHA-256 digests of shard outputs.

A speed-only change must leave every simulated statistic identical, so
each shard's output is canonicalized (dataclasses and mappings to
key-sorted objects, arrays to lists, floats at full precision) and
hashed.  ``reference_digests.json`` holds the digests of every shard for
the default workload seed and one held-out seed; a shard whose digest
differs counts as failed.  Other seeds have no reference: their digests
are printed, and only the agreement between the jobs of one run is
checked.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference_digests.json"
DEFAULT_SEED = 0
HELD_OUT_SEED = 7


def canonical(value: Any) -> Any:
    """A JSON-able form of ``value`` that is equal for equal outputs.

    Mapping keys become strings; :func:`digest` sorts them.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, np.ndarray):
        return canonical(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    return value


def digest(value: Any) -> str:
    """SHA-256 of the canonical JSON of ``value`` (``repr`` floats: exact)."""
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_references() -> Dict[str, Dict[str, List[str]]]:
    if not REFERENCE_PATH.is_file():
        return {}
    with REFERENCE_PATH.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def reference_for(workload: str, seed: int) -> Optional[List[str]]:
    """The stored shard digests of ``workload`` at ``seed``, if any."""
    return load_references().get(workload, {}).get(str(seed))


def mismatches(digests: Sequence[Optional[str]], expected: Sequence[str]) -> List[int]:
    """Indices of shards that failed (``None``) or differ from ``expected``."""
    if len(digests) != len(expected):
        return list(range(max(len(digests), len(expected))))
    return [i for i, (got, want) in enumerate(zip(digests, expected)) if got != want]


def write_reference(workload: str, seed: int, digests: Sequence[str]) -> None:
    """Store ``digests`` as the reference of ``workload`` at ``seed``."""
    if any(d is None for d in digests):
        raise ValueError("cannot record a reference from a job with failed shards")
    references = load_references()
    references.setdefault(workload, {})[str(seed)] = list(digests)
    text = json.dumps(references, indent=1, sort_keys=True) + "\n"
    REFERENCE_PATH.write_text(text, encoding="utf-8")
