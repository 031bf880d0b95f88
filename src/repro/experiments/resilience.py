"""Fault tolerance for the parallel execution layer.

The paper's subject is staying reliable under adversity; this module
gives the execution substrate the same property.  It supplies the
pieces :class:`~repro.experiments.runner.ParallelRunner` assembles into
a crash-safe grid run:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic* jitter (derived from :func:`stable_seed`, so a rerun
  schedules the exact same delays), plus the transient-vs-permanent
  exception classification: a timeout, a killed worker or a corrupt
  result is worth retrying; a bad spec or an unknown experiment family
  fails fast.
* **Result integrity envelopes** — :func:`seal_result` wraps every
  worker result (and every on-disk cache entry) in a SHA-256 checksum;
  :func:`open_result` verifies it and raises :class:`CorruptResult` on
  a mismatch or a missing seal, which the runner turns into a
  quarantine (cache) or a retry (in-flight result).
* :class:`GridInterrupted` — the graceful-interruption signal: SIGINT /
  SIGTERM during a grid run drains the in-flight shards, flushes them
  to the cache, and raises this (a ``KeyboardInterrupt`` subclass)
  carrying the partial-completion accounting.  Rerunning the grid
  serves the flushed shards from the cache; without a cache there is
  nothing to resume from.

The seeded fault-injection rig that exercises these properties, and
the end-to-end smoke built on it, live in the test suite, not in this
package.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.experiments.runner import _canonical, stable_seed


# ----------------------------------------------------------------------
# Failure taxonomy
# ----------------------------------------------------------------------
class TransientError(RuntimeError):
    """Base class of failures worth retrying (the shard itself is fine)."""

    transient = True


class CorruptResult(TransientError):
    """A result (in flight or cached) failed checksum verification."""


class ShardTimeout(TransientError):
    """A shard exceeded the per-shard wall-clock timeout."""


class BrokenWorker(TransientError):
    """The worker process executing a shard died (SIGKILL / OOM / segfault)."""


class GridInterrupted(KeyboardInterrupt):
    """A grid run was interrupted (SIGINT/SIGTERM) and drained gracefully.

    Completed shards were flushed to the cache before this was raised,
    so a rerun with the same cache directory serves them as cache hits
    and computes only the rest.  Subclasses ``KeyboardInterrupt`` so
    callers that only handle ^C keep their semantics.
    """

    def __init__(self, completed: int = 0, total: int = 0) -> None:
        super().__init__(f"grid interrupted after {completed}/{total} shards")
        self.completed = completed
        self.total = total


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry schedule for transient shard failures.

    ``max_attempts`` counts total tries (1 = no retries).  Backoff is
    exponential with +-50% jitter derived from :func:`stable_seed` of the
    task key and the attempt number — reruns of the same grid schedule
    the exact same delays, keeping fault-injected runs reproducible.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.1
    backoff_factor: float = 2.0
    max_delay_s: float = 2.0
    #: Cap on pool rebuilds (broken-pool / timeout recoveries) per
    #: ``run()`` call; ``None`` derives a generous bound from the grid
    #: size.  A backstop against a pathological kill-loop, not a tuning
    #: knob.
    max_pool_restarts: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A policy that never retries (single attempt, fail fast)."""
        return cls(max_attempts=1)

    def delay_s(self, key: str, attempt: int) -> float:
        """Deterministic backoff before retry number ``attempt`` (>= 1)."""
        base = min(
            self.max_delay_s,
            self.base_delay_s * self.backoff_factor ** max(0, attempt - 1),
        )
        jitter = stable_seed("backoff", key, attempt) / float(2**31)  # [0, 1)
        return base * (0.5 + jitter)

    def is_transient(self, error: BaseException) -> bool:
        """Transient failures are retried; permanent ones fail fast.

        Transient: anything flagged ``transient`` (the taxonomy above),
        a broken worker pool, timeouts and torn IPC streams.  Permanent:
        everything else — an unknown experiment family (``KeyError``), a
        bad spec (``TypeError``/``ValueError``) or a deterministic bug
        in the experiment would fail identically on every retry.
        """
        from concurrent.futures.process import BrokenProcessPool

        if getattr(error, "transient", False):
            return True
        return isinstance(
            error, (BrokenProcessPool, TimeoutError, EOFError, BrokenPipeError)
        )

    def restart_budget(self, shards: int) -> int:
        """Effective pool-restart cap for a run of ``shards`` pending shards."""
        if self.max_pool_restarts is not None:
            return self.max_pool_restarts
        return max(8, 4 * shards)


# ----------------------------------------------------------------------
# Result integrity envelopes
# ----------------------------------------------------------------------
#: Marker key of a sealed result envelope (worker results and cache files).
SEAL_KEY = "__sealed__"


def result_checksum(payload: Any) -> str:
    """Content checksum of a JSON-able result payload."""
    canonical = json.dumps(_canonical(payload), sort_keys=True).encode()
    return hashlib.sha256(canonical).hexdigest()


def seal_result(payload: Any) -> Dict[str, Any]:
    """Wrap ``payload`` in a checksummed envelope."""
    return {SEAL_KEY: 1, "sha256": result_checksum(payload), "payload": payload}


def open_result(envelope: Any, context: str = "") -> Any:
    """Verify and unwrap a sealed envelope.

    Raises :class:`CorruptResult` on a checksum mismatch and on anything
    without the seal: workers and the cache always seal, so an unsealed
    value is a foreign or hand-edited file, never a result.
    """
    where = f" ({context})" if context else ""
    if not (isinstance(envelope, dict) and envelope.get(SEAL_KEY)):
        raise CorruptResult(f"result is not sealed{where}")
    payload = envelope.get("payload")
    if envelope.get("sha256") != result_checksum(payload):
        raise CorruptResult(f"result checksum mismatch{where}")
    return payload
