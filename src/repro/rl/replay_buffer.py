"""Experience replay buffer for DQN training."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: Length of the first allocation of every array.
_INITIAL_ROWS = 1024


def _grown(size: int, cap: int) -> int:
    """Next length of an array holding ``size`` entries: 25 % more, at most ``cap``."""
    return min(max(size + size // 4, _INITIAL_ROWS), cap)


class ReplayBuffer:
    """Fixed-capacity circular experience buffer backed by NumPy arrays.

    Transitions live in slot arrays (two state-row indices, action,
    reward, done); states live once each in a shared float64 row store.
    A training loop pushes step t's ``next_state`` again as step t+1's
    ``state``: when a pushed ``state`` *is* the previous ``next_state``
    object, the transition reuses that row instead of copying it.  The
    buffer keeps the values an array had when it was pushed, so callers
    must not modify a pushed array in place and push it again.

    Row ids grow monotonically and map onto a ring of ``2 * capacity``
    rows: the live transitions reference at most two new rows each, so
    a row is only overwritten once no live transition references it.
    Every array starts small and grows in place by 25 % up to its cap
    (``ndarray.resize`` reallocates without a second copy alive, which
    keeps the peak resident memory near what the entries need); the
    buffer never hands out views of its arrays, so the resize may skip
    NumPy's reference check, which fails under a profiler hook.

    Parameters
    ----------
    capacity:
        Maximum number of transitions retained; older transitions are
        overwritten once the buffer is full.
    seed:
        Seed of the sampling generator.
    """

    def __init__(self, capacity: int = 50_000, seed: Optional[int] = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self.clear()

    def __len__(self) -> int:
        return self._size

    @property
    def is_full(self) -> bool:
        """True once the buffer has reached its capacity."""
        return self._size >= self.capacity

    def clear(self) -> None:
        """Drop every stored transition."""
        self._size = 0
        self._cursor = 0
        self._next_row_id = 0
        self._last_next_state: Optional[np.ndarray] = None
        self._last_next_row = 0
        self._rows: Optional[np.ndarray] = None
        self._state_rows = np.empty(0, dtype=np.int64)
        self._next_rows = np.empty(0, dtype=np.int64)
        self._actions = np.empty(0, dtype=np.int64)
        self._rewards = np.empty(0, dtype=float)
        self._dones = np.empty(0, dtype=bool)

    def _store_row(self, values) -> int:
        """Copy one state into the row store and return its row index."""
        ring = 2 * self.capacity
        row = self._next_row_id % ring
        self._next_row_id += 1
        if self._rows is None:
            self._rows = np.empty((_grown(0, ring), *np.shape(values)))
        elif row == len(self._rows):
            self._rows.resize((_grown(row, ring), *self._rows.shape[1:]), refcheck=False)
        self._rows[row] = values
        return row

    def _grow_slots(self) -> None:
        size = _grown(self._size, self.capacity)
        for name in ("_state_rows", "_next_rows", "_actions", "_rewards", "_dones"):
            getattr(self, name).resize(size, refcheck=False)

    def push(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool = False,
    ) -> None:
        """Insert a transition, evicting the oldest one if necessary."""
        if state is self._last_next_state:
            state_row = self._last_next_row
        else:
            state_row = self._store_row(state)
        next_row = self._store_row(next_state)
        self._last_next_state = next_state
        self._last_next_row = next_row
        if self._size < self.capacity:
            slot = self._size
            if slot == len(self._actions):
                self._grow_slots()
            self._size += 1
        else:
            slot = self._cursor
            self._cursor = (self._cursor + 1) % self.capacity
        self._state_rows[slot] = state_row
        self._next_rows[slot] = next_row
        self._actions[slot] = action
        self._rewards[slot] = reward
        self._dones[slot] = done

    def sample(
        self, batch_size: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sample a batch of transitions uniformly at random.

        Returns arrays ``(states, actions, rewards, next_states, dones)``.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not self._size:
            raise ValueError("cannot sample from an empty buffer")
        indices = self._rng.integers(0, self._size, size=batch_size)
        return (
            self._rows[self._state_rows[indices]],
            self._actions[indices],
            self._rewards[indices],
            self._rows[self._next_rows[indices]],
            self._dones[indices],
        )
