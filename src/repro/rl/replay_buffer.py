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

    :meth:`sample` draws one batch's slot indices and gathers its
    transitions.  A caller that knows the buffer's length at each of its
    next samples (a training loop pushing once per step) may instead
    :meth:`draw` the indices of a block of them in one generator call
    and :meth:`gather` each batch when its step comes: the draws and the
    generator's state equal those of per-step :meth:`sample` calls, and
    :meth:`undraw` takes back the rows of a block left unused.  Nothing
    else may sample the buffer while such a block is in use.

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
        # Generator state before the last draw, and that draw's bounds
        # and batch size (see undraw).
        self._last_draw: Optional[Tuple[dict, np.ndarray, int]] = None
        self.clear()

    def __len__(self) -> int:
        return self._size

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

        Returns arrays ``(states, actions, rewards, next_states, dones)``:
        the :meth:`gather` of one ``integers(0, len, batch_size)`` draw.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not self._size:
            raise ValueError("cannot sample from an empty buffer")
        return self.gather(self._rng.integers(0, self._size, size=batch_size))

    def draw(self, sizes: np.ndarray, batch_size: int) -> np.ndarray:
        """Slot indices of ``len(sizes)`` batches in one generator call.

        Row k is uniform over the first ``sizes[k]`` slots: it equals the
        ``integers(0, sizes[k], batch_size)`` draw of a per-batch call,
        and the generator ends in the same state as after those calls.
        The bounds may exceed the current length: they are the lengths
        the buffer will have when each batch is gathered.
        """
        self._last_draw = (self._rng.bit_generator.state, sizes, batch_size)
        return self._rng.integers(0, sizes[:, None], size=(len(sizes), batch_size))

    def undraw(self, used: int) -> None:
        """Leave the generator as if the last :meth:`draw` had drawn only
        its first ``used`` rows (a caller that stops early)."""
        state, sizes, batch_size = self._last_draw
        self._rng.bit_generator.state = state
        self.draw(sizes[:used], batch_size)

    def gather(
        self, indices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The transitions in slots ``indices``, as :meth:`sample` returns them."""
        return (
            self._rows.take(self._state_rows[indices], axis=0),
            self._actions[indices],
            self._rewards[indices],
            self._rows.take(self._next_rows[indices], axis=0),
            self._dones[indices],
        )
