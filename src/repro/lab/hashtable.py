"""Open-addressing hash table for outlier deltas.

The paper stores SVDD's outlier triplets ``(row, column, delta)`` 'in a
hash table, where the key is the combination of ``row*M + column``'
(Section 4.2).  This module implements that table from scratch:
integer keys, float payloads, linear probing, incremental growth at a
bounded load factor, and tombstone-free deletion via backward-shift.

The table also reports its exact serialized size so the SVDD space
accounting can charge deltas against the storage budget honestly.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.exceptions import ConfigurationError

_EMPTY = -1
_MASK64 = (1 << 64) - 1


def _mix(key: int) -> int:
    """SplitMix64 finalizer — cheap, well-distributed integer hashing."""
    z = (key + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class OpenAddressingTable:
    """Int -> float hash map with linear probing.

    Args:
        initial_capacity: starting number of slots (rounded up to a
            power of two).
        max_load_factor: occupancy threshold that triggers growth.
    """

    def __init__(self, initial_capacity: int = 16, max_load_factor: float = 0.7) -> None:
        if initial_capacity < 1:
            raise ConfigurationError(
                f"initial_capacity must be >= 1, got {initial_capacity}"
            )
        if not 0.1 <= max_load_factor <= 0.95:
            raise ConfigurationError(
                f"max_load_factor must be in [0.1, 0.95], got {max_load_factor}"
            )
        capacity = 1
        while capacity < initial_capacity:
            capacity <<= 1
        self._keys = np.full(capacity, _EMPTY, dtype=np.int64)
        self._values = np.zeros(capacity, dtype=np.float64)
        self._size = 0
        self._max_load_factor = max_load_factor
        self._probe_count = 0

    @property
    def capacity(self) -> int:
        """Current number of slots."""
        return int(self._keys.shape[0])

    @property
    def probe_count(self) -> int:
        """Total slot inspections performed (for the Bloom-filter ablation)."""
        return self._probe_count

    def reset_probe_count(self) -> None:
        """Zero the probe counter."""
        self._probe_count = 0

    def __len__(self) -> int:
        return self._size

    def _slot(self, key: int) -> int:
        return _mix(key) & (self.capacity - 1)

    def _find(self, key: int) -> tuple[int, bool]:
        """Return ``(index, found)`` of key's slot or the insertion point."""
        mask = self.capacity - 1
        idx = self._slot(key)
        while True:
            self._probe_count += 1
            slot_key = self._keys[idx]
            if slot_key == _EMPTY:
                return idx, False
            if slot_key == key:
                return idx, True
            idx = (idx + 1) & mask

    def put(self, key: int, value: float) -> None:
        """Insert or overwrite the value for ``key``."""
        if key < 0:
            raise ConfigurationError(f"keys must be non-negative, got {key}")
        if (self._size + 1) / self.capacity > self._max_load_factor:
            self._grow()
        idx, found = self._find(key)
        self._keys[idx] = key
        self._values[idx] = value
        if not found:
            self._size += 1

    def get(self, key: int, default: float | None = None) -> float | None:
        """Return the value for ``key`` or ``default`` when absent."""
        idx, found = self._find(key)
        return float(self._values[idx]) if found else default

    def __contains__(self, key: int) -> bool:
        _, found = self._find(key)
        return found

    def remove(self, key: int) -> bool:
        """Delete ``key``; returns False if it was not present.

        Uses backward-shift deletion so lookups never slow down from
        tombstone accumulation.
        """
        idx, found = self._find(key)
        if not found:
            return False
        mask = self.capacity - 1
        self._keys[idx] = _EMPTY
        self._size -= 1
        # Re-seat any displaced keys in the probe chain after idx.
        nxt = (idx + 1) & mask
        while self._keys[nxt] != _EMPTY:
            key_to_move = int(self._keys[nxt])
            value_to_move = float(self._values[nxt])
            self._keys[nxt] = _EMPTY
            self._size -= 1
            self.put(key_to_move, value_to_move)
            nxt = (nxt + 1) & mask
        return True

    def items(self) -> Iterator[tuple[int, float]]:
        """Iterate ``(key, value)`` pairs in slot order."""
        for idx in range(self.capacity):
            if self._keys[idx] != _EMPTY:
                yield int(self._keys[idx]), float(self._values[idx])

    def _grow(self) -> None:
        old_keys = self._keys
        old_values = self._values
        self._keys = np.full(old_keys.shape[0] * 2, _EMPTY, dtype=np.int64)
        self._values = np.zeros(old_values.shape[0] * 2, dtype=np.float64)
        self._size = 0
        for idx in range(old_keys.shape[0]):
            if old_keys[idx] != _EMPTY:
                self.put(int(old_keys[idx]), float(old_values[idx]))

    def size_bytes(self) -> int:
        """In-memory footprint of the slot arrays."""
        return int(self._keys.nbytes + self._values.nbytes)
