"""Bounded top-gamma priority queue.

Pass 2 of the SVDD construction (paper Figure 5) keeps, for each
candidate cutoff ``k``, the ``gamma_k`` cells with the largest
reconstruction error seen so far.  That is a classic bounded min-heap:
the root holds the *smallest* of the retained errors, so a new cell
either displaces the root (if its error is larger) or is discarded in
O(1).

The heap is implemented from scratch on a Python list to keep the
substrate self-contained and to allow the payload-carrying
:class:`HeapItem` ordering semantics we need (ties broken by insertion
order so results are deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.exceptions import ConfigurationError


@dataclass(frozen=True, order=True)
class HeapItem:
    """A prioritized payload: ordered by ``key``, then insertion ``serial``."""

    key: float
    serial: int
    payload: Any = field(compare=False, default=None)


class BoundedTopHeap:
    """Fixed-capacity container retaining the items with the largest keys.

    ``push`` is O(log capacity); when full, an incoming item only enters
    if its key exceeds the current minimum retained key (ties resolved
    by earliest insertion winning, so scans over a matrix give
    row-major-deterministic outlier sets).

    Args:
        capacity: maximum number of items retained. Zero is allowed and
            yields an always-empty heap (the ``gamma_k = 0`` case where
            all budget went to principal components).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ConfigurationError(f"capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._items: list[HeapItem] = []
        self._serial = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained items."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[HeapItem]:
        """Iterate retained items in unspecified (heap) order."""
        return iter(self._items)

    def min_key(self) -> float:
        """Smallest retained key; ``-inf`` when empty (everything qualifies)."""
        if not self._items:
            return float("-inf")
        return self._items[0].key

    def push(self, key: float, payload: Any = None) -> bool:
        """Offer an item; returns True if it was retained.

        An item with key equal to the current minimum does not displace
        it (first-seen wins), which keeps outlier selection stable under
        re-scans.
        """
        if self._capacity == 0:
            return False
        item = HeapItem(key=float(key), serial=self._serial, payload=payload)
        self._serial += 1
        if len(self._items) < self._capacity:
            self._items.append(item)
            self._sift_up(len(self._items) - 1)
            return True
        if item.key <= self._items[0].key:
            return False
        self._items[0] = item
        self._sift_down(0)
        return True

    def items_descending(self) -> list[HeapItem]:
        """All retained items, largest key first (stable by insertion)."""
        return sorted(self._items, key=lambda it: (-it.key, it.serial))

    def shrink_to(self, capacity: int) -> list[HeapItem]:
        """Reduce capacity, evicting the smallest items; returns evicted items.

        Used when the final ``k_opt`` choice leaves a smaller delta
        budget than the pass-2 working estimate.
        """
        if capacity < 0:
            raise ConfigurationError(f"capacity must be >= 0, got {capacity}")
        evicted: list[HeapItem] = []
        ordered = self.items_descending()
        keep, drop = ordered[:capacity], ordered[capacity:]
        evicted.extend(drop)
        self._capacity = capacity
        self._items = []
        for item in keep:
            self._items.append(item)
            self._sift_up(len(self._items) - 1)
        return evicted

    # -- heap mechanics ------------------------------------------------

    def _sift_up(self, idx: int) -> None:
        items = self._items
        while idx > 0:
            parent = (idx - 1) >> 1
            if items[idx] < items[parent]:
                items[idx], items[parent] = items[parent], items[idx]
                idx = parent
            else:
                return

    def _sift_down(self, idx: int) -> None:
        items = self._items
        size = len(items)
        while True:
            left = 2 * idx + 1
            right = left + 1
            smallest = idx
            if left < size and items[left] < items[smallest]:
                smallest = left
            if right < size and items[right] < items[smallest]:
                smallest = right
            if smallest == idx:
                return
            items[idx], items[smallest] = items[smallest], items[idx]
            idx = smallest
