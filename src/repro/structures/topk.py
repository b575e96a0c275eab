"""Vectorized bounded top-k selection.

The SVDD pass 2 (paper Figure 5) conceptually maintains one priority
queue per candidate cutoff ``k``, each retaining the ``gamma_k``
worst-reconstructed cells.  Pushing every cell of every row through a
pointer-based heap is needlessly slow in Python, so the hot path uses
this batch-partitioning equivalent: a batch is a contiguous run of cell
keys offered *by position* (``key = base + position``, scored by
``|value|``), only the cells that beat the current threshold are
appended, and the buffer is compacted with ``numpy.argpartition``
whenever it doubles, keeping exactly the top ``capacity`` items.
Amortized cost is O(1) per offered item; retained content is identical
to the heap's (up to which of several equal scores sit on the boundary).

A buffer may start at a *floor*: it retains the top ``capacity`` of the
scores above it, the global top unless ``len(buf) < capacity`` shows the
floor lay above the ``capacity``-th score.

:class:`~repro.lab.heap.BoundedTopHeap` remains the
item-at-a-time reference implementation: it specifies *which scores* a
bounded queue retains, and the property-based tests assert both
structures retain the same score multiset.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError


class TopKBuffer:
    """Retain the ``capacity`` items with the largest ``|value|``.

    Items are ``(key, value)`` pairs, 16 bytes a slot; the score is
    never stored, it is ``|value|`` recomputed where a compaction needs
    it.

    Args:
        capacity: number of items to retain; zero yields an always-empty
            buffer (the all-budget-to-PCs regime).
        floor: the starting threshold; only scores above it are admitted.
    """

    def __init__(self, capacity: int, floor: float = -np.inf) -> None:
        if capacity < 0:
            raise ConfigurationError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        size = max(capacity * 2, 1)
        self._keys = np.empty(size, dtype=np.int64)
        self._values = np.empty(size)
        self._count = 0
        self._threshold = float(floor)  # raised by each full compaction
        self.admitted = 0  # cells :meth:`offer` took in, over the buffer's life

    def __len__(self) -> int:
        """Number of currently buffered candidates (may exceed capacity
        transiently between compactions; never after :meth:`finalize`)."""
        return self._count

    @property
    def threshold(self) -> float:
        """Current admission threshold: scores at or below it are ignored."""
        return self._threshold

    def offer(self, base: int, values: np.ndarray) -> None:
        """Offer the contiguous run of cells ``base .. base + len(values) - 1``.

        Args:
            base: key of the first cell; the cell at position ``i`` has
                key ``base + i``.
            values: 1-d float64 payload (signed deltas); ``|value|`` is
                the ranking score, larger is more worth retaining.
        """
        if self.capacity == 0:
            return
        survivors = np.flatnonzero(np.abs(values) > self._threshold)
        if survivors.size == 0:
            return
        end = self._count + survivors.size
        if end > self._keys.shape[0]:
            self._grow(end)
        np.add(survivors, base, out=self._keys[self._count : end])
        self._values[self._count : end] = values[survivors]
        self._count = end
        self.admitted += survivors.size
        if self._count > 2 * self.capacity:
            self._compact()

    def _grow(self, needed: int) -> None:
        # Exactly: the offer that outgrows 2x capacity compacts before it
        # returns, so one batch past it is all a buffer ever holds.
        for name in ("_keys", "_values"):
            old = getattr(self, name)
            new = np.empty(needed, dtype=old.dtype)
            new[: self._count] = old[: self._count]
            setattr(self, name, new)

    def _compact(self) -> None:
        """Shrink the buffer to exactly the top ``capacity`` scores."""
        if self._count <= self.capacity:
            return
        scores = np.abs(self._values[: self._count])
        idx = np.argpartition(scores, self._count - self.capacity)
        keep = idx[self._count - self.capacity :]
        self._keys[: self.capacity] = self._keys[keep]
        self._values[: self.capacity] = self._values[keep]
        self._count = self.capacity
        self._threshold = float(scores[keep].min())

    def finalize(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(keys, values)`` of the retained top items, in key order."""
        self._compact()
        order = np.argsort(self._keys[: self._count])
        return self._keys[order], self._values[order]

    def retained_score_sq_sum(self) -> float:
        """Sum of squared retained scores (the delta energy SVDD removes)."""
        self._compact()
        retained = self._values[: self._count]
        return float((retained * retained).sum())
