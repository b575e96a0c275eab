"""Vectorized bounded top-k selection of scores.

SVDD's pass 2 (paper Figure 5) keeps one priority queue per candidate
cutoff ``k``, of its ``gamma_k`` worst-reconstructed cells, and needs of
it only the energy it retains and its :class:`Cut` (where pass 3
collects the winner's cells).  So a queue holds ``|error|`` scores, 8
bytes a slot, compacted in place by ``numpy.partition`` to the top
``capacity`` whenever ``_ROOM * capacity`` slots fill.  Started at a
*floor*, it retains the top ``capacity`` scores above it: the global top
unless ``len(buf) < capacity`` shows the floor lay above the
``capacity``-th score.  :class:`~repro.lab.heap.BoundedTopHeap` is the
item-at-a-time reference: both retain the same score multiset.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.exceptions import ConfigurationError

#: A queue compacts when its scores fill this many times its capacity.
_ROOM = 1.25


class Cut(NamedTuple):
    """A queue's ``capacity``-th largest ``score`` (``+inf`` at capacity 0,
    ``-inf`` when short), how many retained scores tie it, and how many
    it retains."""

    score: float
    ties: int
    count: int


class TopKBuffer:
    """Retain the ``capacity`` largest ``|value|`` scores offered.

    Args:
        capacity: number of scores to retain; zero yields an always-empty
            buffer (the all-budget-to-PCs regime).
        floor: the starting threshold; only scores above it are admitted.
    """

    def __init__(self, capacity: int, floor: float = -np.inf) -> None:
        if capacity < 0:
            raise ConfigurationError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._scores = np.empty(max(int(capacity * _ROOM), capacity + 1))
        self._count = 0
        self.threshold = float(floor)  # admits scores above it; compactions raise it
        self.admitted = 0  # scores :meth:`offer` took in, over the buffer's life

    def __len__(self) -> int:
        """Scores held now (``capacity`` at most after a compaction)."""
        return self._count

    def offer(self, values: np.ndarray) -> None:
        """Offer a batch; ``|value|`` is each one's score."""
        if self.capacity == 0:
            return
        scores = np.abs(values)
        survivors = scores[scores > self.threshold]
        while survivors.size:
            take = min(survivors.size, self._scores.size - self._count)
            self._scores[self._count : self._count + take] = survivors[:take]
            self._count += take
            self.admitted += take
            if self._count < self._scores.size:
                return
            self._compact()
            survivors = survivors[take:]
            survivors = survivors[survivors > self.threshold]

    def _compact(self) -> None:
        """Shrink the buffer to exactly the top ``capacity`` scores."""
        count, capacity = self._count, self.capacity
        if count <= capacity:
            return
        held = self._scores[:count]
        held.partition(count - capacity)
        self.threshold = float(held[count - capacity])
        held[: count - capacity] = held[capacity:]  # disjoint: count <= 2 capacity
        self._count = capacity

    def retained_score_sq_sum(self) -> float:
        """Sum of squared retained scores (the delta energy SVDD removes)."""
        self._compact()
        retained = self._scores[: self._count]
        return float(np.dot(retained, retained))

    def cut(self) -> Cut:
        """The queue's :class:`Cut`, after a final compaction."""
        self._compact()
        if self.capacity == 0:
            return Cut(np.inf, 0, 0)
        if self._count < self.capacity:
            return Cut(-np.inf, 0, self._count)
        retained = self._scores[: self._count]
        score = float(retained.min())
        return Cut(score, int(np.count_nonzero(retained == score)), self._count)
