"""SVDD pass 2's per-candidate state: where the paper's Figure 5 keeps a
queue of the ``gamma_k`` worst cells, a histogram of scores brackets
their energy (for ``epsilon_k``) and finds the bin of the ``gamma_k``-th
(``k_opt``'s cut, which :class:`~repro.core.svdd.DeltaSweep` makes exact).
"""

from __future__ import annotations

import numpy as np

#: Mantissa bits a bin keeps of a score: 64 bins an octave.
BIN_BITS = 6


def _edge(bin_number: int) -> float:
    """The smallest score in bin ``bin_number``."""
    return float(np.int64(bin_number << (52 - BIN_BITS)).view(np.float64))


class ScoreHistogram:
    """One candidate's scores at or above a floor: per bin, a count and
    a sum of squares (``bins[0]`` and ``bins[1]``, bin ``base`` first).
    A bin is a score's float64 pattern cut to :data:`BIN_BITS` mantissa
    bits, monotone for non-negative floats: no log, no range to choose.
    The bin where the count from the top reaches ``gamma`` is the *cut
    bin*: it holds the ``gamma``-th largest score, unless the floor lay
    above that score (:meth:`cut` is None: *short*)."""

    def __init__(self, gamma: int, floor: float) -> None:
        self.gamma = gamma
        # Admits scores above the sampled floor; none at all at gamma 0.
        self.floor = float(np.nextafter(floor, np.inf)) if gamma else np.inf
        self.base = 0
        self.bins = np.zeros((2, 0))
        self.admitted = 0  # scores binned, over the histogram's life
        self.held: list[np.ndarray] | None = None  # the cut bin's scores, on a rescan

    def add(self, scores: np.ndarray) -> None:
        """Count a chunk's scores (or, on a rescan, keep its cut bin's)."""
        if self.held is not None:
            low, high = self._cut_range(self.cut())
            self.held.append(scores[(scores >= low) & (scores < high)])
            return
        kept = np.compress(scores >= self.floor, scores)  # twice a mask index's speed
        if not kept.size:
            return
        bins = kept.view(np.int64) >> (52 - BIN_BITS)
        self._cover(int(bins.min()), int(bins.max()) + 1)
        bins -= self.base
        size = self.bins.shape[1]
        self.bins[0] += np.bincount(bins, minlength=size)
        self.bins[1] += np.bincount(bins, kept * kept, minlength=size)
        self.admitted += kept.size

    def _cover(self, first: int, end: int) -> None:
        """Hold bins ``first .. end - 1`` too, and those held before."""
        size = self.bins.shape[1]
        if size:
            if self.base <= first and end <= self.base + size:
                return
            first, end = min(first, self.base), max(end, self.base + size)
        bins = np.zeros((2, end - first))
        bins[:, self.base - first : self.base - first + size] = self.bins
        self.base, self.bins = first, bins

    def cut(self) -> int | None:
        """Index of the cut bin (one past the top at gamma 0; None when short)."""
        size = self.bins.shape[1]
        if not self.gamma:
            return size
        j = int(np.searchsorted(np.cumsum(self.bins[0, ::-1]), self.gamma))
        return None if j == size else size - 1 - j

    def _cut_range(self, cut: int) -> tuple[float, float]:
        """The scores cut bin ``cut`` holds: ``[low, high)``."""
        return max(self.floor, _edge(self.base + cut)), _edge(self.base + cut + 1)

    def raise_floor(self) -> None:
        """Admit nothing below the cut bin from now on, and drop the bins
        under it: the ``gamma`` largest scores stay in the bins kept."""
        cut = self.cut()
        if cut:  # not short, and bins below it
            self.floor = max(self.floor, _edge(self.base + cut))
            self.base, self.bins = self.base + cut, self.bins[:, cut:]

    def bracket(self) -> tuple[float, float]:
        """Bounds on the energy of the ``gamma`` largest scores: exact above
        the cut bin, and bounded in it by its count, energy and edges (or
        exact, once a rescan has kept its scores)."""
        cut = self.cut()
        above = float(self.bins[1, cut + 1 :].sum())
        need = self.gamma - int(self.bins[0, cut + 1 :].sum())
        if not need:
            return above, above
        if self.held is not None:
            scores = np.concatenate(self.held)
            top = np.partition(scores, scores.size - need)[scores.size - need :]
            exact = above + float(np.dot(top, top))
            return exact, exact
        count, energy = self.bins[:, cut]
        low, high = self._cut_range(cut)
        most = min(need * high * high, energy - (count - need) * low * low)
        least = max(need * energy / count, need * low * low)
        least = max(least, energy - (count - need) * high * high)
        return above + min(least, most), above + most

    def sweep_cut(self) -> tuple[float, int]:
        """Pass 3's floor (the cut bin's lower edge) and the cells at or above it."""
        cut = self.cut()
        return self._cut_range(cut)[0], int(self.bins[0, cut:].sum())
