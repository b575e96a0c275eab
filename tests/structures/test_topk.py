"""Tests for the vectorized TopKBuffer (SVDD's batch score queue) and
the cut pass 3 collects a queue's cells at."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.svdd import DeltaSweep
from repro.exceptions import ConfigurationError
from repro.structures import Cut, TopKBuffer
from repro.lab.heap import BoundedTopHeap


def heap_scores(capacity: int, values) -> list[float]:
    """The score multiset the item-at-a-time reference retains."""
    heap = BoundedTopHeap(capacity)
    for value in values:
        heap.push(abs(value))
    return sorted(item.key for item in heap.items_descending())


def held(buf: TopKBuffer) -> list[float]:
    """The scores ``buf`` retains, ascending (compacted first)."""
    buf.cut()
    return sorted(buf._scores[: len(buf)])


def sweep(cut: Cut, batches) -> tuple[np.ndarray, np.ndarray]:
    """The cells ``cut`` keeps of the batches' values, key = position in
    their concatenation.  Each batch is a pass-3 chunk of one-column
    rows, whose rank-1 error under a zero ``V`` is the value itself."""
    collector = DeltaSweep(cut, np.zeros((1, 1)), 1)
    for values in batches:
        collector(np.asarray(values, dtype=np.float64).reshape(-1, 1))
    return collector.deltas()


class TestBasics:
    def test_retains_top_by_absolute_score(self):
        buf = TopKBuffer(3)
        buf.offer(np.array([1.0, -9.0, 4.0, -2.0, 8.0]))
        assert held(buf) == [4.0, 8.0, 9.0]
        assert buf.cut() == Cut(4.0, 1, 3)

    def test_zero_capacity(self):
        buf = TopKBuffer(0)
        buf.offer(np.arange(10.0))
        assert len(buf) == 0 and buf.admitted == 0
        assert buf.retained_score_sq_sum() == 0.0
        assert buf.cut() == Cut(np.inf, 0, 0)  # keeps no cell

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            TopKBuffer(-1)

    def test_fewer_items_than_capacity(self):
        buf = TopKBuffer(100)
        buf.offer(np.array([3.0, -1.0]))
        assert held(buf) == [1.0, 3.0]
        assert buf.cut() == Cut(-np.inf, 0, 2)  # short: no cut

    def test_threshold_rises_after_compaction(self):
        buf = TopKBuffer(5)
        assert buf.threshold == -np.inf
        buf.offer(np.linspace(1, 100, 100))
        buf.cut()
        assert buf.threshold >= 95.0

    def test_threshold_never_decreases(self):
        buf = TopKBuffer(7)
        rng = np.random.default_rng(5)
        seen = [buf.threshold]
        for batch in range(40):
            # Shrinking magnitudes: later batches mostly fail admission.
            buf.offer(rng.standard_normal(50) / (1 + batch))
            seen.append(buf.threshold)
        assert all(a <= b for a, b in zip(seen, seen[1:]))
        assert seen[-1] > 0.0

    def test_many_batches(self):
        buf = TopKBuffer(10)
        rng = np.random.default_rng(1)
        seen = []
        for _ in range(20):
            values = rng.standard_normal(137)
            buf.offer(values)
            seen.extend(values)
        assert held(buf) == heap_scores(10, seen)

    def test_batch_larger_than_twice_the_capacity(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal(1000)
        buf = TopKBuffer(4)
        buf.offer(values)  # 1000 > 5 slots: compacts as it fills, in place
        assert len(buf) == 4
        assert held(buf) == sorted(np.sort(np.abs(values))[-4:])

    def test_zeros_are_candidates_until_the_queue_is_full(self):
        buf = TopKBuffer(3)
        buf.offer(np.zeros(2))
        buf.offer(np.array([0.0, -2.0]))  # -inf threshold: zeros admitted
        assert buf.admitted == 4
        assert len(buf) == 3 and buf.threshold == 0.0  # 4 slots full: compacted
        assert buf.retained_score_sq_sum() == 4.0
        buf.offer(np.zeros(9))  # strict >: equal to the threshold stays out
        assert buf.admitted == 4
        assert held(buf) == [0.0, 0.0, 2.0]
        assert buf.cut() == Cut(0.0, 2, 3)

    def test_retained_score_sq_sum(self):
        buf = TopKBuffer(2)
        buf.offer(np.array([3.0, -4.0, 1.0]))
        assert buf.retained_score_sq_sum() == pytest.approx(25.0)

    def test_cut_sweeps_cells_in_key_order(self):
        """Pass 3 collects the cut's cells in key order, whatever order
        the queue's scores arrived in: what ``DeltaIndex`` and
        ``DeltaFile.write`` take; of a tie at the cut, the first keys."""
        values = np.array([2.0, 0.1, 5.0, 8.0, 0.2, -5.0, 5.0, -2.0, 9.0])
        buf = TopKBuffer(4)
        buf.offer(values[6:])
        buf.offer(values[:6])
        cut = buf.cut()
        assert cut == Cut(5.0, 2, 4)  # two of the three 5s
        keys, kept = sweep(cut, [values[:4], values[4:]])
        assert list(keys) == [2, 3, 5, 8]
        assert list(kept) == [5.0, 8.0, -5.0, 9.0]
        assert sorted(np.abs(kept)) == held(buf) == heap_scores(4, values)


_batched = dict(
    seed=st.integers(0, 2**31 - 1),
    capacity=st.integers(0, 40),
    sizes=st.lists(st.integers(0, 90), min_size=1, max_size=30),
    levels=st.sampled_from([None, 3, 8]),
)


def _offer_batches(seed, capacity, sizes, levels):
    """Offer batches of varying (and zero) size to a fresh buffer; when
    ``levels`` is set the values come from a few levels including zero,
    so equal scores straddle the capacity boundary.  Returns the buffer,
    the batches and the thresholds seen."""
    rng = np.random.default_rng(seed)
    buf = TopKBuffer(capacity)
    batches, thresholds = [], [buf.threshold]
    for size in sizes:
        if levels is None:
            values = rng.standard_normal(size)
        else:
            values = rng.integers(-levels, levels + 1, size=size).astype(np.float64)
        buf.offer(values)
        thresholds.append(buf.threshold)
        batches.append(values)
    return buf, batches, thresholds


@settings(max_examples=100, deadline=None)
@given(**_batched)
def test_property_equivalent_to_heap(**case):
    """Batched offers retain the reference heap's score multiset, and
    the cut is its ``capacity``-th largest score."""
    buf, batches, thresholds = _offer_batches(**case)
    want = heap_scores(buf.capacity, np.concatenate(batches))
    assert held(buf) == want
    assert all(a <= b for a, b in zip(thresholds, thresholds[1:]))
    cut = buf.cut()
    assert cut.count == len(want)
    if buf.capacity == 0:
        assert cut == Cut(np.inf, 0, 0)
    elif len(want) < buf.capacity:
        assert cut == Cut(-np.inf, 0, len(want))
    else:
        assert cut == Cut(want[0], want.count(want[0]), buf.capacity)


@settings(max_examples=100, deadline=None)
@given(**_batched)
def test_property_sweep_at_the_cut_keeps_the_heap_multiset(**case):
    """The cells a full queue's cut keeps, swept from the same batches:
    the heap's score multiset, in key order, and of the cells tied at
    the cut the ones with the smallest keys."""
    buf, batches, _ = _offer_batches(**case)
    cut = buf.cut()
    if cut.count < buf.capacity:
        return  # a short queue has no cut (pass 2 refills it first)
    offered = np.concatenate(batches)
    keys, kept = sweep(cut, batches)
    assert sorted(np.abs(kept)) == heap_scores(buf.capacity, offered)
    assert np.all(np.diff(keys) > 0)
    assert list(offered[keys]) == list(kept)
    tied = np.flatnonzero(np.abs(offered) == cut.score)
    assert list(keys[np.abs(kept) == cut.score]) == list(tied[: cut.ties])


_floored = dict(
    seed=st.integers(0, 2**31 - 1),
    capacity=st.integers(1, 40),
    sizes=st.lists(st.integers(0, 60), min_size=1, max_size=12),
    quantile=st.floats(0.0, 1.0),
    levels=st.sampled_from([None, 3]),
)


def _offer_floored(seed, capacity, sizes, quantile, levels):
    """Offer batches to a buffer floored at a quantile of their scores;
    return the buffer, every offered value and the thresholds seen."""
    rng = np.random.default_rng(seed)
    if levels is None:
        values = rng.standard_normal(sum(sizes))
    else:
        values = rng.integers(-levels, levels + 1, sum(sizes)).astype(np.float64)
    floor = float(np.quantile(np.abs(values), quantile)) if values.size else 0.0
    buf = TopKBuffer(capacity, floor)
    thresholds = [buf.threshold]
    base = 0
    for size in sizes:
        buf.offer(values[base : base + size])
        thresholds.append(buf.threshold)
        base += size
    return buf, floor, values, thresholds


class TestFloor:
    """A buffer started at a floor: what pass 2's sampled floors rely on."""

    @settings(max_examples=100, deadline=None)
    @given(**_floored)
    def test_retains_the_top_capacity_above_the_floor(self, **case):
        buf, floor, values, _ = _offer_floored(**case)
        above = values[np.abs(values) > floor]
        assert buf.admitted <= above.size
        assert held(buf) == heap_scores(buf.capacity, above)

    @settings(max_examples=100, deadline=None)
    @given(**_floored)
    def test_short_means_the_floor_is_above_the_capacity_th_score(self, **case):
        buf, floor, values, _ = _offer_floored(**case)
        scores = np.sort(np.abs(values))[::-1]
        short = len(buf) < buf.capacity
        assert short == (scores.size < buf.capacity or scores[buf.capacity - 1] <= floor)
        assert short == (buf.cut().score == -np.inf)
        if not short:  # then the floor cost nothing: the global top
            assert held(buf) == heap_scores(buf.capacity, values)

    @settings(max_examples=100, deadline=None)
    @given(**_floored)
    def test_threshold_never_drops_below_the_floor(self, **case):
        buf, floor, _, thresholds = _offer_floored(**case)
        assert thresholds[0] == floor
        buf.cut()
        thresholds.append(buf.threshold)
        assert all(floor <= a <= b for a, b in zip(thresholds, thresholds[1:]))
