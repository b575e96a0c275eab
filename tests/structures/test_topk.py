"""Tests for the vectorized TopKBuffer (SVDD's batch priority queue)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.structures import TopKBuffer
from repro.lab.heap import BoundedTopHeap


def heap_scores(capacity: int, values) -> list[float]:
    """The score multiset the item-at-a-time reference retains."""
    heap = BoundedTopHeap(capacity)
    for value in values:
        heap.push(abs(value))
    return sorted(item.key for item in heap.items_descending())


class TestBasics:
    def test_retains_top_by_absolute_score(self):
        buf = TopKBuffer(3)
        buf.offer(0, np.array([1.0, -9.0, 4.0, -2.0, 8.0]))
        keys, values = buf.finalize()
        assert list(keys) == [1, 2, 4]
        assert list(values) == [-9.0, 4.0, 8.0]

    def test_zero_capacity(self):
        buf = TopKBuffer(0)
        buf.offer(0, np.arange(10.0))
        keys, values = buf.finalize()
        assert keys.size == values.size == 0
        assert buf.retained_score_sq_sum() == 0.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            TopKBuffer(-1)

    def test_fewer_items_than_capacity(self):
        buf = TopKBuffer(100)
        buf.offer(0, np.array([3.0, 1.0]))
        keys, values = buf.finalize()
        assert list(keys) == [0, 1]
        assert list(values) == [3.0, 1.0]

    def test_threshold_rises_after_compaction(self):
        buf = TopKBuffer(5)
        assert buf.threshold == -np.inf
        buf.offer(0, np.linspace(1, 100, 100))
        buf.finalize()
        assert buf.threshold >= 95.0

    def test_threshold_never_decreases(self):
        buf = TopKBuffer(7)
        rng = np.random.default_rng(5)
        seen = [buf.threshold]
        for batch in range(40):
            # Shrinking magnitudes: later batches mostly fail admission.
            buf.offer(batch * 50, rng.standard_normal(50) / (1 + batch))
            seen.append(buf.threshold)
        assert all(a <= b for a, b in zip(seen, seen[1:]))
        assert seen[-1] > 0.0

    def test_many_batches(self):
        buf = TopKBuffer(10)
        rng = np.random.default_rng(1)
        seen = {}
        for batch in range(20):
            values = rng.standard_normal(137)
            buf.offer(batch * 1000, values)
            seen.update(zip(range(batch * 1000, batch * 1000 + 137), values))
        keys, values = buf.finalize()
        assert sorted(np.abs(values)) == heap_scores(10, seen.values())
        assert [seen[key] for key in keys] == list(values)  # key = base + position

    def test_batch_larger_than_twice_the_capacity(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal(1000)
        buf = TopKBuffer(4)
        buf.offer(10_000, values)  # 1000 > 2 * 4: grows, then compacts
        assert len(buf) == 4
        keys, kept = buf.finalize()
        top = np.sort(np.argsort(np.abs(values))[-4:])
        assert list(keys) == list(10_000 + top)
        assert list(kept) == list(values[top])

    def test_zeros_are_candidates_until_the_queue_is_full(self):
        buf = TopKBuffer(3)
        buf.offer(0, np.zeros(2))
        buf.offer(5, np.array([0.0, -2.0]))
        assert len(buf) == 4  # -inf threshold: a zero score is admitted
        assert buf.retained_score_sq_sum() == 4.0  # compacts: threshold is 0.0
        buf.offer(20, np.zeros(9))  # strict >: equal to the threshold stays out
        keys, values = buf.finalize()
        assert keys.size == 3 and 6 in keys and set(keys) <= {0, 1, 5, 6}
        assert sorted(np.abs(values)) == [0.0, 0.0, 2.0]

    def test_retained_score_sq_sum(self):
        buf = TopKBuffer(2)
        buf.offer(0, np.array([3.0, -4.0, 1.0]))
        assert buf.retained_score_sq_sum() == pytest.approx(25.0)

    def test_finalize_sorted_by_key(self):
        """The result is in key order whatever order scores arrived in:
        what ``DeltaIndex`` and ``DeltaFile.write`` sort by next."""
        buf = TopKBuffer(4)
        buf.offer(7, np.array([2.0, 0.1, 5.0]))  # keys 7, 8, 9
        buf.offer(1, np.array([8.0, 0.2, -5.0]))  # keys 1, 2, 3
        keys, values = buf.finalize()
        assert list(keys) == [1, 3, 7, 9]
        assert list(values) == [8.0, -5.0, 2.0, 5.0]
        assert sorted(np.abs(values)) == heap_scores(4, [2.0, 0.1, 5.0, 8.0, 0.2, -5.0])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    capacity=st.integers(0, 40),
    batches=st.lists(
        st.tuples(st.integers(0, 90), st.integers(0, 25)), min_size=1, max_size=30
    ),
    levels=st.sampled_from([None, 3, 8]),
)
def test_property_equivalent_to_heap(seed, capacity, batches, levels):
    """By-position offers retain the reference heap's score multiset.

    Batches of varying (and zero) size, gaps between one batch's last
    key and the next one's base, and — when ``levels`` is set — values
    drawn from a few levels including zero, so equal scores straddle
    the capacity boundary.
    """
    rng = np.random.default_rng(seed)
    buf = TopKBuffer(capacity)
    offered = {}
    base = 0
    thresholds = [buf.threshold]
    for size, gap in batches:
        base += gap
        if levels is None:
            values = rng.standard_normal(size)
        else:
            values = rng.integers(-levels, levels + 1, size=size).astype(np.float64)
        buf.offer(base, values)
        thresholds.append(buf.threshold)
        offered.update(zip(range(base, base + size), values))
        base += size
    keys, values = buf.finalize()
    assert sorted(np.abs(values)) == heap_scores(capacity, offered.values())
    assert np.all(np.diff(keys) > 0)
    assert [offered[key] for key in keys] == list(values)
    assert all(a <= b for a, b in zip(thresholds, thresholds[1:]))


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
        buf.offer(base, values[base : base + size])
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
        keys, kept = buf.finalize()
        assert sorted(np.abs(kept)) == heap_scores(buf.capacity, above)
        assert [values[key] for key in keys] == list(kept)

    @settings(max_examples=100, deadline=None)
    @given(**_floored)
    def test_short_means_the_floor_is_above_the_capacity_th_score(self, **case):
        buf, floor, values, _ = _offer_floored(**case)
        scores = np.sort(np.abs(values))[::-1]
        short = len(buf) < buf.capacity
        assert short == (scores.size < buf.capacity or scores[buf.capacity - 1] <= floor)
        if not short:  # then the floor cost nothing: the global top
            _, kept = buf.finalize()
            assert sorted(np.abs(kept)) == heap_scores(buf.capacity, values)

    @settings(max_examples=100, deadline=None)
    @given(**_floored)
    def test_threshold_never_drops_below_the_floor(self, **case):
        buf, floor, _, thresholds = _offer_floored(**case)
        assert thresholds[0] == floor
        buf.finalize()
        thresholds.append(buf.threshold)
        assert all(floor <= a <= b for a, b in zip(thresholds, thresholds[1:]))
