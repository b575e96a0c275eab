"""Tests for the bounded top-gamma heap."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.lab.heap import BoundedTopHeap


class TestBasics:
    def test_retains_largest(self):
        heap = BoundedTopHeap(3)
        for value in [5, 1, 9, 3, 7, 2]:
            heap.push(value)
        assert [item.key for item in heap.items_descending()] == [9, 7, 5]

    def test_push_reports_retention(self):
        heap = BoundedTopHeap(2)
        assert heap.push(5)
        assert heap.push(10)
        assert not heap.push(1)  # below current min
        assert heap.push(7)  # displaces 5

    def test_payloads_travel_with_keys(self):
        heap = BoundedTopHeap(2)
        heap.push(3.0, payload=("a", 1))
        heap.push(9.0, payload=("b", 2))
        heap.push(6.0, payload=("c", 3))
        payloads = [item.payload for item in heap.items_descending()]
        assert payloads == [("b", 2), ("c", 3)]

    def test_zero_capacity_accepts_nothing(self):
        heap = BoundedTopHeap(0)
        assert not heap.push(100)
        assert len(heap) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            BoundedTopHeap(-1)

    def test_min_key_empty_is_neg_inf(self):
        assert BoundedTopHeap(3).min_key() == float("-inf")

    def test_min_key_tracks_smallest_retained(self):
        heap = BoundedTopHeap(2)
        heap.push(4)
        heap.push(8)
        heap.push(6)
        assert heap.min_key() == 6

    def test_ties_first_seen_wins(self):
        heap = BoundedTopHeap(1)
        heap.push(5.0, payload="first")
        assert not heap.push(5.0, payload="second")
        assert heap.items_descending()[0].payload == "first"

    def test_iteration_covers_retained(self):
        heap = BoundedTopHeap(4)
        for value in range(10):
            heap.push(value)
        assert sorted(item.key for item in heap) == [6, 7, 8, 9]


class TestShrink:
    def test_shrink_evicts_smallest(self):
        heap = BoundedTopHeap(5)
        for value in [10, 20, 30, 40, 50]:
            heap.push(value)
        evicted = heap.shrink_to(2)
        assert sorted(item.key for item in evicted) == [10, 20, 30]
        assert [item.key for item in heap.items_descending()] == [50, 40]
        assert heap.capacity == 2

    def test_shrink_to_zero(self):
        heap = BoundedTopHeap(3)
        heap.push(1)
        evicted = heap.shrink_to(0)
        assert len(evicted) == 1
        assert len(heap) == 0

    def test_shrink_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            BoundedTopHeap(3).shrink_to(-1)

    def test_shrink_larger_than_content_is_noop(self):
        heap = BoundedTopHeap(5)
        heap.push(1)
        assert heap.shrink_to(4) == []
        assert len(heap) == 1


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e9, max_value=1e9),
                    min_size=0, max_size=200),
    capacity=st.integers(min_value=0, max_value=20),
)
def test_property_matches_sorted_top_k(values, capacity):
    """The heap retains exactly the k largest values (as a multiset)."""
    heap = BoundedTopHeap(capacity)
    for value in values:
        heap.push(value)
    expected = sorted(values, reverse=True)[:capacity]
    actual = [item.key for item in heap.items_descending()]
    assert np.allclose(actual, expected)
