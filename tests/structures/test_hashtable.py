"""Tests for the open-addressing delta hash table."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.lab.hashtable import OpenAddressingTable


class TestBasics:
    def test_put_get(self):
        table = OpenAddressingTable()
        table.put(42, 3.14)
        assert table.get(42) == pytest.approx(3.14)

    def test_get_missing_returns_default(self):
        table = OpenAddressingTable()
        assert table.get(1) is None
        assert table.get(1, 0.0) == 0.0

    def test_overwrite_keeps_size(self):
        table = OpenAddressingTable()
        table.put(5, 1.0)
        table.put(5, 2.0)
        assert len(table) == 1
        assert table.get(5) == 2.0

    def test_contains(self):
        table = OpenAddressingTable()
        table.put(10, 1.0)
        assert 10 in table
        assert 11 not in table

    def test_rejects_negative_keys(self):
        with pytest.raises(ConfigurationError):
            OpenAddressingTable().put(-1, 0.0)

    def test_rejects_bad_construction(self):
        with pytest.raises(ConfigurationError):
            OpenAddressingTable(initial_capacity=0)
        with pytest.raises(ConfigurationError):
            OpenAddressingTable(max_load_factor=0.99)

    def test_growth_preserves_contents(self):
        table = OpenAddressingTable(initial_capacity=4)
        for key in range(1000):
            table.put(key, float(key) * 0.5)
        assert len(table) == 1000
        assert table.capacity >= 1000
        assert all(table.get(k) == k * 0.5 for k in range(1000))

    def test_items_cover_all_pairs(self):
        table = OpenAddressingTable()
        expected = {k: float(k * k) for k in range(0, 50, 3)}
        for key, value in expected.items():
            table.put(key, value)
        assert dict(table.items()) == expected

    def test_probe_counter(self):
        table = OpenAddressingTable()
        table.put(1, 1.0)
        table.reset_probe_count()
        table.get(1)
        assert table.probe_count >= 1

    def test_size_bytes(self):
        assert OpenAddressingTable(initial_capacity=64).size_bytes() == 64 * 16


class TestRemoval:
    def test_remove_existing(self):
        table = OpenAddressingTable()
        table.put(7, 1.0)
        assert table.remove(7)
        assert 7 not in table
        assert len(table) == 0

    def test_remove_missing(self):
        assert not OpenAddressingTable().remove(3)

    def test_backward_shift_keeps_chain_reachable(self):
        """Deleting mid-chain must not orphan later colliding keys."""
        table = OpenAddressingTable(initial_capacity=8, max_load_factor=0.9)
        # Force collisions by inserting more keys than distinct home slots.
        keys = list(range(0, 60, 7))
        for key in keys:
            table.put(key, float(key))
        table.remove(keys[2])
        for key in keys:
            if key != keys[2]:
                assert table.get(key) == float(key), key

    def test_interleaved_put_remove(self):
        table = OpenAddressingTable(initial_capacity=4)
        reference: dict[int, float] = {}
        rng = np.random.default_rng(9)
        for _ in range(2000):
            key = int(rng.integers(0, 100))
            if rng.random() < 0.6:
                value = float(rng.random())
                table.put(key, value)
                reference[key] = value
            else:
                assert table.remove(key) == (key in reference)
                reference.pop(key, None)
        assert dict(table.items()) == reference


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "remove", "get"]),
            st.integers(0, 50),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
        ),
        max_size=300,
    )
)
def test_property_behaves_like_dict(ops):
    table = OpenAddressingTable(initial_capacity=2)
    reference: dict[int, float] = {}
    for op, key, value in ops:
        if op == "put":
            table.put(key, value)
            reference[key] = value
        elif op == "remove":
            assert table.remove(key) == (key in reference)
            reference.pop(key, None)
        else:
            expected = reference.get(key)
            actual = table.get(key)
            if expected is None:
                assert actual is None
            else:
                assert actual == pytest.approx(expected, nan_ok=True)
    assert len(table) == len(reference)
    assert dict(table.items()) == pytest.approx(reference)
