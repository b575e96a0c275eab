"""Tests for the Bloom filters."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.lab.bloom import BloomFilter, CountingBloomFilter
from repro.lab.bloom import optimal_parameters


class TestSizing:
    def test_optimal_parameters_shape(self):
        bits, hashes = optimal_parameters(1000, 0.01)
        assert bits > 1000  # ~9.6 bits/key at 1% FPR
        assert 1 <= hashes <= 20

    def test_lower_fpr_needs_more_bits(self):
        loose, _ = optimal_parameters(1000, 0.1)
        tight, _ = optimal_parameters(1000, 0.001)
        assert tight > loose

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            optimal_parameters(0, 0.01)
        with pytest.raises(ConfigurationError):
            optimal_parameters(10, 0.0)
        with pytest.raises(ConfigurationError):
            optimal_parameters(10, 1.0)


class TestBloomFilter:
    def test_no_false_negatives(self):
        bf = BloomFilter(500, 0.01)
        keys = list(range(0, 5000, 10))
        bf.update(keys)
        assert all(k in bf for k in keys)

    def test_false_positive_rate_near_target(self):
        bf = BloomFilter(2000, 0.01)
        bf.update(range(2000))
        probes = np.arange(10_000, 60_000)
        fp = sum(1 for k in probes if int(k) in bf)
        assert fp / probes.size < 0.05  # generous bound over the 1% target

    def test_empty_filter_rejects_everything(self):
        bf = BloomFilter(100)
        assert not any(k in bf for k in range(1000))

    def test_rejects_negative_keys(self):
        bf = BloomFilter(10)
        with pytest.raises(ConfigurationError):
            bf.add(-1)

    def test_len_counts_insertions(self):
        bf = BloomFilter(10)
        bf.update([1, 2, 3])
        assert len(bf) == 3

    def test_estimated_fpr_grows_with_load(self):
        bf = BloomFilter(100, 0.01)
        assert bf.estimated_false_positive_rate() == 0.0
        bf.update(range(100))
        light = bf.estimated_false_positive_rate()
        bf.update(range(100, 1000))
        assert bf.estimated_false_positive_rate() > light

    def test_size_bytes_positive(self):
        assert BloomFilter(1000).size_bytes() > 0


class TestCountingBloomFilter:
    def test_remove_restores_absence(self):
        cbf = CountingBloomFilter(100)
        cbf.add(42)
        assert 42 in cbf
        assert cbf.remove(42)
        assert 42 not in cbf

    def test_remove_absent_returns_false(self):
        cbf = CountingBloomFilter(100)
        cbf.add(1)
        assert not cbf.remove(99991)

    def test_double_add_needs_double_remove(self):
        cbf = CountingBloomFilter(100)
        cbf.add(7)
        cbf.add(7)
        assert cbf.remove(7)
        assert 7 in cbf
        assert cbf.remove(7)
        assert 7 not in cbf

    def test_no_false_negatives_after_unrelated_removals(self):
        cbf = CountingBloomFilter(200)
        kept = list(range(0, 200, 2))
        removed = list(range(1, 200, 2))
        for k in kept + removed:
            cbf.add(k)
        for k in removed:
            cbf.remove(k)
        assert all(k in cbf for k in kept)


@settings(max_examples=50, deadline=None)
@given(keys=st.lists(st.integers(0, 2**40), min_size=1, max_size=200, unique=True))
def test_property_membership_never_false_negative(keys):
    bf = BloomFilter(len(keys), 0.01)
    bf.update(keys)
    assert all(k in bf for k in keys)


class TestSaturationPinning:
    """Counters that ever hit the uint16 ceiling must never decrement.

    Regression: ``add`` refuses to increment a saturated counter, so its
    true count is unknown; decrementing it on ``remove`` can drive it to
    zero while other keys still hash there — a false negative, the one
    guarantee a Bloom filter must never break.
    """

    def test_saturated_counters_never_decrement(self):
        cbf = CountingBloomFilter(4)
        cbf.add(7)
        positions = list(cbf._positions(7))
        ceiling = CountingBloomFilter._SATURATED
        # Simulate a counter that saturated under massive shared load.
        for pos in positions:
            cbf._counters[pos] = ceiling
        assert cbf.remove(7)
        for pos in positions:
            assert cbf._counters[pos] == ceiling  # pinned, no underflow
        assert 7 in cbf  # membership survives; only false positives allowed

    def test_add_at_saturation_does_not_overflow(self):
        cbf = CountingBloomFilter(4)
        ceiling = CountingBloomFilter._SATURATED
        cbf._counters[:] = ceiling
        cbf.add(3)  # must not wrap any counter to zero
        assert int(cbf._counters.min()) == ceiling

    def test_unsaturated_removal_still_exact(self):
        cbf = CountingBloomFilter(50)
        cbf.add(11)
        cbf.add(12)
        assert cbf.remove(11)
        assert 12 in cbf


class TestTargetFpr:
    def test_filter_remembers_its_target(self):
        assert BloomFilter(100, 0.001).false_positive_rate == 0.001
        assert BloomFilter(100).false_positive_rate == 0.01
