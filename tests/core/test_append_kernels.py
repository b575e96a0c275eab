"""The append's two set kernels against the formulations they replaced.

``_merge_deltas`` (one partition over old deltas + new residuals) must
retain exactly what the ``TopKBuffer`` offer/offer/``finalize`` sequence
retained, and ``changed_cells`` (a sorted merge) must return exactly
what the ``union1d`` + per-table lookup returned.  The old formulations
live on here, as the references.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.update import _merge_deltas
from repro.structures.topk import TopKBuffer
from repro.summaries import changed_cells


def _topk_merge(old_keys, old_values, new_keys, new_values, budget):
    """``_merge_deltas`` as it was: a ``TopKBuffer`` fed twice.

    The queue takes batches by position, so it ranks positions in
    old-then-new order and the cell keys are looked up afterwards.
    """
    queue = TopKBuffer(max(0, budget))
    if old_keys.size:
        queue.offer(0, old_values)
    if new_keys.size:
        queue.offer(old_keys.size, new_values)
    retained_sq = float(queue.retained_score_sq_sum())
    positions, values = queue.finalize()
    keys = np.concatenate([old_keys, new_keys])[positions]
    order = np.argsort(keys)
    return keys[order], values[order], retained_sq


def _values_at(probe_keys, table_keys, table_values):
    if table_keys.size == 0 or probe_keys.size == 0:
        return np.zeros(probe_keys.shape, dtype=bool), np.zeros(probe_keys.shape)
    pos = np.searchsorted(table_keys, probe_keys)
    clipped = np.minimum(pos, table_keys.size - 1)
    present = (pos < table_keys.size) & (table_keys[clipped] == probe_keys)
    return present, np.where(present, table_values[clipped], 0.0)


def _union_changed(old_keys, old_values, new_keys, new_values):
    """``changed_cells`` as it was: hash union, then two lookups."""
    all_keys = np.union1d(old_keys, new_keys)
    old_present, old_vals = _values_at(all_keys, old_keys, old_values)
    new_present, new_vals = _values_at(all_keys, new_keys, new_values)
    changed = (old_present != new_present) | (
        old_present & new_present & (old_vals != new_vals)
    )
    return all_keys[changed]


def _candidates(seed: int, n_old: int, n_new: int, tied: bool):
    """Disjoint old/new cells; ``tied`` draws |value| from four levels so
    equal scores straddle any budget boundary."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(10 * (n_old + n_new) + 1, size=n_old + n_new, replace=False)
    if tied:
        values = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0], size=keys.size)
    else:
        values = rng.standard_normal(keys.size) * 10.0 ** rng.integers(-3, 4)
    old, new = np.sort(keys[:n_old]), keys[n_old:]  # new cells arrive unsorted
    return old, values[:n_old], new, values[n_old:]


def _assert_bit_equal(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    assert got[0].dtype == want[0].dtype == np.int64
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2] == want[2]  # summed in the partition's order: same bits


class TestMergeDeltasMatchesTopKBuffer:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        budget=st.integers(0, 40),
        old_share=st.floats(0.0, 1.0),
        n_new=st.integers(0, 200),
        tied=st.booleans(),
    )
    def test_bit_identical_without_early_compaction(
        self, seed, budget, old_share, n_new, tied
    ):
        # Old side <= 2 * budget: TopKBuffer holds it uncompacted, so its
        # only partition runs over the same concatenated array.
        n_old = int(round(old_share * 2 * budget))
        args = _candidates(seed, n_old, n_new, tied)
        _assert_bit_equal(_merge_deltas(*args, budget), _topk_merge(*args, budget))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        budget=st.integers(1, 20),
        extra_old=st.integers(1, 60),
        n_new=st.integers(0, 80),
        tied=st.booleans(),
    )
    def test_same_scores_when_old_side_compacts_first(
        self, seed, budget, extra_old, n_new, tied
    ):
        # Old side > 2 * budget (a tiny model whose budget collapsed):
        # TopKBuffer compacts before the second offer and its strict
        # threshold then drops tied newcomers, so which of several equal
        # scores survives may differ - the retained scores may not.
        args = _candidates(seed, 2 * budget + extra_old, n_new, tied)
        keys, values, retained_sq = _merge_deltas(*args, budget)
        ref_keys, ref_values, ref_sq = _topk_merge(*args, budget)
        assert keys.size == ref_keys.size == min(budget, args[0].size + args[2].size)
        np.testing.assert_array_equal(np.sort(np.abs(values)), np.sort(np.abs(ref_values)))
        assert retained_sq == pytest.approx(ref_sq, rel=1e-12)
        assert np.all(np.diff(keys) > 0)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_no_budget_keeps_nothing(self, budget):
        args = _candidates(1, 5, 9, tied=False)
        keys, values, retained_sq = _merge_deltas(*args, budget)
        assert keys.size == 0 and values.size == 0 and retained_sq == 0.0
        assert keys.dtype == np.int64 and values.dtype == np.float64
        _assert_bit_equal((keys, values, retained_sq), _topk_merge(*args, budget))

    @pytest.mark.parametrize("budget", [14, 15, 1000])
    def test_budget_covering_every_candidate_keeps_all(self, budget):
        args = _candidates(2, 5, 9, tied=True)
        keys, values, retained_sq = _merge_deltas(*args, budget)
        assert keys.size == 14
        np.testing.assert_array_equal(keys, np.sort(np.concatenate([args[0], args[2]])))
        _assert_bit_equal((keys, values, retained_sq), _topk_merge(*args, budget))

    @pytest.mark.parametrize("n_old, n_new", [(0, 30), (12, 0), (0, 0)])
    def test_empty_side(self, n_old, n_new):
        args = _candidates(3, n_old, n_new, tied=False)
        _assert_bit_equal(_merge_deltas(*args, 8), _topk_merge(*args, 8))

    def test_all_scores_tied_across_the_boundary(self):
        old_keys = np.arange(0, 20, 2)
        new_keys = np.arange(1, 41, 2)
        old_values = np.where(old_keys % 4 == 0, 1.5, -1.5)
        new_values = np.where(new_keys % 3 == 0, -1.5, 1.5)
        args = (old_keys, old_values, new_keys, new_values)
        for budget in (5, 7, 10, 29):  # 10 old cells: no compaction from 5 up
            _assert_bit_equal(_merge_deltas(*args, budget), _topk_merge(*args, budget))

    def test_new_side_larger_than_twice_the_budget(self):
        # TopKBuffer compacts inside the second offer - over the same
        # concatenated array the single partition sees.
        args = _candidates(4, 10, 500, tied=True)
        _assert_bit_equal(_merge_deltas(*args, 6), _topk_merge(*args, 6))


def _table(keys, values):
    return np.asarray(keys, dtype=np.int64), np.asarray(values, dtype=np.float64)


class TestChangedCellsMatchesUnion:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        universe=st.integers(1, 60),
        old_share=st.floats(0.0, 1.0),
        new_share=st.floats(0.0, 1.0),
    )
    def test_random_sorted_unique_tables(self, seed, universe, old_share, new_share):
        rng = np.random.default_rng(seed)
        cells = np.sort(rng.choice(4 * universe, size=universe, replace=False))
        old_keys = cells[rng.random(universe) < old_share]
        new_keys = cells[rng.random(universe) < new_share]
        # Two value levels: a surviving key keeps its value about half
        # the time.
        old_values = rng.choice([1.0, -2.5], size=old_keys.size)
        new_values = rng.choice([1.0, -2.5], size=new_keys.size)
        got = changed_cells(old_keys, old_values, new_keys, new_values)
        want = _union_changed(old_keys, old_values, new_keys, new_values)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.int64

    @pytest.mark.parametrize(
        "old, new, churn",
        [
            # evicted only
            (([2, 5, 9], [1.0, 2.0, 3.0]), ([5], [2.0]), [2, 9]),
            # admitted only
            (([5], [2.0]), ([2, 5, 9], [1.0, 2.0, 3.0]), [2, 9]),
            # value changed in place
            (([2, 5, 9], [1.0, 2.0, 3.0]), ([2, 5, 9], [1.0, -2.0, 3.0]), [5]),
            # identical tables
            (([2, 5, 9], [1.0, 2.0, 3.0]), ([2, 5, 9], [1.0, 2.0, 3.0]), []),
            # empty old / empty new / both
            (([], []), ([3, 4], [1.0, 1.0]), [3, 4]),
            (([3, 4], [1.0, 1.0]), ([], []), [3, 4]),
            (([], []), ([], []), []),
            # everything at once, interleaved
            (([1, 4, 6, 8], [1.0, 2.0, 3.0, 4.0]), ([0, 4, 6, 7], [9.0, 2.0, 5.0, 9.0]), [0, 1, 6, 7, 8]),
        ],
    )
    def test_named_cases(self, old, new, churn):
        got = changed_cells(*_table(*old), *_table(*new))
        np.testing.assert_array_equal(got, np.asarray(churn, dtype=np.int64))
        np.testing.assert_array_equal(got, _union_changed(*_table(*old), *_table(*new)))

    def test_key_past_the_last_old_key_does_not_alias(self):
        # searchsorted puts 50 one past the end; clipped onto the last
        # old slot it must compare unequal - even holding that slot's
        # value - and the last old key must still count as kept.
        old = _table([3, 7, 20], [1.0, 2.0, 3.0])
        new = _table([3, 7, 20, 50], [1.0, 2.0, 3.0, 3.0])
        np.testing.assert_array_equal(changed_cells(*old, *new), [50])
        np.testing.assert_array_equal(
            changed_cells(*old, *_table([50], [3.0])), [3, 7, 20, 50]
        )

    def test_float32_table_compares_by_value(self):
        old = (np.array([1, 2], dtype=np.int64), np.array([0.5, 0.1], dtype=np.float32))
        new = _table([1, 2], [0.5, 0.1])  # 0.1 is not a float32 value
        np.testing.assert_array_equal(changed_cells(*old, *new), [2])
        np.testing.assert_array_equal(_union_changed(*old, *new), [2])
