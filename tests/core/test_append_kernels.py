"""The append's delta merge against the formulation it replaced.

``_merge_deltas`` (one partition over old deltas + new residuals) must
retain exactly what a bounded ``(position, value)`` queue fed the old
side, then the new, retained (cells named here by ``row * M + col``
keys, whose order is the table's row-major order).  That queue was the build's ``TopKBuffer``
before it kept scores only; it lives on here, as the reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.update import _merge_deltas
from repro.storage.delta_file import DeltaTable

#: The width of the matrix the candidates' keys ``row * M + col`` name.
_WIDTH = 7


def _merge(old_keys, old_values, new_keys, new_values, budget):
    """``_merge_deltas`` over the cells the keys name, its table read
    back as ``(keys, values, retained_sq)``."""
    num_rows = int(max(old_keys.max(initial=0), new_keys.max(initial=0))) // _WIDTH + 1
    old = DeltaTable.from_cells(old_keys // _WIDTH, old_keys % _WIDTH, old_values, num_rows)
    table, retained_sq = _merge_deltas(
        old, new_keys // _WIDTH, new_keys % _WIDTH, new_values, budget, num_rows
    )
    return table.rows() * _WIDTH + table.cols, table.values, retained_sq


class _PairQueue:
    """Top ``capacity`` of ``(position, value)`` pairs by ``|value|``:
    a batch's values above a strict threshold are appended by position,
    and an ``argpartition`` keeps the top ``capacity`` (and raises the
    threshold to their smallest score) whenever the queue holds more
    than twice that."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.positions = np.empty(0, dtype=np.int64)
        self.values = np.empty(0)
        self.threshold = -np.inf

    def offer(self, base: int, values: np.ndarray) -> None:
        if self.capacity == 0:
            return
        survivors = np.flatnonzero(np.abs(values) > self.threshold)
        self.positions = np.concatenate([self.positions, survivors + base])
        self.values = np.concatenate([self.values, values[survivors]])
        if self.positions.size > 2 * self.capacity:
            self.compact()

    def compact(self) -> None:
        count = self.positions.size
        if count <= self.capacity:
            return
        scores = np.abs(self.values)
        keep = np.argpartition(scores, count - self.capacity)[count - self.capacity :]
        self.positions, self.values = self.positions[keep], self.values[keep]
        self.threshold = float(scores[keep].min())


def _topk_merge(old_keys, old_values, new_keys, new_values, budget):
    """``_merge_deltas`` as it was: a ``_PairQueue`` fed twice.

    The queue takes batches by position, so it ranks positions in
    old-then-new order and the cell keys are looked up afterwards.
    """
    queue = _PairQueue(max(0, budget))
    if old_keys.size:
        queue.offer(0, old_values)
    if new_keys.size:
        queue.offer(old_keys.size, new_values)
    queue.compact()
    retained_sq = float((queue.values * queue.values).sum())
    keys = np.concatenate([old_keys, new_keys])[queue.positions]
    order = np.argsort(keys)
    return keys[order], queue.values[order], retained_sq


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
        # Old side <= 2 * budget: the queue holds it uncompacted, so its
        # only partition runs over the same concatenated array.
        n_old = int(round(old_share * 2 * budget))
        args = _candidates(seed, n_old, n_new, tied)
        _assert_bit_equal(_merge(*args, budget), _topk_merge(*args, budget))

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
        # the queue compacts before the second offer and its strict
        # threshold then drops tied newcomers, so which of several equal
        # scores survives may differ - the retained scores may not.
        args = _candidates(seed, 2 * budget + extra_old, n_new, tied)
        keys, values, retained_sq = _merge(*args, budget)
        ref_keys, ref_values, ref_sq = _topk_merge(*args, budget)
        assert keys.size == ref_keys.size == min(budget, args[0].size + args[2].size)
        np.testing.assert_array_equal(np.sort(np.abs(values)), np.sort(np.abs(ref_values)))
        assert retained_sq == pytest.approx(ref_sq, rel=1e-12)
        assert np.all(np.diff(keys) > 0)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_no_budget_keeps_nothing(self, budget):
        args = _candidates(1, 5, 9, tied=False)
        keys, values, retained_sq = _merge(*args, budget)
        assert keys.size == 0 and values.size == 0 and retained_sq == 0.0
        assert keys.dtype == np.int64 and values.dtype == np.float64
        _assert_bit_equal((keys, values, retained_sq), _topk_merge(*args, budget))

    @pytest.mark.parametrize("budget", [14, 15, 1000])
    def test_budget_covering_every_candidate_keeps_all(self, budget):
        args = _candidates(2, 5, 9, tied=True)
        keys, values, retained_sq = _merge(*args, budget)
        assert keys.size == 14
        np.testing.assert_array_equal(keys, np.sort(np.concatenate([args[0], args[2]])))
        _assert_bit_equal((keys, values, retained_sq), _topk_merge(*args, budget))

    @pytest.mark.parametrize("n_old, n_new", [(0, 30), (12, 0), (0, 0)])
    def test_empty_side(self, n_old, n_new):
        args = _candidates(3, n_old, n_new, tied=False)
        _assert_bit_equal(_merge(*args, 8), _topk_merge(*args, 8))

    def test_all_scores_tied_across_the_boundary(self):
        old_keys = np.arange(0, 20, 2)
        new_keys = np.arange(1, 41, 2)
        old_values = np.where(old_keys % 4 == 0, 1.5, -1.5)
        new_values = np.where(new_keys % 3 == 0, -1.5, 1.5)
        args = (old_keys, old_values, new_keys, new_values)
        for budget in (5, 7, 10, 29):  # 10 old cells: no compaction from 5 up
            _assert_bit_equal(_merge(*args, budget), _topk_merge(*args, budget))

    def test_new_side_larger_than_twice_the_budget(self):
        # The queue compacts inside the second offer - over the same
        # concatenated array the single partition sees.
        args = _candidates(4, 10, 500, tied=True)
        _assert_bit_equal(_merge(*args, 6), _topk_merge(*args, 6))

