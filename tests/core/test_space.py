"""Tests for the Eq. 9 space accounting."""

from __future__ import annotations

import pytest

from repro.core import space
from repro.exceptions import BudgetError, ConfigurationError


class TestSVDSpace:
    def test_eq_9_formula(self):
        # (N*k + k + k*M) * b
        assert space.svd_space_bytes(100, 10, 3) == (300 + 3 + 30) * 8

    def test_fraction_approximates_k_over_m(self):
        """Eq. 9's approximation s ~ k/M when N >> M >= k."""
        fraction = space.svd_space_fraction(1_000_000, 366, 37)
        assert fraction == pytest.approx(37 / 366, rel=0.01)

    def test_zero_k(self):
        assert space.svd_space_bytes(10, 10, 0) == 0

    def test_negative_k_rejected(self):
        with pytest.raises(ConfigurationError):
            space.svd_space_bytes(10, 10, -1)

    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            space.uncompressed_bytes(0, 5)

    def test_custom_bytes_per_value(self):
        assert space.svd_space_bytes(10, 5, 2, bytes_per_value=4) == (20 + 2 + 10) * 4


class TestMaxKForBudget:
    def test_exact_boundary(self):
        # per-component cost = (N + 1 + M) * b = (100+1+10)*8 = 888 bytes
        # uncompressed = 100*10*8 = 8000 bytes
        assert space.max_k_for_budget(100, 10, 888 / 8000) == 1
        assert space.max_k_for_budget(100, 10, 887 / 8000 + 2 * 888 / 8000) == 2

    def test_capped_at_rank_bound(self):
        # Full budget: floor(N*M / (N+1+M)) components fit, capped at min(N, M).
        # Even at s=1.0, k=M never fits: N*M + M + M^2 > N*M.
        assert space.max_k_for_budget(100, 10, 1.0) == 9
        assert space.max_k_for_budget(10000, 10, 1.0) == 9
        assert space.max_k_for_budget(5, 100, 1.0) == 4
        # The min(N, M) cap binds when one dimension is tiny vs the budget.
        assert space.max_k_for_budget(2, 100, 1.0) == 1

    def test_too_small_budget_raises(self):
        with pytest.raises(BudgetError):
            space.max_k_for_budget(100, 10, 0.001)

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            space.max_k_for_budget(10, 10, 0.0)
        with pytest.raises(ConfigurationError):
            space.max_k_for_budget(10, 10, 1.5)


class TestDeltaBudget:
    def test_remaining_budget_buys_deltas(self):
        # budget 10% of 1000x100x8 = 80_000 B; k=1 costs (1000+1+100)*8 =
        # 8808 B and the row starts 4 * 1001 = 4004 B; a delta is a
        # 2-byte column and an 8-byte value.
        gamma = space.delta_budget(1000, 100, 1, 0.10)
        assert gamma == (80_000 - 8808 - 4004) // 10

    def test_never_negative(self):
        assert space.delta_budget(1000, 100, 99, 0.01) == 0

    def test_monotone_decreasing_in_k(self):
        gammas = [space.delta_budget(500, 50, k, 0.2) for k in range(1, 10)]
        assert gammas == sorted(gammas, reverse=True)

    def test_svdd_space_combines(self):
        assert space.svdd_space_bytes(100, 10, 2, 5) == space.svd_space_bytes(
            100, 10, 2
        ) + 4 * 101 + 5 * 10
        # No delta, no table: the file is absent.
        assert space.svdd_space_bytes(100, 10, 2, 0) == space.svd_space_bytes(100, 10, 2)
        assert space.delta_record_bytes(4) == 6

    def test_negative_deltas_rejected(self):
        with pytest.raises(ConfigurationError):
            space.svdd_space_bytes(10, 10, 1, -1)
