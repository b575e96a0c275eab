"""Tests for the in-memory SVD/SVDD model objects."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SVDCompressor, SVDDCompressor, SVDModel
from repro.lab.hashtable import cell_key
from repro.exceptions import ConfigurationError, QueryError, ShapeError


@pytest.fixture(scope="module")
def model(phone_small=None):
    from repro.data import phone_matrix

    return SVDCompressor(k=8).fit(phone_matrix(120))


class TestSVDModelValidation:
    def test_inconsistent_cutoff_rejected(self):
        with pytest.raises(ShapeError):
            SVDModel(np.ones((5, 2)), np.array([2.0]), np.ones((4, 2)))

    def test_unsorted_eigenvalues_rejected(self):
        with pytest.raises(ShapeError):
            SVDModel(np.ones((5, 2)), np.array([1.0, 3.0]), np.ones((4, 2)))

    def test_wrong_dims_rejected(self):
        with pytest.raises(ShapeError):
            SVDModel(np.ones(5), np.array([1.0]), np.ones((4, 1)))


class TestReconstructionConsistency:
    def test_cell_equals_eq_12(self, model):
        """reconstruct_cell implements Eq. 12 literally."""
        i, j = 17, 200
        expected = sum(
            model.eigenvalues[m] * model.u[i, m] * model.v[j, m]
            for m in range(model.cutoff)
        )
        assert model.reconstruct_cell(i, j) == pytest.approx(expected)

    def test_row_matches_cells(self, model):
        row = model.reconstruct_row(5)
        for j in (0, 100, 365):
            assert row[j] == pytest.approx(model.reconstruct_cell(5, j))

    def test_column_matches_cells(self, model):
        col = model.reconstruct_range(range(model.num_rows), [42])[:, 0]
        for i in (0, 60, 119):
            assert col[i] == pytest.approx(model.reconstruct_cell(i, 42))

    def test_full_matches_rows(self, model):
        full = model.reconstruct()
        assert np.allclose(full[7], model.reconstruct_row(7))

    def test_bounds_checked(self, model):
        with pytest.raises(QueryError):
            model.reconstruct_cell(120, 0)
        with pytest.raises(QueryError):
            model.reconstruct_cell(0, 366)
        with pytest.raises(QueryError):
            model.reconstruct_row(-1)
        with pytest.raises(QueryError):
            model.reconstruct_range([0], [400])


class TestTruncate:
    def test_truncate_prefix(self, model):
        smaller = model.truncate(3)
        assert smaller.cutoff == 3
        assert np.array_equal(smaller.eigenvalues, model.eigenvalues[:3])

    def test_truncate_equals_refit(self):
        from repro.data import phone_matrix

        x = phone_matrix(80)
        big = SVDCompressor(k=10).fit(x)
        small = SVDCompressor(k=4).fit(x)
        assert np.allclose(
            big.truncate(4).reconstruct(), small.reconstruct(), atol=1e-8
        )

    def test_truncate_bounds(self, model):
        with pytest.raises(ConfigurationError):
            model.truncate(99)
        with pytest.raises(ConfigurationError):
            model.truncate(-1)


class TestProjection:
    def test_coordinates_shape(self, model):
        coords = model.project_rows(2)
        assert coords.shape == (120, 2)

    def test_coordinates_are_u_times_lambda(self, model):
        coords = model.project_rows(2)
        assert np.allclose(coords, model.u[:, :2] * model.eigenvalues[:2])

    def test_dimension_bounds(self, model):
        with pytest.raises(ConfigurationError):
            model.project_rows(0)
        with pytest.raises(ConfigurationError):
            model.project_rows(model.cutoff + 1)


class TestCellKey:
    def test_row_major_ordinal(self):
        assert cell_key(0, 0, 10) == 0
        assert cell_key(2, 3, 10) == 23
        assert cell_key(1, 0, 366) == 366


class TestSVDDModelStats:
    def test_probe_counters_update(self):
        from repro.data import phone_matrix

        x = phone_matrix(100)
        model = SVDDCompressor(budget_fraction=0.10).fit(x)
        before = model.deltas.stats["lookups"]
        model.reconstruct_cell(0, 0)
        assert model.deltas.stats["lookups"] == before + 1

    def test_space_accounts_for_deltas(self):
        from repro.core import space
        from repro.data import phone_matrix

        x = phone_matrix(100)
        model = SVDDCompressor(budget_fraction=0.10).fit(x)
        assert model.num_deltas > 0
        expected = (
            space.svd_space_bytes(100, 366, model.cutoff)
            + 4 * (100 + 1)  # the int32 row starts
            + model.num_deltas * (2 + 8)  # a uint16 column and a float64
        )
        assert model.space_bytes() == expected


class TestWorstCaseBound:
    def test_bound_certifies_every_cell(self):
        """No cell's true error may exceed the certified bound."""
        from repro.data import phone_matrix

        x = phone_matrix(150)
        model = SVDDCompressor(budget_fraction=0.10).fit(x)
        bound = model.worst_case_bound()
        errors = np.abs(model.reconstruct() - x)
        assert errors.max() <= bound + 1e-9

    def test_bound_is_tight(self):
        """The bound equals the (gamma+1)-th largest plain-SVD error, so
        it should be of the same order as the realized worst case."""
        from repro.data import phone_matrix

        x = phone_matrix(150)
        model = SVDDCompressor(budget_fraction=0.10).fit(x)
        bound = model.worst_case_bound()
        realized = float(np.abs(model.reconstruct() - x).max())
        assert realized > bound / 100  # not absurdly loose

    def test_no_deltas_means_no_bound(self):
        """Cap k_max so the whole budget goes to components: gamma = 0
        is impossible here, so build the model by hand."""
        from repro.core import SVDDModel
        from repro.lab.hashtable import OpenAddressingTable

        rng = np.random.default_rng(1)
        x = np.outer(rng.random(100), rng.random(20))
        svd = SVDCompressor(k=1).fit(x)
        model = SVDDModel(svd=svd, deltas=OpenAddressingTable())
        assert model.worst_case_bound() == float("inf")

    def test_bound_shrinks_with_budget(self):
        from repro.data import phone_matrix

        x = phone_matrix(150)
        loose = SVDDCompressor(budget_fraction=0.05).fit(x).worst_case_bound()
        tight = SVDDCompressor(budget_fraction=0.25).fit(x).worst_case_bound()
        assert tight < loose
