"""Tests for DataCube collapsing (paper Section 6.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lab.cube import CompressedCube, CubeCollapse
from repro.exceptions import ConfigurationError, QueryError, ShapeError


@pytest.fixture(scope="module")
def cube():
    """A low-rank product x store x week sales cube plus noise."""
    rng = np.random.default_rng(8)
    product = rng.random(24) * 5 + 1
    store = rng.random(10) + 0.5
    week = rng.random(16) + 0.5
    base = np.einsum("i,j,k->ijk", product, store, week)
    return base + 0.02 * rng.standard_normal(base.shape)


class TestCubeCollapse:
    def test_partition_validated(self):
        with pytest.raises(ConfigurationError):
            CubeCollapse((0, 1), (1, 2))  # overlapping
        with pytest.raises(ConfigurationError):
            CubeCollapse((0,), (2,))  # missing axis 1
        with pytest.raises(ConfigurationError):
            CubeCollapse((), (0, 1))  # empty side

    def test_matrix_shape(self):
        collapse = CubeCollapse((0,), (1, 2))
        assert collapse.matrix_shape((24, 10, 16)) == (24, 160)
        other = CubeCollapse((0, 1), (2,))
        assert other.matrix_shape((24, 10, 16)) == (240, 16)

    def test_flatten_preserves_cells(self, cube):
        collapse = CubeCollapse((0, 1), (2,))
        matrix = collapse.flatten(cube)
        for indices in [(0, 0, 0), (3, 7, 11), (23, 9, 15)]:
            row, col = collapse.cell_of(cube.shape, indices)
            assert matrix[row, col] == cube[indices]

    def test_flatten_other_grouping(self, cube):
        collapse = CubeCollapse((1,), (0, 2))
        matrix = collapse.flatten(cube)
        row, col = collapse.cell_of(cube.shape, (5, 3, 9))
        assert matrix[row, col] == cube[5, 3, 9]

    def test_cell_of_validates(self, cube):
        collapse = CubeCollapse((0,), (1, 2))
        with pytest.raises(QueryError):
            collapse.cell_of(cube.shape, (24, 0, 0))
        with pytest.raises(QueryError):
            collapse.cell_of(cube.shape, (0, 0))

    def test_most_square_picks_balanced_split(self):
        # (24, 10, 16): candidates include 24x160, 240x16, 10x384,
        # 160x24 ... the most square is (0,) x (1,2) = 24 x 160? ratio 6.7;
        # (1,) x (0,2) = 10 x 384 ratio 38.4; (2,) x (0,1) = 16 x 240 = 15;
        # so 24 x 160 wins.
        collapse = CubeCollapse.most_square((24, 10, 16))
        assert collapse.matrix_shape((24, 10, 16)) in [(24, 160), (160, 24)]

    def test_most_square_needs_2d(self):
        with pytest.raises(ShapeError):
            CubeCollapse.most_square((5,))


class TestCompressedCube:
    def test_cell_reconstruction_accurate(self, cube):
        compressed = CompressedCube(cube, budget_fraction=0.15)
        for indices in [(0, 0, 0), (12, 5, 8), (23, 9, 15)]:
            assert compressed.cell(*indices) == pytest.approx(
                cube[indices], rel=0.15, abs=0.5
            )

    def test_reconstruct_round_trips_layout(self, cube):
        """The un-collapse must invert the collapse exactly."""
        compressed = CompressedCube(cube, budget_fraction=0.3)
        recon = compressed.reconstruct()
        assert recon.shape == cube.shape
        row, col = compressed.collapse.cell_of(cube.shape, (3, 4, 5))
        assert recon[3, 4, 5] == pytest.approx(
            compressed.model.reconstruct_cell(row, col)
        )

    def test_collapse_choice_does_not_change_access(self, cube):
        """Section 6.1: how dimensions collapse never affects availability."""
        for collapse in [CubeCollapse((0,), (1, 2)), CubeCollapse((0, 1), (2,))]:
            compressed = CompressedCube(cube, 0.2, collapse=collapse)
            value = compressed.cell(3, 4, 5)
            assert value == pytest.approx(cube[3, 4, 5], rel=0.3, abs=1.0)

    def test_space_accounting(self, cube):
        compressed = CompressedCube(cube, budget_fraction=0.15)
        total = cube.size * 8
        assert compressed.space_bytes() <= 0.15 * total + 1e-9

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            CompressedCube(np.ones(5), 0.5)
