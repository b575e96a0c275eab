"""Tests for matrix validation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.core.update import require_matrix
from repro.lab.eigen import is_column_orthonormal, is_symmetric, require_symmetric


class TestRequireMatrix:
    def test_accepts_lists(self):
        out = require_matrix([[1, 2], [3, 4]])
        assert out.dtype == np.float64
        assert out.shape == (2, 2)

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            require_matrix(np.ones(3))

    def test_rejects_3d(self):
        with pytest.raises(ShapeError):
            require_matrix(np.ones((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            require_matrix(np.empty((0, 4)))

    def test_rejects_inf(self):
        with pytest.raises(ShapeError):
            require_matrix(np.array([[1.0, np.inf]]))

    def test_error_names_the_argument(self):
        with pytest.raises(ShapeError, match="weights"):
            require_matrix(np.ones(2), name="weights")


class TestIsSymmetric:
    def test_true_for_symmetric(self):
        assert is_symmetric(np.array([[1.0, 2.0], [2.0, 3.0]]))

    def test_false_for_asymmetric(self):
        assert not is_symmetric(np.array([[1.0, 2.0], [0.0, 3.0]]))

    def test_false_for_rectangular(self):
        assert not is_symmetric(np.ones((2, 3)))

    def test_tolerance_is_relative(self):
        mat = np.array([[1e12, 5.0], [5.0 + 1e-3, 1e12]])
        assert is_symmetric(mat, tol=1e-10)  # 1e-3 tiny vs 1e12 scale
        assert not is_symmetric(mat, tol=1e-18)


class TestRequireSymmetric:
    def test_symmetrizes_rounding_noise(self):
        mat = np.array([[1.0, 2.0 + 1e-14], [2.0, 3.0]])
        out = require_symmetric(mat)
        assert np.array_equal(out, out.T)

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeError):
            require_symmetric(np.ones((2, 3)))


class TestIsColumnOrthonormal:
    def test_identity(self):
        assert is_column_orthonormal(np.eye(4))

    def test_partial_identity(self):
        assert is_column_orthonormal(np.eye(5)[:, :2])

    def test_scaled_columns_fail(self):
        assert not is_column_orthonormal(2.0 * np.eye(3))

    def test_paper_u_matrix(self):
        """The U matrix of the paper's Eq. 5 is column-orthonormal."""
        u = np.array(
            [
                [0.18, 0.0],
                [0.36, 0.0],
                [0.18, 0.0],
                [0.90, 0.0],
                [0.0, 0.53],
                [0.0, 0.80],
                [0.0, 0.27],
            ]
        )
        # The paper rounds to 2 decimals; allow matching slack.
        assert is_column_orthonormal(u, tol=2e-2)
