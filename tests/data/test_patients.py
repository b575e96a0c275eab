"""Tests for the heterogeneous patient-record dataset and the paper's
Section 2.3 argument: SVD applies to arbitrary vectors, spectral
methods do not."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.patients import (
    PATIENT_FIELDS,
    PatientsConfig,
    patient_field_names,
    patients_matrix,
)
from repro.exceptions import DatasetError
from repro.lab.methods import DCTMethod, SVDMethod
from repro.metrics import rmspe


class TestGenerator:
    def test_shape(self):
        assert patients_matrix(50).shape == (50, len(PATIENT_FIELDS))

    def test_prefix_stable(self):
        assert np.array_equal(patients_matrix(20), patients_matrix(60)[:20])

    def test_deterministic(self):
        assert np.array_equal(patients_matrix(30), patients_matrix(30))

    def test_rejects_zero_rows(self):
        with pytest.raises(DatasetError):
            patients_matrix(0)

    def test_field_names(self):
        names = patient_field_names()
        assert len(names) == len(PATIENT_FIELDS)
        assert "cholesterol_mgdl" in names

    def test_low_rank_structure(self):
        """A few latent factors dominate (so SVD compresses well)."""
        x = patients_matrix(400)
        centered = x - x.mean(axis=0)
        singular = np.linalg.svd(centered, compute_uv=False)
        energy = np.cumsum(singular**2) / np.sum(singular**2)
        assert energy[PatientsConfig().num_factors] > 0.85

    def test_columns_have_heterogeneous_scales(self):
        x = patients_matrix(300)
        means = x.mean(axis=0)
        assert means.max() / max(means.min(), 1e-9) > 50  # cm vs mg/dL etc.


class TestSection23Argument:
    """'In such a setting, the spectral methods do not apply.'"""

    @pytest.fixture(scope="class")
    def records(self):
        return patients_matrix(400)

    def test_svd_error_invariant_to_column_order(self, records):
        """SVD treats rows as vectors: permuting columns permutes V's
        rows and changes nothing else."""
        rng = np.random.default_rng(4)
        permutation = rng.permutation(records.shape[1])
        budget = 0.30
        original = rmspe(records, SVDMethod().fit(records, budget).reconstruct())
        shuffled = records[:, permutation]
        permuted = rmspe(shuffled, SVDMethod().fit(shuffled, budget).reconstruct())
        assert permuted == pytest.approx(original, rel=1e-9)

    def test_dct_error_depends_on_column_order(self, records):
        """A frequency transform assumes adjacent columns are related —
        meaningless for heterogeneous fields, so its quality is an
        artifact of the arbitrary column order."""
        rng = np.random.default_rng(4)
        budget = 0.30
        errors = []
        for trial in range(5):
            permutation = rng.permutation(records.shape[1])
            shuffled = records[:, permutation]
            errors.append(
                rmspe(shuffled, DCTMethod().fit(shuffled, budget).reconstruct())
            )
        assert max(errors) / min(errors) > 1.02  # order-sensitive

    def test_svd_compresses_patient_records_well(self, records):
        """SVD at 30% space reconstructs heterogeneous records accurately."""
        model = SVDMethod().fit(records, 0.30)
        assert rmspe(records, model.reconstruct()) < 0.15
