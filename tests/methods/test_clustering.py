"""Tests for the clustering compression methods."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.cluster.hierarchy as sch
import scipy.spatial.distance as ssd

from repro.exceptions import BudgetError, ConfigurationError, DatasetError
from repro.lab.methods import (
    HierarchicalClusteringMethod,
    KMeansMethod,
    clusters_for_budget,
    complete_linkage_merges,
    cut_merges,
)
from repro.metrics import rmspe


@pytest.fixture(scope="module")
def blobs():
    """Three well-separated Gaussian blobs."""
    rng = np.random.default_rng(3)
    centers = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
    points = np.vstack(
        [center + rng.standard_normal((30, 2)) * 0.5 for center in centers]
    )
    return points


class TestNNChain:
    def test_merge_count(self, blobs):
        merges = complete_linkage_merges(blobs)
        assert len(merges) == blobs.shape[0] - 1

    def test_heights_match_scipy(self, blobs):
        """Complete-linkage dendrogram heights must equal scipy's."""
        ours = sorted(height for _a, _b, height in complete_linkage_merges(blobs))
        ref = sorted(sch.linkage(ssd.pdist(blobs), method="complete")[:, 2])
        assert np.allclose(ours, ref, atol=1e-9)

    def test_single_point(self):
        assert complete_linkage_merges(np.ones((1, 3))) == []

    def test_two_points(self):
        merges = complete_linkage_merges(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert len(merges) == 1
        assert merges[0][2] == pytest.approx(5.0)


class TestCutMerges:
    def test_recovers_blobs(self, blobs):
        merges = complete_linkage_merges(blobs)
        labels = cut_merges(merges, blobs.shape[0], 3)
        # Each true blob must be a single cluster.
        assert len(set(labels[:30])) == 1
        assert len(set(labels[30:60])) == 1
        assert len(set(labels[60:])) == 1
        assert len(set(labels.tolist())) == 3

    def test_k_equals_n(self, blobs):
        labels = cut_merges(complete_linkage_merges(blobs), blobs.shape[0], 90)
        assert len(set(labels.tolist())) == 90

    def test_k_equals_one(self, blobs):
        labels = cut_merges(complete_linkage_merges(blobs), blobs.shape[0], 1)
        assert len(set(labels.tolist())) == 1

    def test_invalid_k(self, blobs):
        merges = complete_linkage_merges(blobs)
        with pytest.raises(ConfigurationError):
            cut_merges(merges, blobs.shape[0], 0)
        with pytest.raises(ConfigurationError):
            cut_merges(merges, blobs.shape[0], 91)


class TestBudget:
    def test_formula(self):
        # budget 10% of 1000 x 100 = 80_000 B; refs cost 8_000 B;
        # each representative costs 800 B -> 90 clusters.
        assert clusters_for_budget(1000, 100, 0.10) == 90

    def test_too_small(self):
        with pytest.raises(BudgetError):
            clusters_for_budget(1000, 100, 0.001)

    def test_full_budget(self):
        # budget 400 B - 40 B of references = 360 B -> 4 representatives
        # of 80 B each.  (The k <= N cap can never bind at fractions <= 1:
        # it would require more than 100% of the original space.)
        assert clusters_for_budget(5, 10, 1.0) == 4


class TestHierarchicalMethod:
    def test_reconstruction_is_centroid(self, blobs):
        model = HierarchicalClusteringMethod().fit(blobs, 0.8)
        labels = model.assignments
        for cluster in set(labels.tolist()):
            members = blobs[labels == cluster]
            centroid = members.mean(axis=0)
            for idx in np.flatnonzero(labels == cluster)[:3]:
                assert np.allclose(model.reconstruct_row(int(idx)), centroid)

    def test_space_within_budget(self, phone_small):
        model = HierarchicalClusteringMethod().fit(phone_small, 0.10)
        assert model.space_fraction() <= 0.10 + 1e-12

    def test_scale_guard(self, rng):
        """Reproduces the paper: HC cannot scale past a few thousand rows."""
        method = HierarchicalClusteringMethod(max_rows=100)
        with pytest.raises(DatasetError):
            method.fit(rng.standard_normal((101, 4)), 0.5)

    def test_well_separated_data_perfectly_compressed(self, blobs):
        """With k >= true cluster count, error is just within-blob spread."""
        model = HierarchicalClusteringMethod().fit(blobs, 0.8)
        assert rmspe(blobs, model.reconstruct()) < 0.10

    def test_deterministic(self, phone_small):
        a = HierarchicalClusteringMethod().fit(phone_small, 0.05)
        b = HierarchicalClusteringMethod().fit(phone_small, 0.05)
        assert np.array_equal(a.assignments, b.assignments)


class TestKMeansMethod:
    def test_recovers_blobs(self, blobs):
        model = KMeansMethod(seed=0).fit(blobs, 0.8)
        assert rmspe(blobs, model.reconstruct()) < 0.10

    def test_deterministic_given_seed(self, phone_small):
        a = KMeansMethod(seed=5).fit(phone_small, 0.05)
        b = KMeansMethod(seed=5).fit(phone_small, 0.05)
        assert np.array_equal(a.assignments, b.assignments)

    def test_space_within_budget(self, phone_small):
        model = KMeansMethod().fit(phone_small, 0.08)
        assert model.space_fraction() <= 0.08 + 1e-12

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            KMeansMethod(max_iterations=0)

    def test_scales_beyond_hc_limit(self, rng):
        """k-means handles sizes where the quadratic HC refuses."""
        big = rng.standard_normal((500, 10))
        method = KMeansMethod(max_iterations=5)
        model = method.fit(big, 0.3)
        assert model.reconstruct().shape == big.shape


class TestVQModel:
    def test_num_clusters(self, phone_small):
        model = KMeansMethod().fit(phone_small, 0.10)
        assert model.num_clusters == clusters_for_budget(*phone_small.shape, 0.10)

    def test_assignments_read_only(self, phone_small):
        model = KMeansMethod().fit(phone_small, 0.10)
        with pytest.raises(ValueError):
            model.assignments[0] = 99
