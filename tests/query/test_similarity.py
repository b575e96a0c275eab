"""Tests for similarity search in SVD space."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SVDCompressor, SVDDCompressor, build_compressed
from repro.lab.documents import DocumentsConfig, document_topics, documents_matrix
from repro.exceptions import ConfigurationError, QueryError
from repro.lab.similarity import (
    distance_distortion,
    factor_distances,
    similar_rows,
    similar_to_vector,
)


@pytest.fixture(scope="module")
def documents():
    return documents_matrix(300)


@pytest.fixture(scope="module")
def topics():
    return document_topics(300)


@pytest.fixture(scope="module")
def model(documents):
    return SVDCompressor(k=8).fit(documents)


class TestFactorDistances:
    def test_self_distance_zero(self, model):
        assert factor_distances(model, 5)[5] == pytest.approx(0.0)

    def test_full_rank_distances_exact(self, rng):
        x = rng.standard_normal((40, 10))
        full = SVDCompressor(k=10).fit(x)
        true = np.linalg.norm(x[3] - x[17])
        assert factor_distances(full, 3)[17] == pytest.approx(true, rel=1e-8)

    def test_bounds(self, model):
        with pytest.raises(QueryError):
            factor_distances(model, 300)


class TestSimilarRows:
    def test_excludes_self(self, model):
        assert 7 not in similar_rows(model, 7, count=10)

    def test_neighbors_share_the_query_topic(self, model, topics):
        """LSI's promise: factor-space neighbors are topically alike."""
        hits = 0
        trials = 30
        for row in range(trials):
            neighbors = similar_rows(model, row, count=5)
            same = sum(1 for n in neighbors if topics[n] == topics[row])
            hits += same
        # Random chance with 6 topics would be ~1/6; require far better.
        assert hits / (trials * 5) > 0.5

    def test_count_clamped(self, model):
        assert similar_rows(model, 0, count=10_000).shape[0] == 299

    def test_sorted_by_distance(self, model):
        neighbors = similar_rows(model, 3, count=8)
        distances = factor_distances(model, 3)[neighbors]
        assert np.all(np.diff(distances) >= -1e-12)

    def test_invalid_count(self, model):
        with pytest.raises(ConfigurationError):
            similar_rows(model, 0, count=0)

    def test_works_on_svdd(self, documents):
        svdd = SVDDCompressor(budget_fraction=0.2).fit(documents)
        assert similar_rows(svdd, 0, count=3).shape == (3,)

    def test_any_factor_backend(self, tmp_path, documents):
        """Similarity reads the backend seam's ``factors``: a persistent
        store finds its compressor's in-memory neighbours, a factor-less
        source is refused."""
        svdd = SVDDCompressor(budget_fraction=0.2).fit(documents)
        with build_compressed(documents, tmp_path / "m", 0.2) as store:
            assert list(similar_rows(store, 0, count=5)) == list(
                similar_rows(svdd, 0, count=5)
            )
        with pytest.raises(QueryError):
            similar_rows(documents, 0)


class TestQueryFolding:
    def test_document_finds_itself(self, model, documents):
        """Folding a row's own vector must rank that row first."""
        found = similar_to_vector(model, documents[42], count=1)
        assert found[0] == 42

    def test_topic_probe_finds_topic_documents(self, model, documents, topics):
        """A synthetic query made of topic-0 documents retrieves topic 0."""
        topic0 = documents[topics == 0]
        probe = topic0.mean(axis=0)
        found = similar_to_vector(model, probe, count=10)
        same = sum(1 for idx in found if topics[idx] == 0)
        assert same >= 7

    def test_shape_validated(self, model):
        with pytest.raises(QueryError):
            similar_to_vector(model, np.ones(3))


class TestDistortion:
    def test_full_rank_distortion_zero(self, rng):
        x = rng.standard_normal((50, 12))
        full = SVDCompressor(k=12).fit(x)
        assert distance_distortion(full, x) < 1e-9

    def test_truncation_distorts_moderately(self, model, documents):
        """'Preserving distances well': median relative error stays small
        even at k=8 of 200 dimensions."""
        assert distance_distortion(model, documents) < 0.35

    def test_distortion_decreases_with_k(self, documents):
        errors = [
            distance_distortion(SVDCompressor(k=k).fit(documents), documents)
            for k in (2, 8, 32)
        ]
        assert errors == sorted(errors, reverse=True)

    def test_shape_mismatch(self, model):
        with pytest.raises(QueryError):
            distance_distortion(model, np.ones((5, 5)))
