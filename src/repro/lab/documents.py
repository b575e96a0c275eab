"""Synthetic term-document dataset (the paper's IR setting).

The introduction's third example: 'In information retrieval systems
rows could be text documents, columns could be vocabulary terms, with
the (i, j) entry showing the importance of the j-th term for the i-th
document' — the Latent Semantic Indexing setting the paper cites.

The generator produces a documents x terms importance matrix from a
topic model: each of a few topics owns a distribution over the
vocabulary; each document mixes one or two topics and draws term
weights accordingly.  Low rank comes from the topics; sparsity and
burstiness come from per-document sampling.  Rows are prefix-stable
like the other generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DatasetError


@dataclass(frozen=True)
class DocumentsConfig:
    """Parameters of the synthetic term-document matrix.

    Attributes:
        vocabulary_size: number of term columns.
        num_topics: latent topics (the matrix's approximate rank).
        terms_per_document: expected distinct terms per document.
        seed: master seed.
    """

    vocabulary_size: int = 200
    num_topics: int = 6
    terms_per_document: int = 40
    seed: int = 19970815


def documents_matrix(
    num_rows: int, config: DocumentsConfig | None = None
) -> np.ndarray:
    """An ``num_rows x vocabulary_size`` term-importance matrix."""
    if num_rows < 1:
        raise DatasetError(f"num_rows must be >= 1, got {num_rows}")
    config = config or DocumentsConfig()
    if config.vocabulary_size < config.num_topics:
        raise DatasetError("vocabulary must be at least as large as the topics")

    topic_rng = np.random.default_rng([config.seed, 5])
    # Each topic concentrates on its own slice of vocabulary plus a
    # smattering of shared terms (Zipf-ish within topic).
    topics = topic_rng.dirichlet(
        np.full(config.vocabulary_size, 0.05), size=config.num_topics
    )

    out = np.zeros((num_rows, config.vocabulary_size))
    for i in range(num_rows):
        rng = np.random.default_rng([config.seed, 23, i])
        primary = int(rng.integers(config.num_topics))
        if rng.random() < 0.3:  # many documents straddle two topics
            secondary = int(rng.integers(config.num_topics))
            mix = 0.7 * topics[primary] + 0.3 * topics[secondary]
        else:
            mix = topics[primary]
        counts = rng.multinomial(config.terms_per_document, mix)
        # tf-idf-flavoured importances: log-scaled counts with noise.
        weights = np.log1p(counts) * rng.lognormal(0.0, 0.2, config.vocabulary_size)
        out[i] = weights
    return out


def document_topics(num_rows: int, config: DocumentsConfig | None = None) -> np.ndarray:
    """The primary topic label of each generated document (for tests)."""
    config = config or DocumentsConfig()
    labels = np.empty(num_rows, dtype=np.int64)
    for i in range(num_rows):
        rng = np.random.default_rng([config.seed, 23, i])
        labels[i] = int(rng.integers(config.num_topics))
    return labels
