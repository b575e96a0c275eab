#!/usr/bin/env python3
"""Latent Semantic Indexing on a compressed term-document matrix.

The paper's introduction names the IR setting explicitly — rows are
documents, columns are vocabulary terms, and SVD is 'used in text
retrieval under the name of Latent Semantic Indexing'.  This example
runs that application through the same machinery as the warehouse:

1. compress a documents x terms matrix with SVDD;
2. find documents similar to a given one (factor-space neighbors);
3. fold an external query vector into factor space and retrieve;
4. check how well the compressed space preserves distances.

Run:  python examples/text_retrieval.py
"""

from __future__ import annotations

import numpy as np

from repro import SVDDCompressor, rmspe
from repro.lab.documents import document_topics, documents_matrix
from repro.lab.similarity import (
    distance_distortion,
    similar_rows,
    similar_to_vector,
)


def main() -> None:
    corpus = documents_matrix(1000)
    topics = document_topics(1000)
    print(
        f"corpus: {corpus.shape[0]} documents x {corpus.shape[1]} terms, "
        f"{int((corpus > 0).mean() * 100)}% of entries non-zero"
    )

    model = SVDDCompressor(budget_fraction=0.10).fit(corpus)
    print(
        f"compressed at 10:1 -> k={model.cutoff} latent dimensions, "
        f"{model.num_deltas} deltas, RMSPE {rmspe(corpus, model.reconstruct()):.4f}\n"
    )

    print("=== 'more like this' (factor-space neighbors) ===")
    query_doc = 17
    neighbors = similar_rows(model, query_doc, count=5)
    print(f"document {query_doc} (topic {topics[query_doc]}) is most similar to:")
    for rank, neighbor in enumerate(neighbors, start=1):
        marker = "same topic" if topics[neighbor] == topics[query_doc] else "other"
        print(f"  {rank}. document {neighbor} (topic {topics[neighbor]}, {marker})")

    print("\n=== query folding (LSI retrieval) ===")
    topic = 2
    probe = corpus[topics == topic].mean(axis=0)  # a synthetic 'query document'
    found = similar_to_vector(model, probe, count=8)
    precision = float(np.mean(topics[found] == topic))
    print(
        f"probe built from topic {topic}: retrieved {found.tolist()} "
        f"(precision@8 = {precision:.0%})"
    )

    print("\n=== distance preservation (the conclusions' claim) ===")
    distortion = distance_distortion(model, corpus)
    print(
        f"median relative error of pairwise distances in "
        f"{model.cutoff}-d factor space: {distortion:.2%}"
    )
    print(
        f"(each similarity query costs O(N*k) = O({corpus.shape[0]}*{model.cutoff}) "
        f"instead of O(N*M) = O({corpus.shape[0]}*{corpus.shape[1]}))"
    )
    print("\ndone.")


if __name__ == "__main__":
    main()
