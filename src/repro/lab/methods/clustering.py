"""Clustering-based compression (vector quantization).

The paper's clustering competitor (Section 2.2, 5.1): customers are
grouped, each cluster keeps one representative (its centroid), and each
customer stores only a reference to its cluster.  Reconstruction of
cell ``(i, j)`` returns entry ``j`` of customer ``i``'s representative.
Space: ``b*k*M`` for the representatives plus ``N*b`` for the
references — the formula the paper uses in Section 5.1.

Two fitters are provided:

- :class:`HierarchicalClusteringMethod` — from-scratch agglomerative
  clustering with **complete linkage** (the paper's configuration of
  the 'S' package: element-to-cluster distance = maximum distance to
  the cluster's members), implemented with the O(N^2) nearest-neighbor
  chain algorithm.  Quadratic in N, faithfully reproducing the paper's
  observation that it cannot scale past a few thousand rows;
- :class:`KMeansMethod` — Lloyd's algorithm with k-means++ seeding, the
  'faster, approximate' alternative the survey mentions.
"""

from __future__ import annotations

import numpy as np

from repro.core.space import BYTES_PER_VALUE, uncompressed_bytes
from repro.exceptions import BudgetError, ConfigurationError, DatasetError
from repro.lab.methods.base import CompressionMethod, FittedModel


class VQModel(FittedModel):
    """Vector-quantization model: centroids plus per-row assignments."""

    def __init__(self, centroids: np.ndarray, assignments: np.ndarray, num_cols: int) -> None:
        super().__init__(assignments.shape[0], num_cols)
        self._centroids = np.asarray(centroids, dtype=np.float64)
        self._assignments = np.asarray(assignments, dtype=np.int64)

    @property
    def num_clusters(self) -> int:
        return int(self._centroids.shape[0])

    @property
    def assignments(self) -> np.ndarray:
        """Cluster id of each row (read-only view)."""
        view = self._assignments.view()
        view.flags.writeable = False
        return view

    def reconstruct_row(self, row: int) -> np.ndarray:
        self._check_cell(row, 0)
        return self._centroids[self._assignments[row]].copy()

    def reconstruct_cell(self, row: int, col: int) -> float:
        self._check_cell(row, col)
        return float(self._centroids[self._assignments[row], col])

    def reconstruct(self) -> np.ndarray:
        return self._centroids[self._assignments]

    def space_bytes(self) -> int:
        # (b * k * M) + (N * b): representatives + one reference per row.
        return (
            self._centroids.size * BYTES_PER_VALUE
            + self._num_rows * BYTES_PER_VALUE
        )


def clusters_for_budget(num_rows: int, num_cols: int, budget_fraction: float) -> int:
    """How many representatives fit: ``k = (budget - N*b) / (M*b)``."""
    budget = budget_fraction * uncompressed_bytes(num_rows, num_cols)
    remaining = budget - num_rows * BYTES_PER_VALUE
    k = int(remaining // (num_cols * BYTES_PER_VALUE))
    if k < 1:
        raise BudgetError(
            f"budget {budget_fraction:.3%} cannot hold one representative plus "
            f"per-row references for a {num_rows}x{num_cols} matrix"
        )
    return min(k, num_rows)


def _assign_to_centroids(matrix: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid (squared Euclidean) per row."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; the ||x||^2 term is
    # constant per row and can be dropped from the argmin.
    cross = matrix @ centroids.T
    c_norms = (centroids * centroids).sum(axis=1)
    return np.argmin(c_norms[None, :] - 2.0 * cross, axis=1)


# ---------------------------------------------------------------------------
# Agglomerative hierarchical clustering (complete linkage, NN-chain)
# ---------------------------------------------------------------------------


def complete_linkage_merges(matrix: np.ndarray) -> list[tuple[int, int, float]]:
    """Full agglomeration history under complete linkage.

    Returns ``N-1`` merges as ``(cluster_a, cluster_b, height)`` where
    cluster ids are row indices (the surviving id after a merge is the
    smaller of the two).  Uses the nearest-neighbor-chain algorithm,
    which is O(N^2) time and valid for complete linkage because the
    linkage is *reducible* (merging two clusters never brings them
    closer to a third).
    """
    arr = np.asarray(matrix, dtype=np.float64)
    n = arr.shape[0]
    if n < 1:
        raise ConfigurationError("need at least one row to cluster")
    if n == 1:
        return []
    # Pairwise Euclidean distances.
    sq = (arr * arr).sum(axis=1)
    d2 = sq[:, None] - 2.0 * (arr @ arr.T) + sq[None, :]
    np.fill_diagonal(d2, np.inf)
    dist = np.sqrt(np.maximum(d2, 0.0))
    np.fill_diagonal(dist, np.inf)

    active = np.ones(n, dtype=bool)
    merges: list[tuple[int, int, float]] = []
    chain: list[int] = []
    remaining = n
    while remaining > 1:
        if not chain:
            chain.append(int(np.flatnonzero(active)[0]))
        top = chain[-1]
        row = dist[top].copy()
        row[~active] = np.inf
        nearest = int(np.argmin(row))
        if len(chain) > 1 and row[chain[-2]] <= row[nearest]:
            nearest = chain[-2]
        if len(chain) > 1 and nearest == chain[-2]:
            # Reciprocal nearest neighbors: merge.
            b = chain.pop()
            a = chain.pop()
            a, b = (a, b) if a < b else (b, a)
            height = float(dist[a, b])
            merges.append((a, b, height))
            # Complete linkage update: d(a∪b, x) = max(d(a,x), d(b,x)).
            merged = np.maximum(dist[a], dist[b])
            dist[a, :] = merged
            dist[:, a] = merged
            dist[a, a] = np.inf
            active[b] = False
            dist[b, :] = np.inf
            dist[:, b] = np.inf
            remaining -= 1
        else:
            chain.append(nearest)
    return merges


def cut_merges(merges: list[tuple[int, int, float]], num_rows: int, k: int) -> np.ndarray:
    """Labels in ``[0, k)`` from the first ``N - k`` merges by height."""
    if not 1 <= k <= num_rows:
        raise ConfigurationError(f"k must be in [1, {num_rows}], got {k}")
    parent = np.arange(num_rows)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, _height in sorted(merges, key=lambda m: m[2])[: num_rows - k]:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = np.array([find(i) for i in range(num_rows)])
    _, labels = np.unique(roots, return_inverse=True)
    return labels


class HierarchicalClusteringMethod(CompressionMethod):
    """Complete-linkage agglomerative clustering compressor.

    Args:
        max_rows: guard rail reproducing the paper's scale-up failure —
            fitting more rows than this raises :class:`DatasetError`
            ('the current version of the clustering method could not
            scale up beyond N = 3000', Section 5.3).
    """

    name = "hc"

    def __init__(self, max_rows: int = 3000) -> None:
        self.max_rows = max_rows

    def fit(self, matrix: np.ndarray, budget_fraction: float) -> VQModel:
        arr = self._validate(matrix, budget_fraction)
        num_rows, num_cols = arr.shape
        if num_rows > self.max_rows:
            raise DatasetError(
                f"hierarchical clustering is quadratic and capped at "
                f"{self.max_rows} rows; got {num_rows}"
            )
        k = clusters_for_budget(num_rows, num_cols, budget_fraction)
        merges = complete_linkage_merges(arr)
        labels = cut_merges(merges, num_rows, k)
        centroids = np.vstack(
            [arr[labels == c].mean(axis=0) for c in range(labels.max() + 1)]
        )
        return VQModel(centroids, labels, num_cols)


class KMeansMethod(CompressionMethod):
    """Lloyd's k-means with k-means++ seeding.

    Args:
        max_iterations: Lloyd iteration cap.
        tol: relative centroid-movement convergence threshold.
        seed: PRNG seed for the k-means++ initialization.
    """

    name = "kmeans"

    def __init__(self, max_iterations: int = 50, tol: float = 1e-6, seed: int = 42) -> None:
        if max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        self.max_iterations = max_iterations
        self.tol = tol
        self.seed = seed

    def _seed_centroids(self, arr: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
        """k-means++: spread initial centroids by squared-distance sampling."""
        n = arr.shape[0]
        centroids = np.empty((k, arr.shape[1]))
        centroids[0] = arr[rng.integers(n)]
        closest = ((arr - centroids[0]) ** 2).sum(axis=1)
        for i in range(1, k):
            total = closest.sum()
            if total <= 0:
                centroids[i:] = centroids[0]
                break
            probs = closest / total
            centroids[i] = arr[rng.choice(n, p=probs)]
            dist = ((arr - centroids[i]) ** 2).sum(axis=1)
            closest = np.minimum(closest, dist)
        return centroids

    def fit(self, matrix: np.ndarray, budget_fraction: float) -> VQModel:
        arr = self._validate(matrix, budget_fraction)
        num_rows, num_cols = arr.shape
        k = clusters_for_budget(num_rows, num_cols, budget_fraction)
        rng = np.random.default_rng(self.seed)
        centroids = self._seed_centroids(arr, k, rng)
        labels = _assign_to_centroids(arr, centroids)
        for _ in range(self.max_iterations):
            new_centroids = centroids.copy()
            for c in range(k):
                members = arr[labels == c]
                if members.shape[0]:
                    new_centroids[c] = members.mean(axis=0)
            movement = float(np.abs(new_centroids - centroids).max())
            scale = max(1.0, float(np.abs(centroids).max()))
            centroids = new_centroids
            new_labels = _assign_to_centroids(arr, centroids)
            if movement <= self.tol * scale and np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels
        return VQModel(centroids, labels, num_cols)
