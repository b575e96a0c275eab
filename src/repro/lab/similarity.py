"""Similarity search in SVD space.

The paper's conclusions list this as a free byproduct: 'like SVD, it
naturally leads to dimensionality reduction of the given dataset while
still preserving distances well'.  Rows live as k-dimensional points
``u_i * Lambda`` (Observation 3.4); distances between those points
approximate the original M-dimensional Euclidean distances (exactly, at
full rank), so nearest-neighbor queries — 'find customers that behave
like this one', or Latent Semantic Indexing's 'find documents about
this topic' from the paper's introduction — run in O(N k) instead of
O(N M).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, QueryError
from repro.query.backend import as_backend


def _factor_space(model) -> tuple[np.ndarray, np.ndarray]:
    """``(coordinates, v)``: every row as its k-dimensional point
    ``u_i * Lambda``, and ``V`` for folding external vectors in.

    ``model`` is any source whose backend offers ``factors`` — an
    in-memory SVD/SVDD model or a persistent ``CompressedMatrix``.
    """
    backend = as_backend(model)
    if backend.factors is None:
        raise QueryError(f"{backend.name} has no factor form to search in")
    coords, v, _deltas, _fetched = backend.factors(np.arange(backend.shape[0]))
    return coords, v


def factor_distances(model, row: int) -> np.ndarray:
    """Euclidean distances from ``row`` to every row, in factor space."""
    coords, _v = _factor_space(model)
    if not 0 <= row < coords.shape[0]:
        raise QueryError(f"row {row} out of range [0, {coords.shape[0]})")
    diff = coords - coords[row]
    return np.sqrt((diff * diff).sum(axis=1))


def similar_rows(model, row: int, count: int = 10) -> np.ndarray:
    """The ``count`` nearest rows to ``row`` by factor-space distance.

    Excludes the query row itself; O(N k) time.
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    distances = factor_distances(model, row)
    distances[row] = np.inf
    count = min(count, distances.shape[0] - 1)
    nearest = np.argpartition(distances, count)[:count]
    return nearest[np.argsort(distances[nearest])]


def similar_to_vector(model, vector: np.ndarray, count: int = 10) -> np.ndarray:
    """Nearest rows to an *external* M-dimensional query vector.

    The vector is folded into factor space by projection (the paper's
    Eq. 11, the same operation LSI uses for query folding), then ranked
    by distance — 'find customers matching this profile' without the
    profile being in the dataset.
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    coords, v = _factor_space(model)
    query = np.asarray(vector, dtype=np.float64)
    if query.shape != (v.shape[0],):
        raise QueryError(
            f"query vector must have shape ({v.shape[0]},), got {query.shape}"
        )
    # Fold in: coordinates in the U*Lambda space are simply x @ V.
    folded = query @ v
    diff = coords - folded
    distances = np.sqrt((diff * diff).sum(axis=1))
    count = min(count, distances.shape[0])
    nearest = np.argpartition(distances, count - 1)[:count]
    return nearest[np.argsort(distances[nearest])]


def distance_distortion(
    model, matrix: np.ndarray, sample_pairs: int = 200, seed: int = 5
) -> float:
    """How well factor-space distances preserve true distances.

    Returns the median relative error of pairwise distances over a
    random sample — the 'preserving distances well' claim quantified.
    """
    coords, v = _factor_space(model)
    data = np.asarray(matrix, dtype=np.float64)
    shape = (coords.shape[0], v.shape[0])
    if data.shape != shape:
        raise QueryError(f"matrix shape {data.shape} != model shape {shape}")
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, data.shape[0], size=(sample_pairs, 2))
    errors = []
    for a, b in pairs:
        if a == b:
            continue
        true = float(np.linalg.norm(data[a] - data[b]))
        approx = float(np.linalg.norm(coords[a] - coords[b]))
        if true > 0:
            errors.append(abs(approx - true) / true)
    return float(np.median(errors)) if errors else 0.0
