"""Scatter-plot projections and ASCII rendering (paper Fig. 11)."""

from __future__ import annotations

import numpy as np

from repro.core.model import SVDModel
from repro.core.svd import SVDCompressor
from repro.exceptions import ConfigurationError


def scatter_coordinates(
    source: np.ndarray | SVDModel, dimensions: int = 2
) -> np.ndarray:
    """Coordinates of every row in the leading SVD dimensions.

    Accepts either a raw matrix (an SVD is computed) or an
    already-fitted :class:`SVDModel` with at least ``dimensions``
    components.  Row ``i`` maps to ``u[i, :d] * lambda[:d]``
    (Observation 3.4).
    """
    if dimensions < 1:
        raise ConfigurationError(f"dimensions must be >= 1, got {dimensions}")
    if isinstance(source, SVDModel):
        model = source
    else:
        model = SVDCompressor(k=dimensions).fit(np.asarray(source, dtype=np.float64))
    return model.project_rows(min(dimensions, model.cutoff))


def outlier_rows(coordinates: np.ndarray, z_threshold: float = 4.0) -> np.ndarray:
    """Indices of scatter points unusually far from the point cloud.

    A point is an outlier when its distance from the centroid exceeds
    ``z_threshold`` times the RMS distance — the 'exceptions' and
    'distractions' the paper reads off Fig. 11.
    """
    coords = np.asarray(coordinates, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[0] == 0:
        raise ConfigurationError("coordinates must be a non-empty 2-d array")
    center = coords.mean(axis=0)
    dist = np.sqrt(((coords - center) ** 2).sum(axis=1))
    rms = float(np.sqrt((dist * dist).mean()))
    if rms == 0.0:
        return np.array([], dtype=np.int64)
    return np.flatnonzero(dist > z_threshold * rms)


def ascii_scatter(
    coordinates: np.ndarray,
    width: int = 72,
    height: int = 24,
    mark_outliers: bool = True,
) -> str:
    """Render 2-d scatter coordinates as an ASCII plot.

    Density is binned into characters `` .:+#`` (more points = darker);
    outliers (per :func:`outlier_rows`) are drawn as ``@``.  Axes cross
    at the data origin when it is in range.
    """
    coords = np.asarray(coordinates, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] < 2:
        raise ConfigurationError("ascii_scatter needs (n, >=2) coordinates")
    if width < 8 or height < 4:
        raise ConfigurationError("plot must be at least 8 x 4 characters")
    x, y = coords[:, 0], coords[:, 1]
    x_min, x_max = float(x.min()), float(x.max())
    y_min, y_max = float(y.min()), float(y.max())
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    cols = np.clip(((x - x_min) / x_span * (width - 1)).astype(int), 0, width - 1)
    rows = np.clip(((y_max - y) / y_span * (height - 1)).astype(int), 0, height - 1)
    counts = np.zeros((height, width), dtype=int)
    np.add.at(counts, (rows, cols), 1)

    shades = " .:+#"
    peak = counts.max() or 1
    grid = np.full((height, width), " ", dtype="<U1")
    nonzero = counts > 0
    levels = np.clip(
        (np.log1p(counts) / np.log1p(peak) * (len(shades) - 1)).astype(int),
        1,
        len(shades) - 1,
    )
    grid[nonzero] = np.array(list(shades))[levels[nonzero]]

    if mark_outliers:
        for idx in outlier_rows(coords[:, :2]):
            grid[rows[idx], cols[idx]] = "@"

    lines = ["".join(row) for row in grid]
    header = (
        f"x: [{x_min:.3g}, {x_max:.3g}] (PC1)   "
        f"y: [{y_min:.3g}, {y_max:.3g}] (PC2)   n={coords.shape[0]}"
    )
    return "\n".join([header, "+" + "-" * width + "+"]
                     + ["|" + line + "|" for line in lines]
                     + ["+" + "-" * width + "+"])


def ascii_histogram(
    values: np.ndarray,
    bins: int = 20,
    width: int = 50,
    log_bins: bool = False,
    title: str = "",
) -> str:
    """Render a histogram of ``values`` as ASCII bars.

    With ``log_bins=True``, bin edges are logarithmic over the positive
    values — the natural view of the Fig. 8 error distribution, whose
    mass spans several orders of magnitude.
    """
    data = np.asarray(values, dtype=np.float64).ravel()
    if data.size == 0:
        raise ConfigurationError("histogram needs at least one value")
    if bins < 1 or width < 10:
        raise ConfigurationError("need bins >= 1 and width >= 10")
    if log_bins:
        positive = data[data > 0]
        if positive.size == 0:
            raise ConfigurationError("log_bins requires positive values")
        lo, hi = positive.min(), positive.max()
        if lo == hi:
            hi = lo * 10
        edges = np.logspace(np.log10(lo), np.log10(hi), bins + 1)
        counts, edges = np.histogram(positive, bins=edges)
    else:
        counts, edges = np.histogram(data, bins=bins)
    peak = counts.max() or 1
    lines = [title] if title else []
    for i, count in enumerate(counts):
        bar = "#" * int(round(width * count / peak))
        lines.append(
            f"[{edges[i]:>10.3g}, {edges[i + 1]:>10.3g})  {bar} {count}"
        )
    return "\n".join(lines)
