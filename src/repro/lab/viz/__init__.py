"""Visualization in SVD space (paper Appendix A).

SVD 'readily gives the first 2 or 3 axes' — projecting every time
sequence onto the leading principal components yields a scatter plot
showing the dataset's density, structure, and outliers (paper Fig. 11).
This package computes those projections, spots the outliers the paper
suggests storing as deltas, and renders terminal-friendly ASCII scatter
plots so the benchmark can 'draw' Fig. 11 in text output.
"""

from repro.lab.viz.scatter import (
    ascii_histogram,
    ascii_scatter,
    outlier_rows,
    scatter_coordinates,
)

__all__ = [
    "ascii_histogram",
    "ascii_scatter",
    "outlier_rows",
    "scatter_coordinates",
]
