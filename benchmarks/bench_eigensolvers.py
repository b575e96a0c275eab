"""Substrate bench: the lab's symmetric eigensolvers against LAPACK.

The two-pass algorithm's in-memory step is the eigendecomposition of
the M x M Gram matrix, which the product hands to LAPACK
(``repro.core.svd.eigenpairs``).  This bench compares four solvers —
LAPACK (numpy), the from-scratch cyclic Jacobi, Householder + implicit
QL, and deflated power iteration for top-k — on a real Gram matrix,
reporting wall time and agreement with LAPACK.

Expected shape: all three agree to tight tolerance; LAPACK is fastest;
power iteration wins when only a few components are needed relative to
a full Jacobi solve.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import emit, format_table
from repro.core import compute_gram
from repro.lab.eigen import (
    JacobiEigensolver,
    NumpyEigensolver,
    PowerIterationEigensolver,
)
from repro.lab.tridiagonal import TridiagonalEigensolver


def test_eigensolvers(stocks381, benchmark):
    gram = compute_gram(stocks381)  # 128 x 128
    k = 10

    reference = NumpyEigensolver().decompose_top(gram, k)
    rows = []
    agreements = {}
    for name, solver in (
        ("numpy (LAPACK)", NumpyEigensolver()),
        ("jacobi (from scratch)", JacobiEigensolver()),
        ("householder+QL (from scratch)", TridiagonalEigensolver()),
        ("power iteration", PowerIterationEigensolver()),
    ):
        start = time.perf_counter()
        result = solver.decompose_top(gram.copy(), k)
        elapsed = time.perf_counter() - start
        deviation = float(
            np.abs(result.values - reference.values).max()
            / max(reference.values[0], 1e-12)
        )
        agreements[name] = deviation
        rows.append([name, f"{elapsed * 1e3:.1f}", f"{deviation:.2e}"])
    lines = format_table(
        f"Eigensolvers on the stocks Gram matrix (128 x 128, top {k})",
        ["solver", "ms", "max rel. eigenvalue deviation"],
        rows,
    )
    emit("eigensolvers", lines)

    assert all(dev < 1e-6 for dev in agreements.values()), agreements

    benchmark(lambda: NumpyEigensolver().decompose_top(gram, k))
