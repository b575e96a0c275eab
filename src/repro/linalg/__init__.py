"""Linear-algebra substrate.

The paper's out-of-core SVD reduces the decomposition of the huge
``N x M`` matrix ``X`` to an in-memory symmetric eigenproblem on the
small ``M x M`` Gram matrix ``C = X^t X`` (Lemma 3.2).  This package
provides that step:

- :class:`SymmetricEigensolver` — the interface; solvers return
  eigenpairs (:class:`EigenResult`) sorted by decreasing eigenvalue;
- :class:`NumpyEigensolver` — ``numpy.linalg.eigh``, what
  :func:`default_eigensolver` returns;
- :func:`top_eigenvalues` — for callers that need no eigenvector;
- the input checks (:func:`require_symmetric` and friends).

Product.  The from-scratch solvers (cyclic Jacobi, deflated power
iteration, Numerical Recipes' ``tred2``/``tqli``) are
``repro.lab.eigen`` and ``repro.lab.tridiagonal``.
"""

from repro.linalg.eigen import (
    EigenResult,
    NumpyEigensolver,
    SymmetricEigensolver,
    default_eigensolver,
    top_eigenvalues,
)
from repro.linalg.validate import (
    is_column_orthonormal,
    is_symmetric,
    require_matrix,
    require_symmetric,
)

__all__ = [
    "EigenResult",
    "NumpyEigensolver",
    "SymmetricEigensolver",
    "default_eigensolver",
    "top_eigenvalues",
    "is_column_orthonormal",
    "is_symmetric",
    "require_matrix",
    "require_symmetric",
]
