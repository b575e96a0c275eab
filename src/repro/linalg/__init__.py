"""Linear-algebra substrate.

The paper's out-of-core SVD reduces the decomposition of the huge
``N x M`` matrix ``X`` to an in-memory symmetric eigenproblem on the
small ``M x M`` Gram matrix ``C = X^t X`` (Lemma 3.2).  This package
provides the eigensolvers for that step:

- :class:`JacobiEigensolver` — a from-scratch cyclic Jacobi rotation
  solver, the kind of self-contained numerical kernel a 1997 system
  would ship;
- :class:`NumpyEigensolver` — a thin wrapper over ``numpy.linalg.eigh``
  used for cross-validation and speed;
- :class:`PowerIterationEigensolver` — deflated power iteration, useful
  when only the top-k eigenpairs are needed;
- :class:`TridiagonalEigensolver` — the Numerical Recipes
  ``tred2``/``tqli`` pipeline (Householder reduction + implicit-shift
  QL), the era-faithful from-scratch solver the paper's citation ships.

All solvers implement the :class:`SymmetricEigensolver` interface and
return eigenpairs sorted by decreasing eigenvalue;
:func:`top_eigenvalues` is for callers that need no eigenvector.
"""

from repro.linalg.eigen import (
    EigenResult,
    JacobiEigensolver,
    NumpyEigensolver,
    PowerIterationEigensolver,
    SymmetricEigensolver,
    default_eigensolver,
    top_eigenvalues,
)
from repro.linalg.tridiagonal import (
    TridiagonalEigensolver,
    householder_tridiagonalize,
    ql_implicit_shift,
)
from repro.linalg.validate import (
    is_column_orthonormal,
    is_symmetric,
    require_matrix,
    require_symmetric,
)

__all__ = [
    "EigenResult",
    "JacobiEigensolver",
    "NumpyEigensolver",
    "PowerIterationEigensolver",
    "SymmetricEigensolver",
    "TridiagonalEigensolver",
    "default_eigensolver",
    "householder_tridiagonalize",
    "ql_implicit_shift",
    "top_eigenvalues",
    "is_column_orthonormal",
    "is_symmetric",
    "require_matrix",
    "require_symmetric",
]
