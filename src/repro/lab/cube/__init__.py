"""DataCube compression (paper Section 6.1).

The SVD/SVDD machinery applies to multidimensional data by collapsing a
``productid x storeid x weekid`` cube into a matrix — either
``productid x (storeid*weekid)`` or ``(productid*storeid) x weekid`` —
after which cells remain individually reconstructible
(:class:`CubeCollapse`, :class:`CompressedCube`).

The alternative the paper cites from the PCA literature is 3-mode PCA:
approximate ``x_ijk`` by ``sum_{h,l,r} a_ih b_jl c_kr g_hlr``
(:class:`Tucker3`, fitted by HOSVD with optional HOOI/ALS refinement).
Comparing the two is the paper's stated open question; the
``bench_cube`` benchmark does exactly that.
"""

from repro.lab.cube.collapse import CompressedCube, CubeCollapse
from repro.lab.cube.nmode import TuckerN, tucker_space_bytes
from repro.lab.cube.tucker import Tucker3, tucker3_space_bytes

__all__ = [
    "CompressedCube",
    "CubeCollapse",
    "Tucker3",
    "TuckerN",
    "tucker3_space_bytes",
    "tucker_space_bytes",
]
