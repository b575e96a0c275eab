"""The competing compression methods of the paper's survey (Section 2)
and evaluation (Section 5.1), all behind one budget-parameterized
interface:

- ``svd`` / ``delta`` — the core methods, adapted
  (:class:`SVDMethod`, :class:`SVDDMethod`);
- ``dct`` / ``dft`` / ``dwt`` — per-row spectral truncation
  (:class:`DCTMethod`, :class:`DFTMethod`, :class:`HaarWaveletMethod`);
- ``hc`` / ``kmeans`` — vector quantization by hierarchical or k-means
  clustering (:class:`HierarchicalClusteringMethod`,
  :class:`KMeansMethod`);
- ``gzip`` — the lossless reference point
  (:class:`LosslessZlibMethod`; ``decimals=2`` gives the fixed-point
  variant matching the paper's ~25%);
- ``paa`` / ``adct`` / ``rp`` — extensions bracketing the survey:
  piecewise aggregate approximation, largest-coefficient DCT, and the
  random-axis ablation (:class:`PAAMethod`, :class:`AdaptiveDCTMethod`,
  :class:`RandomProjectionMethod`);
- ``std+<inner>`` — per-column standardization wrapper for
  heterogeneous vectors (:class:`StandardizedMethod`).
"""

from repro.lab.methods.adaptive import AdaptiveDCTMethod, RandomProjectionMethod
from repro.lab.methods.base import CompressionMethod, FittedModel
from repro.lab.methods.clustering import (
    HierarchicalClusteringMethod,
    KMeansMethod,
    VQModel,
    clusters_for_budget,
    complete_linkage_merges,
    cut_merges,
)
from repro.lab.methods.lossless import LosslessModel, LosslessZlibMethod
from repro.lab.methods.spectral import (
    DCTMethod,
    DFTMethod,
    HaarWaveletMethod,
    dct_matrix,
    haar_inverse,
    haar_transform,
)
from repro.lab.methods.paa import PAAMethod, PAAModel
from repro.lab.methods.standardize import StandardizedMethod, StandardizedModel
from repro.lab.methods.svd_adapter import SVDDMethod, SVDMethod


def standard_methods() -> list[CompressionMethod]:
    """The four competitors of Figure 6, in the paper's plotting order."""
    return [
        HierarchicalClusteringMethod(),
        DCTMethod(),
        SVDMethod(),
        SVDDMethod(),
    ]


__all__ = [
    "AdaptiveDCTMethod",
    "CompressionMethod",
    "PAAMethod",
    "PAAModel",
    "RandomProjectionMethod",
    "StandardizedMethod",
    "StandardizedModel",
    "DCTMethod",
    "DFTMethod",
    "FittedModel",
    "HaarWaveletMethod",
    "HierarchicalClusteringMethod",
    "KMeansMethod",
    "LosslessModel",
    "LosslessZlibMethod",
    "SVDDMethod",
    "SVDMethod",
    "VQModel",
    "clusters_for_budget",
    "complete_linkage_merges",
    "cut_merges",
    "dct_matrix",
    "haar_inverse",
    "haar_transform",
    "standard_methods",
]
