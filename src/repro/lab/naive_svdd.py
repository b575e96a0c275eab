"""The paper's Figure 4: the naive SVDD construction that Figure 5's
3-pass algorithm (:class:`~repro.core.svdd.SVDDCompressor`) replaces.
"""

from __future__ import annotations

import numpy as np

from repro.core import space
from repro.core.delta_index import DeltaIndex
from repro.core.model import SVDDModel
from repro.core.svd import SVDCompressor, _row_chunks, source_shape
from repro.core.svdd import SVDDCompressor
from repro.linalg import SymmetricEigensolver
from repro.storage.matrix_store import MatrixStore
from repro.structures.topk import TopKBuffer


class NaiveSVDDCompressor:
    """The paper's Figure 4 reference: the straightforward, inefficient
    construction the 3-pass algorithm replaces.

    For each candidate ``k = 1 .. k_max`` it recomputes the SVD (two
    passes), scans for every cell's error, picks the ``gamma_k`` largest
    (a further pass), and finally refits at the best ``k`` — about
    ``3 * k_max`` passes over the data versus Figure 5's three.  Kept as
    an executable specification: the test suite asserts the fast
    algorithm chooses the same ``k_opt`` and delta set, and the
    construction-cost benchmark measures the pass-count gap.

    Args mirror :class:`SVDDCompressor`.
    """

    def __init__(
        self,
        budget_fraction: float,
        k_max: int | None = None,
        eigensolver: SymmetricEigensolver | None = None,
        bytes_per_value: int = space.BYTES_PER_VALUE,
    ) -> None:
        self._fast = SVDDCompressor(
            budget_fraction=budget_fraction,
            k_max=k_max,
            eigensolver=eigensolver,
            bytes_per_value=bytes_per_value,
        )

    def fit(self, source: MatrixStore | np.ndarray) -> SVDDModel:
        """Run the Figure 4 loop: one full SVD + error scan per candidate k."""
        num_rows, num_cols = source_shape(source)
        k_max = self._fast.candidate_cutoffs(num_rows, num_cols)

        best_epsilon = np.inf
        best_k = 1
        epsilons = np.empty(k_max)
        for k in range(1, k_max + 1):
            # "compute the SVD of the array with given k (two passes)"
            model = SVDCompressor(
                k=k, eigensolver=self._fast.eigensolver
            ).fit(source)
            # "find the errors for every cell ... pick the gamma_k largest
            # ones (one more pass) and compute the error measure"
            gamma = self._fast._gamma(num_rows, num_cols, model.cutoff)
            queue = TopKBuffer(gamma)
            sse = 0.0
            row_base = 0
            for block in _row_chunks(source):
                recon = (block @ model.v) @ (model.v.T)
                diff = block - recon
                sse += float((diff * diff).sum())
                queue.offer(row_base * num_cols, diff.ravel())
                row_base += block.shape[0]
            epsilon = max(sse - queue.retained_score_sq_sum(), 0.0)
            epsilons[k - 1] = epsilon
            if epsilon < best_epsilon:
                best_epsilon = epsilon
                best_k = k

        # Final refit at k_opt, rebuilding its delta set.
        model = SVDCompressor(k=best_k, eigensolver=self._fast.eigensolver).fit(
            source
        )
        gamma = self._fast._gamma(num_rows, num_cols, model.cutoff)
        queue = TopKBuffer(gamma)
        row_base = 0
        for block in _row_chunks(source):
            recon = (block @ model.v) @ model.v.T
            diff = block - recon
            queue.offer(row_base * num_cols, diff.ravel())
            row_base += block.shape[0]
        keys, deltas = queue.finalize()
        return SVDDModel(
            svd=model,
            deltas=DeltaIndex(keys, deltas, num_cols),
            k_max=k_max,
            candidate_errors=epsilons,
        )
