"""The paper's Figure 4: the naive SVDD construction that Figure 5's
3-pass algorithm (:class:`~repro.core.svdd.SVDDCompressor`) replaces.
"""

from __future__ import annotations

import numpy as np

from repro.core import space
from repro.core.delta_index import DeltaIndex
from repro.core.model import SVDDModel
from repro.core.svd import SVDCompressor, _row_chunks, source_shape
from repro.core.svdd import SVDDCompressor, _rank_errors
from repro.storage.delta_file import DeltaTable
from repro.storage.matrix_store import MatrixStore


def _errors(source, model) -> np.ndarray:
    """Every cell's error under ``model``, in key order (one pass)."""
    return np.concatenate(
        [
            deltas
            for block in _row_chunks(source)
            for deltas in _rank_errors(block, model.v, model.cutoff, first=model.cutoff)
        ]
    )


def _top(errors: np.ndarray, gamma: int) -> np.ndarray:
    """Keys of the ``gamma`` largest ``|error|`` cells, ascending; of the
    cells tied at the ``gamma``-th score, the first keys."""
    scores = np.abs(errors)
    if not gamma:
        return np.empty(0, dtype=np.int64)
    cut = np.partition(scores, scores.size - gamma)[scores.size - gamma]
    keep = scores > cut
    keep[np.flatnonzero(scores == cut)[: gamma - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


class NaiveSVDDCompressor:
    """The paper's Figure 4 reference: the straightforward, inefficient
    construction the 3-pass algorithm replaces.

    For each candidate ``k = 1 .. k_max`` it recomputes the SVD (two
    passes), scans for every cell's error and picks the ``gamma_k``
    largest with one ``numpy.partition`` (a further pass), and finally
    refits at the best ``k`` and collects its cells the same way —
    about ``3 * k_max`` passes over the data versus Figure 5's three.
    Kept as an exact executable specification that shares no code with
    the build's histograms: the test suite asserts the fast algorithm
    chooses the same ``k_opt`` and delta set (``candidate_errors`` here
    are exact, ``low == high``), and the construction-cost benchmark
    measures the pass-count gap.

    Args mirror :class:`SVDDCompressor`.
    """

    def __init__(
        self,
        budget_fraction: float,
        k_max: int | None = None,
        bytes_per_value: int = space.BYTES_PER_VALUE,
    ) -> None:
        self._fast = SVDDCompressor(
            budget_fraction=budget_fraction,
            k_max=k_max,
            bytes_per_value=bytes_per_value,
        )

    def fit(self, source: MatrixStore | np.ndarray) -> SVDDModel:
        """Run the Figure 4 loop: one full SVD + error scan per candidate k."""
        num_rows, num_cols = source_shape(source)
        k_max = self._fast.candidate_cutoffs(num_rows, num_cols)

        gammas = [self._fast._gamma(num_rows, num_cols, k) for k in range(1, k_max + 1)]
        epsilons = np.empty(k_max)
        for k in range(1, k_max + 1):
            # "compute the SVD of the array with given k (two passes)"
            model = SVDCompressor(k=k).fit(source)
            # "find the errors for every cell ... pick the gamma_k largest
            # ones (one more pass) and compute the error measure"
            errors = _errors(source, model)
            kept = errors[_top(errors, gammas[k - 1])]
            epsilons[k - 1] = max(float(np.dot(errors, errors) - np.dot(kept, kept)), 0.0)
        best_k = int(np.argmin(epsilons)) + 1

        # Final refit at k_opt; one more pass collects its deltas.
        model = SVDCompressor(k=best_k).fit(source)
        errors = _errors(source, model)
        keys = _top(errors, gammas[best_k - 1])
        return SVDDModel(
            svd=model,
            deltas=DeltaIndex(
                DeltaTable.from_cells(*np.divmod(keys, num_cols), errors[keys], num_rows),
                num_cols,
            ),
            k_max=k_max,
            candidate_errors=np.repeat(epsilons[:, None], 2, axis=1),
        )
