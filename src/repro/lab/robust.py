"""Robust SVD — the paper's future-work item (b).

'Directions for future research include ... the study of the so-called
"robust" SVD algorithms (which try to minimize the effect of outliers).'
(Section 7.)

The failure mode is visible in the paper's own Appendix A: one extreme
customer 'created a large distraction and tilted the axis in an
unfavorable way for SVD'.  Residual-based trimming cannot fix this —
a high-leverage row *earns* its own principal component and therefore
has a tiny residual while everyone else's error grows.  The classical
remedy implemented here is **winsorization of row influence**: when
accumulating the Gram matrix ``C = X^t X``, rows whose Euclidean norm
exceeds a high percentile of the norm distribution are scaled down to
that percentile.  Every customer still votes on the axis directions,
but no single customer can out-vote the rest of the population.  ``U``
is then computed from the *original* rows against the robust axes, so
reconstruction of typical rows is unaffected.

The construction stays out-of-core: one pass for the row-norm
distribution, one for the winsorized Gram, one to rescale the singular
values to the original data's energy, and one to emit ``U`` — four
sequential passes, never materializing the matrix (two more than plain
SVD, the price of robustness).

:class:`RobustSVDDCompressor` composes the robust axes with the delta
mechanism: the outliers that no longer tilt the axes now show up as
large residuals — precisely what the delta table stores exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core import space
from repro.core.delta_index import DeltaIndex
from repro.core.model import SVDDModel, SVDModel
from repro.core.svd import compute_u, spectrum_from_gram
from repro.core.svdd import SVDDCompressor
from repro.exceptions import ConfigurationError, ShapeError
from repro.storage.delta_file import DeltaTable
from repro.storage.matrix_store import MatrixStore


def winsorized_gram(
    source: np.ndarray | MatrixStore, clip_percentile: float
) -> np.ndarray:
    """The Gram matrix with row influence capped at a norm percentile.

    Rows with ``||x_i|| > c`` (where ``c`` is the ``clip_percentile`` of
    the row-norm distribution) contribute as if rescaled to norm ``c``.

    Accepts an in-memory matrix or an on-disk :class:`MatrixStore`; the
    store path streams rows twice (one pass for the norm distribution,
    one for the weighted accumulation) and never materializes the data.
    """
    from repro.core.svd import _row_chunks

    # Pass over the rows once for the norm distribution.
    norm_blocks = [np.linalg.norm(block, axis=1) for block in _row_chunks(source)]
    norms = np.concatenate(norm_blocks)
    positive = norms[norms > 0]
    clip = (
        float(np.percentile(positive, clip_percentile)) if positive.size else 0.0
    )
    gram: np.ndarray | None = None
    offset = 0
    for block in _row_chunks(source):
        count = block.shape[0]
        if clip > 0:
            block_norms = norms[offset : offset + count]
            scale = np.minimum(1.0, clip / np.maximum(block_norms, 1e-300))
            block = block * scale[:, None]
        if gram is None:
            gram = np.zeros((block.shape[1], block.shape[1]))
        gram += block.T @ block
        offset += count
    assert gram is not None
    return (gram + gram.T) / 2.0


class RobustSVDCompressor:
    """Truncated SVD with winsorized (influence-capped) axis estimation.

    Args:
        k: cutoff, or None to derive it from ``budget_fraction``.
        budget_fraction: space budget (exactly one of k / budget_fraction).
        clip_percentile: row-norm percentile above which influence is
            capped.  100 disables winsorization (plain SVD axes).
    """

    def __init__(
        self,
        k: int | None = None,
        budget_fraction: float | None = None,
        clip_percentile: float = 99.0,
    ) -> None:
        if (k is None) == (budget_fraction is None):
            raise ConfigurationError("exactly one of k / budget_fraction must be given")
        if not 50.0 <= clip_percentile <= 100.0:
            raise ConfigurationError(
                f"clip_percentile must be in [50, 100], got {clip_percentile}"
            )
        self.k = k
        self.budget_fraction = budget_fraction
        self.clip_percentile = clip_percentile

    def _cutoff(self, num_rows: int, num_cols: int) -> int:
        if self.k is not None:
            return min(self.k, num_rows, num_cols)
        return space.max_k_for_budget(num_rows, num_cols, self.budget_fraction)

    def fit(self, source: np.ndarray | MatrixStore) -> SVDModel:
        """Fit robust axes, then project the original rows onto them.

        Accepts an in-memory matrix or an on-disk :class:`MatrixStore`.
        The store path is a 4-pass construction: norm distribution,
        winsorized Gram, axis-energy rescaling, and the U emission.
        """
        from repro.core.svd import _row_chunks, source_shape

        if isinstance(source, np.ndarray):
            if source.ndim != 2 or source.size == 0:
                raise ShapeError(
                    f"matrix must be 2-d non-empty, got shape {source.shape}"
                )
            source = np.asarray(source, dtype=np.float64)
        cutoff = self._cutoff(*source_shape(source))
        gram = winsorized_gram(source, self.clip_percentile)
        singular, v = spectrum_from_gram(gram, cutoff)
        # Rescale the singular values to the *original* data's energy
        # along the robust axes, so Eq. 12 reconstruction stays unbiased:
        # lambda_j^2 = ||X v_j||^2.
        energy_sq = np.zeros(v.shape[1])
        for block in _row_chunks(source):
            proj = block @ v
            energy_sq += (proj * proj).sum(axis=0)
        energies = np.sqrt(energy_sq)
        order = np.argsort(energies)[::-1]
        v = v[:, order]
        singular = energies[order]
        keep = singular > 1e-12 * max(float(singular[0]) if singular.size else 0.0, 1.0)
        if keep.any():
            v = v[:, keep]
            singular = singular[keep]
        u = compute_u(source, singular, v)
        return SVDModel(u=u, eigenvalues=singular, v=v)


class RobustSVDDCompressor:
    """Robust axes + the SVDD delta mechanism.

    The k-vs-deltas budget split is taken from the standard SVDD
    optimizer; the axes come from :class:`RobustSVDCompressor`; the
    worst residuals against the robust reconstruction are stored as
    exact deltas.  Because the axes are no longer tilted by outliers,
    the deltas capture those outliers directly.
    """

    def __init__(
        self,
        budget_fraction: float,
        clip_percentile: float = 99.0,
    ) -> None:
        if not 0.0 < budget_fraction <= 1.0:
            raise ConfigurationError(
                f"budget_fraction must be in (0, 1], got {budget_fraction}"
            )
        self.budget_fraction = budget_fraction
        self.clip_percentile = clip_percentile

    def fit(self, matrix: np.ndarray) -> SVDDModel:
        """Fit robust axes, then store the worst residuals as deltas."""
        arr = np.asarray(matrix, dtype=np.float64)
        # Reuse the standard SVDD optimizer to choose the k/delta split.
        baseline = SVDDCompressor(budget_fraction=self.budget_fraction).fit(arr)
        k_opt = baseline.cutoff
        gamma = space.delta_budget(
            arr.shape[0], arr.shape[1], k_opt, self.budget_fraction
        )
        robust = RobustSVDCompressor(
            k=k_opt, clip_percentile=self.clip_percentile
        ).fit(arr)

        residual = arr - robust.reconstruct()
        flat = np.abs(residual).ravel()
        gamma = min(gamma, flat.size)
        worst = np.empty(0, dtype=np.int64)
        if gamma > 0:
            worst = np.argpartition(flat, flat.size - gamma)[flat.size - gamma :]
        return SVDDModel(
            svd=robust,
            deltas=DeltaIndex(
                DeltaTable.from_cells(
                    *np.divmod(worst, arr.shape[1]), residual.ravel()[worst], arr.shape[0]
                ),
                arr.shape[1],
            ),
            k_max=baseline.k_max,
            candidate_errors=baseline.candidate_errors,
        )
