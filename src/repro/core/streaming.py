"""Incremental row appends without a full rebuild.

The paper assumes updates are rare and batched (Section 1); the
:class:`~repro.core.updates.BatchUpdater` covers the full off-line
rebuild.  Between rebuilds, a cheaper option exists for *appended* rows:
because ``V`` and ``Lambda`` describe column-space structure, a new row
``x`` can join the model by projection alone,

    u_new = x V Lambda^{-1}            (the paper's own Eq. 11)

in O(M k) time — no pass over the existing data.  The axes are then
*stale* with respect to the new rows: if appended customers follow the
existing patterns, the model stays near-optimal; if they introduce new
patterns, the out-of-subspace residual grows.  :func:`subspace_residual`
measures exactly that, giving operators a rebuild trigger.

:func:`append_rows` implements the projection append for both SVD and
SVDD models; for SVDD the worst new cells are added to the delta table
within the incremental budget the added rows earn (``s * M * b`` bytes
of budget per appended row).
"""

from __future__ import annotations

import numpy as np

from repro.core import space
from repro.core.delta_index import DeltaIndex
from repro.core.model import SVDDModel, SVDModel
from repro.exceptions import ConfigurationError, ShapeError


def _check_rows(model_cols: int, rows: np.ndarray) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if arr.ndim != 2 or arr.shape[1] != model_cols:
        raise ShapeError(
            f"appended rows must have {model_cols} columns, got shape {arr.shape}"
        )
    return arr


def project_rows(model: SVDModel, rows: np.ndarray) -> np.ndarray:
    """U coordinates of new rows on the model's existing axes (Eq. 11)."""
    arr = _check_rows(model.num_cols, rows)
    inv_lam = np.where(model.eigenvalues > 0, 1.0 / np.where(
        model.eigenvalues > 0, model.eigenvalues, 1.0), 0.0)
    return (arr @ model.v) * inv_lam


def subspace_residual(model: SVDModel | SVDDModel, rows: np.ndarray) -> float:
    """Fraction of the new rows' energy outside the model's column space.

    0 means the rows are perfectly representable on the existing axes;
    values approaching 1 mean the axes are stale and a full rebuild
    (:class:`~repro.core.updates.BatchUpdater`) is warranted.
    """
    svd = model.svd if isinstance(model, SVDDModel) else model
    arr = _check_rows(svd.num_cols, rows)
    total = float((arr * arr).sum())
    if total == 0.0:
        return 0.0
    projected = arr @ svd.v
    captured = float((projected * projected).sum())
    return max(0.0, 1.0 - captured / total)


def append_rows(
    model: SVDModel | SVDDModel,
    rows: np.ndarray,
    budget_fraction: float | None = None,
) -> SVDModel | SVDDModel:
    """A new model with ``rows`` appended by projection (axes unchanged).

    For :class:`SVDDModel` inputs, ``budget_fraction`` (default: the
    fraction implied by the current model size) sets how many new delta
    records the appended rows may add: each appended row earns
    ``budget_fraction * M * b`` bytes, and the worst-reconstructed new
    cells fill that allowance.

    The input model is not modified.
    """
    svd = model.svd if isinstance(model, SVDDModel) else model
    arr = _check_rows(svd.num_cols, rows)
    new_u = project_rows(svd, arr)
    extended = SVDModel(
        u=np.vstack([svd.u, new_u]),
        eigenvalues=svd.eigenvalues.copy(),
        v=svd.v.copy(),
    )
    if not isinstance(model, SVDDModel):
        return extended

    if budget_fraction is None:
        budget_fraction = model.space_fraction()
    if not 0.0 < budget_fraction <= 1.0:
        raise ConfigurationError(
            f"budget_fraction must be in (0, 1], got {budget_fraction}"
        )
    # Budget earned by the appended rows, minus their U storage cost.
    earned = budget_fraction * arr.shape[0] * svd.num_cols * space.BYTES_PER_VALUE
    u_cost = arr.shape[0] * svd.cutoff * space.BYTES_PER_VALUE
    gamma_new = max(0, int((earned - u_cost) // space.DELTA_RECORD_BYTES))

    # The worst new cells join the existing deltas; appended rows
    # follow every old row, so the keys stay disjoint.
    residual = (arr - (new_u * extended.eigenvalues) @ extended.v.T).ravel()
    flat = np.abs(residual)
    gamma_new = min(gamma_new, flat.size)
    worst = np.empty(0, dtype=np.int64)
    if gamma_new > 0:
        worst = np.argpartition(flat, flat.size - gamma_new)[flat.size - gamma_new :]
    deltas = DeltaIndex(
        np.concatenate([model.deltas.keys, svd.num_rows * svd.num_cols + worst]),
        np.concatenate([model.deltas.values, residual[worst]]),
        svd.num_cols,
    )
    return SVDDModel(
        svd=extended,
        deltas=deltas,
        k_max=model.k_max,
        candidate_errors=model.candidate_errors,
    )
