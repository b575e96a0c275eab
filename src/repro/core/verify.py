"""Model verification: audit a compressed model against its source.

An operator's tool: given the raw :class:`~repro.storage.MatrixStore`
(or matrix) and a :class:`~repro.core.store.CompressedMatrix` (or
in-memory model), stream both once and produce a report of every error
measure the paper uses, plus integrity checks (shape agreement, delta
validity, certified bound).  Used after builds, rebuilds, and restores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import SVDDModel, SVDModel
from repro.core.store import CompressedMatrix
from repro.exceptions import ShapeError
from repro.metrics.distribution import StreamingErrorAccumulator
from repro.storage.matrix_store import MatrixStore


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a model audit."""

    rows: int
    cols: int
    rmspe: float
    max_abs_error: float
    max_normalized_error: float
    num_deltas: int
    certified_bound: float | None
    bound_holds: bool | None

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"matrix: {self.rows} x {self.cols}",
            f"RMSPE: {self.rmspe:.6f}",
            f"worst cell error: {self.max_abs_error:.6g} "
            f"({self.max_normalized_error:.2%} of a std dev)",
            f"stored deltas: {self.num_deltas}",
        ]
        if self.certified_bound is not None:
            status = "HOLDS" if self.bound_holds else "VIOLATED"
            lines.append(
                f"certified worst-case bound: {self.certified_bound:.6g} [{status}]"
            )
        return "\n".join(lines)

    @property
    def ok(self) -> bool:
        """True when all integrity checks passed."""
        return self.bound_holds is not False


def _rows_of(source) -> tuple[tuple[int, int], callable]:
    if isinstance(source, MatrixStore):
        return source.shape, source.row
    arr = np.asarray(source, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError("source must be 2-d")
    return tuple(arr.shape), lambda i: arr[i]


def _model_rows_of(model) -> tuple[tuple[int, int], callable]:
    if isinstance(model, CompressedMatrix):
        cols = np.arange(model.shape[1])
        return model.shape, lambda i: model.reconstruct_range([i], cols)[0]
    if isinstance(model, (SVDModel, SVDDModel)):
        return model.shape, model.reconstruct_row
    raise ShapeError(
        f"unsupported model type {type(model).__name__}"
    )


def verify_model(source, model) -> VerificationReport:
    """Audit ``model`` against ``source``; one streamed pass over each.

    Raises :class:`ShapeError` on shape disagreement; bound violations
    are *reported*, not raised (``report.ok``), so operators see the
    numbers.
    """
    src_shape, src_row = _rows_of(source)
    mdl_shape, mdl_row = _model_rows_of(model)
    if src_shape != mdl_shape:
        raise ShapeError(
            f"source shape {src_shape} != model shape {mdl_shape}"
        )

    acc = StreamingErrorAccumulator()
    for index in range(src_shape[0]):
        acc.add_row(src_row(index), mdl_row(index))

    num_deltas = getattr(model, "num_deltas", 0)
    certified = None
    holds = None
    if isinstance(model, SVDDModel):
        certified = model.worst_case_bound()
    elif isinstance(model, CompressedMatrix) and model.num_deltas and model.appends == 0:
        # As SVDDModel.worst_case_bound: min |delta| bounds the unstored
        # cells of a fresh build only (an append's never compete again).
        certified = float(np.abs(model.delta_index.values).min())
    if certified is not None and np.isfinite(certified):
        holds = acc.max_abs_error() <= certified + 1e-9

    return VerificationReport(
        rows=src_shape[0],
        cols=src_shape[1],
        rmspe=acc.rmspe(),
        max_abs_error=acc.max_abs_error(),
        max_normalized_error=acc.max_normalized_error(),
        num_deltas=num_deltas,
        certified_bound=certified,
        bound_holds=holds,
    )
