"""Dense NumPy oracle: every recorded answer is checked after its pass.

Two references.  The *model* oracle is ``reconstruct_all()`` — what an
exact route must return to float tolerance (an approximate route, to
within the ``error_bound`` its answer carries); a disagreement is a
failed operation.  The *raw* matrix gives ``answer_err_mean``, the
accuracy a user sees, so a speed-up bought by dropping deltas shows.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance against the model oracle for exact routes.
EXACT_RTOL = 1e-6

_REDUCERS = {
    "sum": np.sum,
    "avg": np.mean,
    "min": np.min,
    "max": np.max,
    "stddev": np.std,
    "count": np.size,
}


def _block(dense: np.ndarray, op) -> np.ndarray:
    rows = slice(op.rows.start, op.rows.stop) if isinstance(op.rows, range) else list(op.rows)
    return dense[rows, op.cols.start : op.cols.stop]


class Oracle:
    """Expected answers from the dense model and the raw data."""

    def __init__(self, raw: np.ndarray, model: np.ndarray) -> None:
        self.raw = raw
        self.model = model
        #: Denominator floor: a true value of zero (an idle customer's
        #: minimum) must not turn a small miss into an infinite error.
        self.raw_std = float(raw.std())
        #: Absolute slack under ``EXACT_RTOL`` for answers near zero.
        self.floor = float(np.abs(model).mean())

    # -- expected values ---------------------------------------------------

    def cells(self, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.model[rows, cols], self.raw[rows, cols]

    def aggregate(self, op) -> tuple[float, float]:
        reduce = _REDUCERS[op.function]
        return float(reduce(_block(self.model, op))), float(reduce(_block(self.raw, op)))

    def aggregates(self, ops) -> tuple[np.ndarray, np.ndarray]:
        pairs = [self.aggregate(op) for op in ops]
        return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])

    def series(self, edges) -> tuple[np.ndarray, np.ndarray]:
        """Per-bucket sums over all rows for group-by bucket ``edges``."""
        edges = np.asarray(edges[:-1], dtype=np.int64)
        return (
            np.add.reduceat(self.model.sum(axis=0), edges),
            np.add.reduceat(self.raw.sum(axis=0), edges),
        )

    # -- verdicts ----------------------------------------------------------

    def wrong(self, got, want_model, error_bound=0.0) -> np.ndarray:
        """True where ``got`` disagrees with the model oracle."""
        got = np.asarray(got, dtype=np.float64)
        want = np.asarray(want_model, dtype=np.float64)
        rtol = EXACT_RTOL + np.asarray(error_bound, dtype=np.float64)
        slack = rtol * np.maximum(np.abs(want), self.floor)
        return ~(np.abs(got - want) <= slack)  # NaN counts as wrong

    def cell_error(self, got, want_raw) -> np.ndarray:
        """``|x_hat - x| / std(X)`` per cell."""
        return np.abs(np.asarray(got) - want_raw) / self.raw_std

    def aggregate_error(self, got, want_raw) -> np.ndarray:
        """``|got - true| / |true|`` per aggregate (floored denominator)."""
        want = np.asarray(want_raw, dtype=np.float64)
        return np.abs(np.asarray(got) - want) / np.maximum(np.abs(want), self.raw_std)

