"""Lossless (Lempel-Ziv) reference point.

The paper reports that gzip achieved ``s ~ 25%`` on both datasets —
exact reconstruction, but no random access: answering any query means
decompressing everything (Section 2.1).  This module provides that
reference point with zlib (the same DEFLATE algorithm gzip uses); the
model's :meth:`reconstruct` decompresses the entire matrix, mirroring
the paper's criticism.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.lab.methods.base import CompressionMethod, FittedModel


class LosslessModel(FittedModel):
    """DEFLATE-compressed matrix; any access decompresses everything."""

    def __init__(self, compressed: bytes, num_rows: int, num_cols: int) -> None:
        super().__init__(num_rows, num_cols)
        self._compressed = compressed
        self.decompressions = 0  # observability of the 'no random access' cost

    def _inflate(self) -> np.ndarray:
        self.decompressions += 1
        raw = zlib.decompress(self._compressed)
        return np.frombuffer(raw, dtype=np.float64).reshape(self._num_rows, self._num_cols)

    def reconstruct(self) -> np.ndarray:
        return self._inflate().copy()

    def reconstruct_row(self, row: int) -> np.ndarray:
        self._check_cell(row, 0)
        return self._inflate()[row].copy()

    def reconstruct_cell(self, row: int, col: int) -> float:
        self._check_cell(row, col)
        return float(self._inflate()[row, col])

    def space_bytes(self) -> int:
        return len(self._compressed)


class LosslessZlibMethod(CompressionMethod):
    """zlib/DEFLATE at maximum compression.

    The budget is ignored — lossless compression achieves whatever ratio
    the data admits; :meth:`FittedModel.space_fraction` reports the
    achieved value (the paper's ~25% point of comparison).

    Args:
        level: zlib compression level (1-9).
        decimals: when set, values are rounded to this many decimal
            places and stored as fixed-point int64 before compressing.
            The paper's dollar-amount data was effectively fixed-point
            (cents); raw float64 mantissas are near-incompressible noise,
            so this option is how the paper's ~25% reference point is
            approached on synthetic data.  Reconstruction is then exact
            only to the chosen precision.
    """

    name = "gzip"

    def __init__(self, level: int = 9, decimals: int | None = None) -> None:
        self.level = level
        self.decimals = decimals

    def fit(self, matrix: np.ndarray, budget_fraction: float = 1.0) -> LosslessModel:
        arr = self._validate(matrix, budget_fraction)
        if self.decimals is not None:
            scale = 10.0**self.decimals
            fixed = np.round(arr * scale).astype(np.int64)
            payload = np.ascontiguousarray(fixed).tobytes()
            compressed = zlib.compress(payload, self.level)
            return _FixedPointLosslessModel(
                compressed, arr.shape[0], arr.shape[1], scale
            )
        compressed = zlib.compress(np.ascontiguousarray(arr).tobytes(), self.level)
        return LosslessModel(compressed, arr.shape[0], arr.shape[1])


class _FixedPointLosslessModel(LosslessModel):
    """Lossless-to-fixed-point variant (values rounded before storage)."""

    def __init__(self, compressed: bytes, num_rows: int, num_cols: int, scale: float) -> None:
        super().__init__(compressed, num_rows, num_cols)
        self._scale = scale

    def _inflate(self) -> np.ndarray:
        self.decompressions += 1
        raw = zlib.decompress(self._compressed)
        fixed = np.frombuffer(raw, dtype=np.int64).reshape(
            self._num_rows, self._num_cols
        )
        return fixed / self._scale
