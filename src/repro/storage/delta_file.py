"""Serialized form of the SVDD outlier-delta table.

The paper (§4.2) keys each outlier ``(row, col, delta)`` by its cell;
``deltas.bin`` stores the table in the compressed-sparse-row form it is
read as — a header (magic, rows N, count n, value bytes b, CRC), then
``row_start`` (int32, N + 1: row r's deltas are ``[row_start[r],
row_start[r + 1])``), ``col`` (uint16, strictly increasing within a
row) and ``value`` (at the model's b).  That is ``2 + b`` bytes a delta
plus ``4 (N + 1)`` once, what :func:`~repro.core.space.svdd_space_bytes`
charges, for at most 65,535 columns.  An open loads the three arrays as
one private in-memory :class:`DeltaTable` (§4.1 keeps the table in main
memory; the file exists so the model survives restarts and so its size
can be charged against the budget).  A file of the earlier packed-key
records is refused: the model must be rebuilt.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import NamedTuple

import numpy as np

from repro.exceptions import ChecksumError, FormatError

_MAGIC = b"RPRCSR01"
_PACKED_KEY_MAGIC = b"RPRDLT"  # the (row*M + col, delta) records it replaced
_HEADER_FMT = "<8sQQII"  # magic, rows, delta count, value bytes, crc of the body
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_VALUE_DTYPES = {8: np.dtype("<f8"), 4: np.dtype("<f4")}
_ROW_START, _COL = np.dtype("<i4"), np.dtype("<u2")
_MAX_COLS = int(np.iinfo(_COL).max)


def check_width(num_cols: int) -> None:
    """Refuse a matrix wider than a uint16 column addresses."""
    if num_cols > _MAX_COLS:
        raise FormatError(f"a model holds at most {_MAX_COLS} columns, got {num_cols}")


class DeltaTable(NamedTuple):
    """The delta table as stored and as the index reads it."""

    #: int64, ``N + 1`` entries: row ``r``'s deltas are
    #: ``[row_start[r], row_start[r + 1])``.
    row_start: np.ndarray
    #: uint16, each row's columns strictly increasing.
    cols: np.ndarray
    #: float64, the delta of each cell.
    values: np.ndarray

    @classmethod
    def from_cells(cls, rows, cols, values, num_rows: int) -> "DeltaTable":
        """The table of distinct cells ``(rows[i], cols[i])``: taken as
        they are when already in row-major order, sorted otherwise."""
        rows, cols = np.asarray(rows).ravel(), np.asarray(cols).ravel()
        values = np.asarray(values, dtype=np.float64).ravel()
        step = rows[1:] - rows[:-1]
        if not ((step > 0) | ((step == 0) & (cols[1:] > cols[:-1]))).all():
            order = np.lexsort((cols, rows))
            rows, cols, values = rows[order], cols[order], values[order]
        row_start = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=num_rows), out=row_start[1:])
        return cls(row_start, cols.astype(np.uint16, copy=False), values)

    @property
    def count(self) -> int:
        return int(self.cols.size)

    def rows(self) -> np.ndarray:
        """The row of each delta, aligned with :attr:`cols` (built per call)."""
        return np.arange(self.row_start.size - 1).repeat(np.diff(self.row_start))

    def problem(self, shape: tuple[int, int] | None = None) -> str | None:
        """What makes this not a table of distinct cells (of a matrix of
        ``shape``, when given), or None."""
        row_start, cols, values = self
        count = cols.size
        if row_start.ndim != 1 or row_start.size < 1 or values.shape != (count,):
            return f"arrays of shapes {row_start.shape}, {cols.shape}, {values.shape} do not align"
        if shape is not None and row_start.size != shape[0] + 1:
            return f"holds {row_start.size - 1} rows, the matrix has {shape[0]}"
        if row_start[0] != 0 or row_start[-1] != count or (np.diff(row_start) < 0).any():
            return f"row starts do not run from 0 up to the delta count {count}"
        if count:
            if shape is not None and int(cols.max()) >= shape[1]:
                return f"a delta's column {int(cols.max())} is outside the matrix's {shape[1]}"
            first = np.zeros(count + 1, dtype=bool)  # each row's first delta
            first[row_start[:-1]] = True
            if not ((cols[1:] > cols[:-1]) | first[1:count]).all():
                return "a row's columns are not strictly increasing"
        return None


def _value_dtype(bytes_per_value: int) -> np.dtype:
    dtype = _VALUE_DTYPES.get(bytes_per_value)
    if dtype is None:
        raise FormatError(f"bytes_per_value must be 4 or 8, got {bytes_per_value}")
    return dtype


def _body_bytes(count: int, num_rows: int, bytes_per_value: int) -> int:
    return _ROW_START.itemsize * (num_rows + 1) + count * (_COL.itemsize + bytes_per_value)


class DeltaFile:
    """Reader/writer for the on-disk delta table.

    There is one way in: :meth:`read_arrays` reads the whole file,
    validates it and copies it out into heap arrays.  Nothing maps
    ``deltas.bin`` — a ``mapped=True`` open maps ``u.mat`` only.
    """

    @staticmethod
    def write(
        path: str | os.PathLike,
        table: DeltaTable,
        shape: tuple[int, int],
        bytes_per_value: int = 8,
    ) -> int:
        """Serialize ``table``, the deltas of a ``shape`` matrix, to
        ``path``; returns the delta count.

        A table has one form, so two models with the same outlier set
        write byte-identical files.  A plain write: the product's one
        caller, :func:`~repro.storage.model_dir.write_model`, fills a
        staging directory nobody sees before
        :func:`~repro.storage.atomic.staged_directory` has flushed it.

        Args:
            bytes_per_value: value precision of the owning model; 4
                stores float32 deltas in 6 bytes each (the space
                accounting's :func:`~repro.core.space.delta_record_bytes`).
        """
        value_dtype = _value_dtype(bytes_per_value)
        problem = table.problem(shape)
        if problem is None and table.count > np.iinfo(np.int32).max:
            problem = f"{table.count} deltas overflow an int32 row start"
        if problem is not None:
            raise FormatError(
                f"{path}: not a delta table of the {shape[0]} x {shape[1]} matrix: {problem}"
            )
        parts = (
            np.ascontiguousarray(table.row_start, dtype=_ROW_START),
            np.ascontiguousarray(table.cols, dtype=_COL),
            np.ascontiguousarray(table.values, dtype=value_dtype),
        )
        crc = 0
        for part in parts:
            crc = zlib.crc32(part, crc)
        with open(path, "wb") as handle:
            header = (_MAGIC, shape[0], table.count, bytes_per_value, crc)
            handle.write(struct.pack(_HEADER_FMT, *header))
            for part in parts:
                handle.write(part)
        return table.count

    @staticmethod
    def read_arrays(
        path: str | os.PathLike,
        shape: tuple[int, int] | None = None,
        expected_count: int | None = None,
    ) -> DeltaTable:
        """Load a delta file as a :class:`DeltaTable`, checked by
        :meth:`DeltaTable.problem`: a table that slipped past the CRC
        (or a buggy writer) is rejected here, not in later lookups.

        Args:
            shape: when given (``(rows, cols)`` of the owning matrix),
                the table must hold that many rows and every column must
                be ``< cols``.
            expected_count: when given, the file must hold exactly this
                many deltas — catches a delta file swapped or rewritten
                out from under its ``meta.json`` (e.g. a torn append).
        """
        with open(path, "rb") as handle:
            header = handle.read(_HEADER_SIZE)
            if len(header) < _HEADER_SIZE:
                raise FormatError(f"{path}: truncated delta file")
            magic, num_rows, count, bytes_per_value, crc = struct.unpack(_HEADER_FMT, header)
            if magic.startswith(_PACKED_KEY_MAGIC):
                raise FormatError(
                    f"{path}: a packed-key delta table ({magic!r}), a format this "
                    "version does not read; rebuild the model"
                )
            if magic != _MAGIC:
                raise FormatError(f"{path}: bad magic {magic!r}")
            value_dtype = _value_dtype(bytes_per_value)
            held = os.fstat(handle.fileno()).st_size - _HEADER_SIZE
            if held < _body_bytes(count, num_rows, bytes_per_value):
                raise FormatError(f"{path}: {held} bytes cannot hold {count} deltas")
            parts = (
                np.empty(num_rows + 1, dtype=_ROW_START),
                np.empty(count, dtype=_COL),
                np.empty(count, dtype=value_dtype),
            )
            body_crc = 0
            for part in parts:
                if handle.readinto(part) != part.nbytes:
                    raise FormatError(f"{path}: truncated delta file")
                body_crc = zlib.crc32(part, body_crc)
        if body_crc != crc:
            raise ChecksumError(f"{path}: delta table failed checksum")
        if expected_count is not None and count != expected_count:
            raise FormatError(
                f"{path}: holds {count} deltas but the model "
                f"metadata expects {expected_count} — stale or torn delta file"
            )
        row_start, cols, values = parts
        values = values.astype(np.float64, copy=False)
        table = DeltaTable(row_start.astype(np.int64), cols, values)
        problem = table.problem(shape)
        if problem is not None:
            raise FormatError(f"{path}: {problem}")
        return table

    @staticmethod
    def size_bytes(count: int, num_rows: int, bytes_per_value: int = 8) -> int:
        """On-disk size of a delta file of ``count`` deltas over ``num_rows`` rows."""
        _value_dtype(bytes_per_value)
        return _HEADER_SIZE + _body_bytes(count, num_rows, bytes_per_value)
