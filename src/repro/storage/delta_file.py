"""Serialized form of the SVDD outlier-delta table.

The deltas are the part of the SVDD model that lives beside ``U`` on
disk: a flat file of ``(cell_key, delta)`` records plus a CRC-guarded
header.  On open, the records load as the sorted key/value arrays a
:class:`~repro.core.delta_index.DeltaIndex` adopts (the paper keeps the
table in main memory; the on-disk form exists so the model survives
restarts and so its size can be charged against the storage budget).
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.exceptions import ChecksumError, FormatError

#: Magic per value precision: the key is always an 8-byte packed cell
#: id, the delta value is stored at the owning model's 'b' — float64
#: under the original magic, float32 under the v2 magic.  Readers
#: accept both; writers pick by ``bytes_per_value``.
_MAGIC = b"RPRDLT01"
_MAGIC_F32 = b"RPRDLT02"
_HEADER_FMT = "<8sQI"  # magic, record count, crc of records

#: One record: the cell key (``row * M + col``), then the delta.
_BY_MAGIC = {
    _MAGIC: np.dtype([("k", "<i8"), ("d", "<f8")]),
    _MAGIC_F32: np.dtype([("k", "<i8"), ("d", "<f4")]),
}
_MAGIC_BY_BYTES = {8: _MAGIC, 4: _MAGIC_F32}
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)


def _record_dtype(bytes_per_value: int) -> tuple[bytes, np.dtype]:
    magic = _MAGIC_BY_BYTES.get(bytes_per_value)
    if magic is None:
        raise FormatError(f"bytes_per_value must be 4 or 8, got {bytes_per_value}")
    return magic, _BY_MAGIC[magic]


class DeltaFile:
    """Reader/writer for the on-disk delta table."""

    @staticmethod
    def write(
        path: str | os.PathLike,
        keys,
        values,
        bytes_per_value: int = 8,
    ) -> int:
        """Serialize aligned key and delta arrays to ``path``; returns
        the record count.

        Records are written sorted by key so files are canonical: two
        models with the same outlier set produce byte-identical files.
        A plain write: the product's one caller,
        :func:`~repro.storage.model_dir.write_model`, fills a staging
        directory nobody sees before
        :func:`~repro.storage.atomic.staged_directory` has flushed it.

        Args:
            keys: cell keys ``row * M + col``, in any order.
            values: the delta of each key, aligned with ``keys``.
            bytes_per_value: value precision of the owning model; 4
                stores float32 deltas in 12-byte records (the space
                accounting's :func:`~repro.core.space.delta_record_bytes`).
        """
        magic, record_dtype = _record_dtype(bytes_per_value)
        keys = np.asarray(keys, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.float64).ravel()
        if keys.shape != values.shape:
            raise FormatError(
                f"{path}: keys and values must align, got {keys.size} vs {values.size}"
            )
        # Stable: O(n) on the sorted keys every model writer passes.
        order = np.argsort(keys, kind="stable")
        records = np.empty(keys.size, dtype=record_dtype)
        records["k"] = keys[order]
        records["d"] = values[order]
        body = records.tobytes()
        crc = zlib.crc32(body) & 0xFFFFFFFF
        header = struct.pack(_HEADER_FMT, magic, keys.size, crc)
        Path(path).write_bytes(header + body)
        return int(keys.size)

    @staticmethod
    def read_arrays(
        path: str | os.PathLike,
        num_cells: int | None = None,
        expected_count: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Load a delta file as ``(keys, deltas)`` NumPy arrays.

        One ``frombuffer`` over the validated record body — no
        per-record Python.  Keys come back sorted (the canonical file
        order), which is exactly the form
        :class:`~repro.core.delta_index.DeltaIndex` wants.  Both value
        precisions (``RPRDLT01``/float64, ``RPRDLT02``/float32) load
        transparently; values always come back float64.

        Args:
            num_cells: when given (``rows * cols`` of the owning
                matrix), every key must fall in ``[0, num_cells)`` and
                the key sequence must be strictly increasing — a record
                that slipped past the CRC (or a buggy writer) is
                rejected here instead of corrupting later lookups.
            expected_count: when given, the file must hold exactly this
                many records — catches a delta file swapped or rewritten
                out from under its ``meta.json`` (e.g. a torn append).
        """
        records = _validated_records(
            path, Path(path).read_bytes(), num_cells, expected_count
        )
        return records["k"].astype(np.int64), records["d"].astype(np.float64)

    @staticmethod
    def map_arrays(
        path: str | os.PathLike,
        num_cells: int | None = None,
        expected_count: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, "mmap.mmap"]:
        """Memory-map a delta file as ``(keys, deltas, mm)``.

        The mmap-backed twin of :meth:`read_arrays` — the same
        validation, but the record body is
        a shared read-only mapping instead of a private heap copy, so a
        pool of worker processes mapping the same file shares one
        physical copy of the page cache (the same trick ``u.mat`` plays
        via ``MatrixStore.open(mapped=True)``).

        ``keys`` is a zero-copy strided int64 view into the mapping;
        ``deltas`` is likewise zero-copy for float64 files and a small
        upcast copy for float32 ones.  The caller owns ``mm`` and must
        keep it open for as long as the arrays are alive, then drop the
        array references before closing it.
        """
        with open(path, "rb") as handle:
            try:
                mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError as exc:  # zero-length file
                raise FormatError(f"{path}: truncated delta file") from exc
        try:
            records = _validated_records(path, mm, num_cells, expected_count)
        except BaseException:
            close_mapping(mm)
            raise
        deltas = records["d"]
        if deltas.dtype != np.float64:
            deltas = deltas.astype(np.float64)
        return records["k"], deltas, mm

    @staticmethod
    def size_bytes(record_count: int, bytes_per_value: int = 8) -> int:
        """On-disk size of a delta file with ``record_count`` records."""
        _magic, record_dtype = _record_dtype(bytes_per_value)
        return _HEADER_SIZE + record_count * record_dtype.itemsize


def close_mapping(mm: "mmap.mmap | None") -> None:
    """Release a mapping :meth:`DeltaFile.map_arrays` returned.

    Drop the arrays first.  While something still holds a view into
    the map (another thread's lookup, a failed validation's traceback)
    closing raises ``BufferError``; the mapping is then released with
    its last export instead.
    """
    if mm is not None:
        try:
            mm.close()
        except BufferError:
            pass


def _validated_records(
    path: str | os.PathLike,
    buffer,
    num_cells: int | None,
    expected_count: int | None,
) -> np.ndarray:
    """The records of a delta file held in ``buffer`` (its bytes or a
    mapping of them), as a structured view — after the header, length,
    CRC, record-count and key-order checks every loader applies."""
    size = len(buffer)
    if size < _HEADER_SIZE:
        raise FormatError(f"{path}: truncated delta file")
    magic, count, crc = struct.unpack_from(_HEADER_FMT, buffer)
    if magic not in _BY_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    record_dtype = _BY_MAGIC[magic]
    if size - _HEADER_SIZE < count * record_dtype.itemsize:
        raise FormatError(
            f"{path}: expected {count} records, file holds "
            f"{(size - _HEADER_SIZE) // record_dtype.itemsize}"
        )
    records = np.frombuffer(
        buffer, dtype=record_dtype, count=count, offset=_HEADER_SIZE
    )
    if (zlib.crc32(records) & 0xFFFFFFFF) != crc:
        raise ChecksumError(f"{path}: delta records failed checksum")
    if expected_count is not None and count != expected_count:
        raise FormatError(
            f"{path}: holds {count} delta records but the model "
            f"metadata expects {expected_count} — stale or torn delta file"
        )
    keys = records["k"]
    if num_cells is not None and count:
        if keys.min() < 0 or keys.max() >= num_cells:
            raise FormatError(
                f"{path}: delta key range [{keys.min()}, {keys.max()}] "
                f"outside the matrix's cells [0, {num_cells})"
            )
        if count > 1 and not (np.diff(keys) > 0).all():
            raise FormatError(
                f"{path}: delta keys are not strictly increasing "
                "(canonical files are sorted and duplicate-free)"
            )
    return records
