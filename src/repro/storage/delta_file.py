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
from typing import Iterable

import numpy as np

from repro.exceptions import ChecksumError, FormatError
from repro.storage.atomic import atomic_write_bytes

#: Magic per value precision: the key is always an 8-byte packed cell
#: id, the delta value is stored at the owning model's 'b' — float64
#: under the original magic, float32 under the v2 magic.  Readers
#: accept both; writers pick by ``bytes_per_value``.
_MAGIC = b"RPRDLT01"
_MAGIC_F32 = b"RPRDLT02"
_HEADER_FMT = "<8sQI"  # magic, record count, crc of records
_RECORD_FMT = "<qd"  # cell key (row*M+col), delta
_RECORD_SIZE = struct.calcsize(_RECORD_FMT)
_RECORD_FMT_F32 = "<qf"
_RECORD_SIZE_F32 = struct.calcsize(_RECORD_FMT_F32)

_BY_MAGIC = {
    _MAGIC: (_RECORD_SIZE, np.dtype([("k", "<i8"), ("d", "<f8")])),
    _MAGIC_F32: (_RECORD_SIZE_F32, np.dtype([("k", "<i8"), ("d", "<f4")])),
}


def _formats(bytes_per_value: int) -> tuple[bytes, str]:
    if bytes_per_value == 8:
        return _MAGIC, _RECORD_FMT
    if bytes_per_value == 4:
        return _MAGIC_F32, _RECORD_FMT_F32
    raise FormatError(f"bytes_per_value must be 4 or 8, got {bytes_per_value}")


class DeltaFile:
    """Reader/writer for the on-disk delta table."""

    @staticmethod
    def write(
        path: str | os.PathLike,
        deltas: Iterable[tuple[int, float]],
        bytes_per_value: int = 8,
    ) -> int:
        """Serialize ``(key, delta)`` pairs to ``path``; returns record count.

        Records are written sorted by key so files are canonical: two
        models with the same outlier set produce byte-identical files.
        The file lands atomically (temp sibling + fsync + rename), so a
        crash mid-write never leaves a torn delta table.

        Args:
            bytes_per_value: value precision of the owning model; 4
                stores float32 deltas in 12-byte records (the space
                accounting's :func:`~repro.core.space.delta_record_bytes`).
        """
        magic, record_fmt = _formats(bytes_per_value)
        records = sorted(deltas)
        body = b"".join(struct.pack(record_fmt, key, delta) for key, delta in records)
        crc = zlib.crc32(body) & 0xFFFFFFFF
        header = struct.pack(_HEADER_FMT, magic, len(records), crc)
        atomic_write_bytes(path, header + body)
        return len(records)

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
        body, record_dtype = DeltaFile._validated_body(path)
        records = np.frombuffer(body, dtype=record_dtype)
        keys = records["k"].astype(np.int64)
        deltas = records["d"].astype(np.float64)
        if expected_count is not None and keys.size != expected_count:
            raise FormatError(
                f"{path}: holds {keys.size} delta records but the model "
                f"metadata expects {expected_count} — stale or torn delta file"
            )
        if num_cells is not None and keys.size:
            if keys.min() < 0 or keys.max() >= num_cells:
                raise FormatError(
                    f"{path}: delta key range [{keys.min()}, {keys.max()}] "
                    f"outside the matrix's cells [0, {num_cells})"
                )
            if keys.size > 1 and not (np.diff(keys) > 0).all():
                raise FormatError(
                    f"{path}: delta keys are not strictly increasing "
                    "(canonical files are sorted and duplicate-free)"
                )
        return keys, deltas

    @staticmethod
    def map_arrays(
        path: str | os.PathLike,
        num_cells: int | None = None,
        expected_count: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, "mmap.mmap"]:
        """Memory-map a delta file as ``(keys, deltas, mm)``.

        The mmap-backed twin of :meth:`read_arrays` — same header/CRC
        validation and key-range/ordering checks, but the record body is
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
        header_size = struct.calcsize(_HEADER_FMT)
        with open(path, "rb") as handle:
            try:
                mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError as exc:  # zero-length file
                raise FormatError(f"{path}: truncated delta file") from exc
        view = body = None
        try:
            view = memoryview(mm)
            if len(view) < header_size:
                raise FormatError(f"{path}: truncated delta file")
            magic, count, crc = struct.unpack_from(_HEADER_FMT, view)
            if magic not in _BY_MAGIC:
                raise FormatError(f"{path}: bad magic {magic!r}")
            record_size, record_dtype = _BY_MAGIC[magic]
            body = view[header_size : header_size + count * record_size]
            if len(body) != count * record_size:
                raise FormatError(
                    f"{path}: expected {count} records, file holds "
                    f"{(len(view) - header_size) // record_size}"
                )
            if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
                raise ChecksumError(f"{path}: delta records failed checksum")
            records = np.frombuffer(
                mm, dtype=record_dtype, count=count, offset=header_size
            )
            keys = records["k"]  # strided view, no copy
            if record_dtype["d"] == np.dtype("<f8"):
                deltas = records["d"]
            else:
                deltas = records["d"].astype(np.float64)
            if expected_count is not None and keys.size != expected_count:
                raise FormatError(
                    f"{path}: holds {keys.size} delta records but the model "
                    f"metadata expects {expected_count} — stale or torn delta file"
                )
            if num_cells is not None and keys.size:
                if keys.min() < 0 or keys.max() >= num_cells:
                    raise FormatError(
                        f"{path}: delta key range [{keys.min()}, {keys.max()}] "
                        f"outside the matrix's cells [0, {num_cells})"
                    )
                if keys.size > 1 and not (np.diff(keys) > 0).all():
                    raise FormatError(
                        f"{path}: delta keys are not strictly increasing "
                        "(canonical files are sorted and duplicate-free)"
                    )
        except BaseException:
            view = body = None
            try:
                mm.close()
            except BufferError:
                pass
            raise
        del body, view
        return keys, deltas, mm

    @staticmethod
    def _validated_body(path: str | os.PathLike) -> tuple[bytes, np.dtype]:
        """The checksum-verified record bytes of a delta file, plus the
        record dtype its magic selects."""
        raw = Path(path).read_bytes()
        header_size = struct.calcsize(_HEADER_FMT)
        if len(raw) < header_size:
            raise FormatError(f"{path}: truncated delta file")
        magic, count, crc = struct.unpack_from(_HEADER_FMT, raw)
        if magic not in _BY_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        record_size, record_dtype = _BY_MAGIC[magic]
        body = raw[header_size : header_size + count * record_size]
        if len(body) != count * record_size:
            raise FormatError(
                f"{path}: expected {count} records, file holds {len(body) // record_size}"
            )
        if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
            raise ChecksumError(f"{path}: delta records failed checksum")
        return body, record_dtype

    @staticmethod
    def size_bytes(record_count: int, bytes_per_value: int = 8) -> int:
        """On-disk size of a delta file with ``record_count`` records."""
        _magic, record_fmt = _formats(bytes_per_value)
        return struct.calcsize(_HEADER_FMT) + record_count * struct.calcsize(record_fmt)
