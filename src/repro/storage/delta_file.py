"""Serialized form of the SVDD outlier-delta table.

The deltas are the part of the SVDD model that lives beside ``U`` on
disk: a flat file of ``(cell_key, delta)`` records plus a CRC-guarded
header.  On open, the records load as the sorted key/value arrays a
:class:`~repro.core.delta_index.DeltaIndex` adopts: one private
in-memory copy per open, however ``u.mat`` is read (the paper's §4.1
keeps the table in main memory; the on-disk form exists so the model
survives restarts and so its size can be charged against the storage
budget).
"""

from __future__ import annotations

import os
import struct
import zlib

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
#: Records per read: 64 KiB of float64 records, a buffer the allocator
#: reuses from open to open.
_CHUNK_RECORDS = 4096


def _record_dtype(bytes_per_value: int) -> tuple[bytes, np.dtype]:
    magic = _MAGIC_BY_BYTES.get(bytes_per_value)
    if magic is None:
        raise FormatError(f"bytes_per_value must be 4 or 8, got {bytes_per_value}")
    return magic, _BY_MAGIC[magic]


class DeltaFile:
    """Reader/writer for the on-disk delta table.

    There is one way in: :meth:`read_arrays` reads the whole file,
    validates it and copies the records out into heap arrays.  Nothing
    maps ``deltas.bin`` — a ``mapped=True`` open maps ``u.mat`` only.
    """

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
        records = np.empty(keys.size, dtype=record_dtype)
        if np.all(keys[1:] >= keys[:-1]):
            # Every model writer passes sorted keys: no order to gather by.
            records["k"] = keys
            records["d"] = values
        else:
            order = np.argsort(keys, kind="stable")
            records["k"] = keys[order]
            records["d"] = values[order]
        body = records.view(np.uint8)
        crc = zlib.crc32(body) & 0xFFFFFFFF
        with open(path, "wb") as handle:
            handle.write(struct.pack(_HEADER_FMT, magic, keys.size, crc))
            handle.write(body)
        return int(keys.size)

    @staticmethod
    def read_arrays(
        path: str | os.PathLike,
        num_cells: int | None = None,
        expected_count: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Load a delta file as ``(keys, deltas)`` NumPy arrays.

        The body streams a chunk of records at a time through one
        small reused buffer into the two arrays returned: no
        per-record Python, and no second copy of the file beside the
        one an open keeps.  Keys come back sorted (the canonical file
        order), which is exactly the form
        :class:`~repro.core.delta_index.DeltaIndex` adopts.  Both value
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
        with open(path, "rb") as handle:
            header = handle.read(_HEADER_SIZE)
            if len(header) < _HEADER_SIZE:
                raise FormatError(f"{path}: truncated delta file")
            magic, count, crc = struct.unpack(_HEADER_FMT, header)
            if magic not in _BY_MAGIC:
                raise FormatError(f"{path}: bad magic {magic!r}")
            record_dtype = _BY_MAGIC[magic]
            body = os.fstat(handle.fileno()).st_size - _HEADER_SIZE
            held = body // record_dtype.itemsize
            if held < count:
                raise FormatError(f"{path}: expected {count} records, file holds {held}")
            keys = np.empty(count, dtype=np.int64)
            values = np.empty(count, dtype=np.float64)
            chunk = np.empty(min(count, _CHUNK_RECORDS), dtype=record_dtype)
            body_crc = 0
            for start in range(0, count, _CHUNK_RECORDS):
                part = chunk[: min(_CHUNK_RECORDS, count - start)]
                if handle.readinto(part) != part.nbytes:
                    raise FormatError(f"{path}: truncated delta file")
                body_crc = zlib.crc32(part, body_crc)
                keys[start : start + part.size] = part["k"]
                values[start : start + part.size] = part["d"]
        if body_crc != crc:
            raise ChecksumError(f"{path}: delta records failed checksum")
        if expected_count is not None and count != expected_count:
            raise FormatError(
                f"{path}: holds {count} delta records but the model "
                f"metadata expects {expected_count} — stale or torn delta file"
            )
        if num_cells is not None and count:
            if not (keys[1:] > keys[:-1]).all():
                raise FormatError(
                    f"{path}: delta keys are not strictly increasing "
                    "(canonical files are sorted and duplicate-free)"
                )
            if keys[0] < 0 or keys[-1] >= num_cells:
                raise FormatError(
                    f"{path}: delta key range [{keys[0]}, {keys[-1]}] "
                    f"outside the matrix's cells [0, {num_cells})"
                )
        return keys, values

    @staticmethod
    def size_bytes(record_count: int, bytes_per_value: int = 8) -> int:
        """On-disk size of a delta file with ``record_count`` records."""
        _magic, record_dtype = _record_dtype(bytes_per_value)
        return _HEADER_SIZE + record_count * record_dtype.itemsize
