"""Tests for the serialized delta table."""

from __future__ import annotations

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.exceptions import ChecksumError, FormatError
from repro.storage import DeltaFile, DeltaTable

#: The matrix the tables below belong to, unless a test says otherwise.
SHAPE = (40, 64)


def _table(records, num_rows=SHAPE[0]) -> DeltaTable:
    """The table of ``((row, col), delta)`` pairs, in any order."""
    records = list(records)
    rows = [row for (row, _col), _ in records]
    cols = [col for (_row, col), _ in records]
    return DeltaTable.from_cells(
        np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
        [delta for _, delta in records], num_rows,
    )


def _write(path, records, shape=SHAPE, **options) -> int:
    """``DeltaFile.write`` of ``((row, col), delta)`` pairs."""
    return DeltaFile.write(path, _table(records, shape[0]), shape, **options)


def _read(path, **options) -> dict:
    """The file's deltas as ``{(row, col): delta}`` via ``read_arrays``."""
    table = DeltaFile.read_arrays(path, **options)
    cells = zip(table.rows().tolist(), table.cols.tolist())
    return dict(zip(cells, table.values.tolist()))


def _some(count: int) -> list:
    return [((i // 8, 3 * (i % 8)), float(i)) for i in range(count)]


class TestRoundtrip:
    def test_basic(self, tmp_path):
        path = tmp_path / "d.bin"
        records = [((0, 5), 1.5), ((10, 0), -2.25), ((0, 7), 0.125)]
        assert _write(path, records) == 3
        assert _read(path) == {(0, 5): 1.5, (0, 7): 0.125, (10, 0): -2.25}
        table = DeltaFile.read_arrays(path, shape=SHAPE)
        assert table.cols.tolist() == [5, 7, 0]  # row-major
        assert table.row_start.tolist() == [0] + [2] * 10 + [3] * 30
        assert table.cols.dtype == np.uint16 and table.values.dtype == np.float64

    def test_empty(self, tmp_path):
        path = tmp_path / "d.bin"
        assert _write(path, []) == 0
        assert _read(path) == {}

    def test_canonical_bytes(self, tmp_path):
        """Same record set in any order -> byte-identical files."""
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        _write(a, [((0, 1), 1.0), ((0, 2), 2.0), ((3, 3), 3.0)])
        _write(b, [((3, 3), 3.0), ((0, 1), 1.0), ((0, 2), 2.0)])
        assert a.read_bytes() == b.read_bytes()

    def test_size_matches_prediction(self, tmp_path):
        path = tmp_path / "d.bin"
        _write(path, _some(37))
        assert path.stat().st_size == DeltaFile.size_bytes(37, SHAPE[0])
        # A header, 4 bytes a row start, 2 + 8 bytes a delta.
        assert DeltaFile.size_bytes(37, SHAPE[0]) - DeltaFile.size_bytes(0, 0) == (
            4 * SHAPE[0] + 37 * 10
        )


class TestFloat32Records:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "d.bin"
        records = [((0, 5), 1.5), ((2, 65534), -2.25), ((0, 7), 0.125)]
        assert _write(path, records, shape=(3, 65535), bytes_per_value=4) == 3
        table = _read(path)
        assert table[0, 5] == 1.5  # exactly representable in float32
        assert table[2, 65534] == -2.25  # a column is a full uint16
        assert table[0, 7] == 0.125

    def test_records_are_6_bytes(self, tmp_path):
        path = tmp_path / "d.bin"
        _write(path, _some(50), bytes_per_value=4)
        header = DeltaFile.size_bytes(0, SHAPE[0], bytes_per_value=4)
        assert path.stat().st_size == header + 50 * 6
        assert path.stat().st_size == DeltaFile.size_bytes(50, SHAPE[0], bytes_per_value=4)

    def test_values_quantized_to_float32(self, tmp_path):
        path = tmp_path / "d.bin"
        value = 1.0 + 1e-12  # not representable in float32
        _write(path, [((0, 3), value)], bytes_per_value=4)
        assert _read(path)[0, 3] == float(np.float32(value))

    def test_corruption_still_detected(self, tmp_path):
        path = tmp_path / "d.bin"
        _write(path, [((0, 1), 1.0), ((0, 2), 2.0)], bytes_per_value=4)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            DeltaFile.read_arrays(path)

    def test_invalid_precision_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            _write(tmp_path / "d.bin", [((0, 1), 1.0)], bytes_per_value=2)
        with pytest.raises(FormatError):
            DeltaFile.size_bytes(1, 1, bytes_per_value=2)


class TestExpectedCount:
    def test_mismatch_rejected(self, tmp_path):
        """A delta file whose record count disagrees with the model
        metadata is stale (e.g. a torn append) and must not be served."""
        path = tmp_path / "d.bin"
        _write(path, _some(10))
        with pytest.raises(FormatError, match="expects"):
            DeltaFile.read_arrays(path, expected_count=12)

    def test_match_accepted(self, tmp_path):
        path = tmp_path / "d.bin"
        _write(path, _some(10))
        table = DeltaFile.read_arrays(path, expected_count=10)
        assert table.cols.size == table.values.size == table.count == 10


def _crafted(path, num_rows, row_start, cols, values=None) -> None:
    """A file with a valid header and CRC around whatever arrays are given."""
    values = np.ones(len(cols)) if values is None else values
    body = (
        np.asarray(row_start, dtype="<i4").tobytes()
        + np.asarray(cols, dtype="<u2").tobytes()
        + np.asarray(values, dtype="<f8").tobytes()
    )
    header = struct.pack("<8sQQII", b"RPRCSR01", num_rows, len(cols), 8, zlib.crc32(body))
    path.write_bytes(header + body)


class TestCorruption:
    def test_truncated_header(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"short")
        with pytest.raises(FormatError):
            DeltaFile.read_arrays(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.bin"
        _write(path, [((0, 1), 1.0)])
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="bad magic"):
            DeltaFile.read_arrays(path)

    @pytest.mark.parametrize("magic", [b"RPRDLT01", b"RPRDLT02"])
    def test_packed_key_file_refused(self, tmp_path, magic):
        """The earlier ``(row*M + col, delta)`` record files are not read:
        the error says to rebuild."""
        path = tmp_path / "d.bin"
        body = struct.pack("<qd", 12, 1.5)
        path.write_bytes(struct.pack("<8sQI", magic, 1, zlib.crc32(body)) + body + bytes(16))
        with pytest.raises(FormatError, match="rebuild"):
            DeltaFile.read_arrays(path)

    def test_truncated_records(self, tmp_path):
        path = tmp_path / "d.bin"
        _write(path, [((0, 1), 1.0), ((0, 2), 2.0)])
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError):
            DeltaFile.read_arrays(path)

    def test_key_range_enforced(self, tmp_path):
        path = tmp_path / "d.bin"
        _write(path, [((i, 7 * i), float(i)) for i in range(10)])  # max column 63
        with pytest.raises(FormatError, match="outside the matrix"):
            DeltaFile.read_arrays(path, shape=(40, 50))
        with pytest.raises(FormatError, match="rows"):
            DeltaFile.read_arrays(path, shape=(39, 64))
        table = DeltaFile.read_arrays(path, shape=(40, 64))
        assert table.cols[-1] == 63

    @pytest.mark.parametrize(
        "row_start, cols",
        [
            ([1, 2, 2], [0, 1]),  # does not start at 0
            ([0, 2, 1], [0, 1]),  # does not end at the count
            ([0, 2, 1, 2], [0, 1]),  # decreases
            ([0, 2, 2], [3, 3]),  # a column twice in a row
            ([0, 2, 2], [4, 1]),  # columns out of order in a row
        ],
    )
    def test_malformed_table_rejected(self, tmp_path, row_start, cols):
        """A table that passes its CRC but is not one (a buggy writer)."""
        path = tmp_path / "d.bin"
        _crafted(path, len(row_start) - 1, row_start, cols)
        with pytest.raises(FormatError):
            DeltaFile.read_arrays(path)

    def test_rows_hold_their_own_columns(self, tmp_path):
        """A column may repeat across rows, and fall in the next row."""
        path = tmp_path / "d.bin"
        _crafted(path, 3, [0, 2, 2, 4], [3, 9, 1, 3])
        assert _read(path) == {(0, 3): 1.0, (0, 9): 1.0, (2, 1): 1.0, (2, 3): 1.0}

    def test_flipped_record_bit(self, tmp_path):
        path = tmp_path / "d.bin"
        _write(path, [((0, 1), 1.0), ((0, 2), 2.0)])
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            DeltaFile.read_arrays(path)


class TestMapArrays:
    """The delta read of a ``mapped=True`` open: ``u.mat`` is mapped,
    ``deltas.bin`` goes through :meth:`DeltaFile.read_arrays`, and its
    checks still reject a damaged or swapped table."""

    def _model(self, tmp_path):
        from repro.core.build import build_compressed
        from repro.data import phone_matrix

        directory = tmp_path / "model"
        build_compressed(phone_matrix(40), directory, 0.10).close()
        return directory

    def test_corruption_detected(self, tmp_path):
        from repro.core import CompressedMatrix

        directory = self._model(tmp_path)
        path = directory / "deltas.bin"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            CompressedMatrix.open(directory, mapped=True)

    def test_count_mismatch_rejected(self, tmp_path):
        from repro.core import CompressedMatrix

        directory = self._model(tmp_path)
        path = directory / "deltas.bin"
        size = path.stat().st_size
        table = DeltaFile.read_arrays(path)
        assert table.count > 1
        # A torn append: a valid table one record short, padded back to
        # the manifest's size so only the record count gives it away.
        num_rows = table.row_start.size - 1
        short = DeltaTable.from_cells(
            table.rows()[:-1], table.cols[:-1], table.values[:-1], num_rows
        )
        DeltaFile.write(path, short, (num_rows, 366))
        with open(path, "ab") as handle:
            handle.write(bytes(size - path.stat().st_size))
        with pytest.raises(FormatError, match="expects"):
            CompressedMatrix.open(directory, mapped=True)


_CELLS = st.tuples(st.integers(0, SHAPE[0] - 1), st.integers(0, 65534))


@settings(max_examples=30, deadline=None)
@given(
    records=st.dictionaries(
        keys=_CELLS,
        values=st.floats(allow_nan=False, allow_infinity=False),
        max_size=60,
    )
)
def test_property_roundtrip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("deltas") / "d.bin"
    _write(path, records.items(), shape=(SHAPE[0], 65535))
    assert _read(path) == records


def _reference_bytes(records, num_rows: int, bytes_per_value: int) -> bytes:
    """The file format, spelled independently of the code under test:
    one ``struct.pack`` per row start, column and value, row-major."""
    cells = sorted(records)
    value = {8: "<d", 4: "<f"}[bytes_per_value]
    starts = [sum(1 for (row, _col), _ in cells if row < r) for r in range(num_rows + 1)]
    body = b"".join(struct.pack("<i", start) for start in starts)
    body += b"".join(struct.pack("<H", col) for (_row, col), _ in cells)
    body += b"".join(struct.pack(value, delta) for _, delta in cells)
    header = (b"RPRCSR01", num_rows, len(cells), bytes_per_value, zlib.crc32(body))
    return struct.pack("<8sQQII", *header) + body


@settings(max_examples=60, deadline=None)
@given(
    records=st.dictionaries(
        keys=_CELLS,
        # Within float32 range, so both precisions can store every value.
        values=st.floats(allow_nan=False, width=32),
        max_size=60,
    ),
    bytes_per_value=st.sampled_from([8, 4]),
    shuffle=st.randoms(use_true_random=False),
)
def test_property_bytes_match_reference(
    tmp_path_factory, records, bytes_per_value, shuffle
):
    """The array encoder writes exactly what the per-field reference
    does: unsorted input, empty input, both precisions."""
    pairs = list(records.items())
    shuffle.shuffle(pairs)
    path = tmp_path_factory.mktemp("deltas") / "d.bin"
    shape = (SHAPE[0], 65535)
    assert _write(path, pairs, shape=shape, bytes_per_value=bytes_per_value) == len(pairs)
    assert path.read_bytes() == _reference_bytes(pairs, SHAPE[0], bytes_per_value)
