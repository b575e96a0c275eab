"""Tests for the serialized delta table."""

from __future__ import annotations

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ChecksumError, FormatError
from repro.storage import DeltaFile


def _write(path, records, **options) -> int:
    """``DeltaFile.write`` of ``(key, delta)`` pairs, as the arrays it takes."""
    records = list(records)
    return DeltaFile.write(
        path, [key for key, _ in records], [delta for _, delta in records], **options
    )


def _read(path) -> dict:
    """The file's records as ``{key: delta}`` via ``read_arrays``."""
    keys, deltas = DeltaFile.read_arrays(path)
    return dict(zip(keys.tolist(), deltas.tolist()))


class TestRoundtrip:
    def test_basic(self, tmp_path):
        path = tmp_path / "d.bin"
        records = [(5, 1.5), (100, -2.25), (7, 0.125)]
        assert _write(path, records) == 3
        assert _read(path) == {5: 1.5, 7: 0.125, 100: -2.25}
        keys, _deltas = DeltaFile.read_arrays(path)
        assert keys.tolist() == [5, 7, 100]  # canonical key order

    def test_empty(self, tmp_path):
        path = tmp_path / "d.bin"
        assert _write(path, []) == 0
        assert _read(path) == {}

    def test_canonical_bytes(self, tmp_path):
        """Same record set in any order -> byte-identical files."""
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        _write(a, [(1, 1.0), (2, 2.0), (3, 3.0)])
        _write(b, [(3, 3.0), (1, 1.0), (2, 2.0)])
        assert a.read_bytes() == b.read_bytes()

    def test_size_matches_prediction(self, tmp_path):
        path = tmp_path / "d.bin"
        _write(path, [(i, float(i)) for i in range(37)])
        assert path.stat().st_size == DeltaFile.size_bytes(37)


class TestFloat32Records:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "d.bin"
        records = [(5, 1.5), (1 << 40, -2.25), (7, 0.125)]
        assert _write(path, records, bytes_per_value=4) == 3
        table = _read(path)
        assert table[5] == 1.5  # exactly representable in float32
        assert table[1 << 40] == -2.25  # keys stay full int64
        assert table[7] == 0.125

    def test_records_are_12_bytes(self, tmp_path):
        path = tmp_path / "d.bin"
        _write(path, [(i, float(i)) for i in range(50)], bytes_per_value=4)
        header = DeltaFile.size_bytes(0, bytes_per_value=4)
        assert path.stat().st_size == header + 50 * 12
        assert path.stat().st_size == DeltaFile.size_bytes(50, bytes_per_value=4)

    def test_values_quantized_to_float32(self, tmp_path):
        import numpy as np

        path = tmp_path / "d.bin"
        value = 1.0 + 1e-12  # not representable in float32
        _write(path, [(3, value)], bytes_per_value=4)
        assert _read(path)[3] == float(np.float32(value))

    def test_corruption_still_detected(self, tmp_path):
        from repro.exceptions import ChecksumError

        path = tmp_path / "d.bin"
        _write(path, [(1, 1.0), (2, 2.0)], bytes_per_value=4)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            DeltaFile.read_arrays(path)

    def test_invalid_precision_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            _write(tmp_path / "d.bin", [(1, 1.0)], bytes_per_value=2)
        with pytest.raises(FormatError):
            DeltaFile.size_bytes(1, bytes_per_value=2)


class TestExpectedCount:
    def test_mismatch_rejected(self, tmp_path):
        """A delta file whose record count disagrees with the model
        metadata is stale (e.g. a torn append) and must not be served."""
        path = tmp_path / "d.bin"
        _write(path, [(i, float(i)) for i in range(10)])
        with pytest.raises(FormatError, match="expects"):
            DeltaFile.read_arrays(path, expected_count=12)

    def test_match_accepted(self, tmp_path):
        path = tmp_path / "d.bin"
        _write(path, [(i, float(i)) for i in range(10)])
        keys, values = DeltaFile.read_arrays(path, expected_count=10)
        assert keys.size == values.size == 10


class TestCorruption:
    def test_truncated_header(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"short")
        with pytest.raises(FormatError):
            DeltaFile.read_arrays(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.bin"
        _write(path, [(1, 1.0)])
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            DeltaFile.read_arrays(path)

    def test_truncated_records(self, tmp_path):
        path = tmp_path / "d.bin"
        _write(path, [(1, 1.0), (2, 2.0)])
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError):
            DeltaFile.read_arrays(path)

    def test_key_range_enforced(self, tmp_path):
        path = tmp_path / "d.bin"
        _write(path, [(i * 7, float(i)) for i in range(10)])  # max key 63
        with pytest.raises(FormatError, match="outside the matrix"):
            DeltaFile.read_arrays(path, num_cells=50)
        keys, _values = DeltaFile.read_arrays(path, num_cells=64)
        assert keys[-1] == 63

    def test_flipped_record_bit(self, tmp_path):
        path = tmp_path / "d.bin"
        _write(path, [(1, 1.0), (2, 2.0)])
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
        keys, values = DeltaFile.read_arrays(path)
        assert keys.size > 1
        # A torn append: a valid table one record short, padded back to
        # the manifest's size so only the record count gives it away.
        DeltaFile.write(path, keys[:-1], values[:-1])
        with open(path, "ab") as handle:
            handle.write(bytes(size - path.stat().st_size))
        with pytest.raises(FormatError, match="expects"):
            CompressedMatrix.open(directory, mapped=True)


@settings(max_examples=30, deadline=None)
@given(
    records=st.dictionaries(
        keys=st.integers(0, 2**40),
        values=st.floats(allow_nan=False, allow_infinity=False),
        max_size=60,
    )
)
def test_property_roundtrip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("deltas") / "d.bin"
    _write(path, records.items())
    assert _read(path) == records


def _reference_bytes(records, bytes_per_value: int) -> bytes:
    """The file format, spelled independently of the code under test:
    one ``struct.pack`` per record, sorted by key."""
    magic, record = {8: (b"RPRDLT01", "<qd"), 4: (b"RPRDLT02", "<qf")}[bytes_per_value]
    body = b"".join(struct.pack(record, key, delta) for key, delta in sorted(records))
    return struct.pack("<8sQI", magic, len(records), zlib.crc32(body)) + body


@settings(max_examples=60, deadline=None)
@given(
    records=st.dictionaries(
        keys=st.integers(0, 2**62),
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
    """The array encoder writes exactly what the per-record reference
    does: unsorted input, empty input, both precisions."""
    pairs = list(records.items())
    shuffle.shuffle(pairs)
    path = tmp_path_factory.mktemp("deltas") / "d.bin"
    assert _write(path, pairs, bytes_per_value=bytes_per_value) == len(pairs)
    assert path.read_bytes() == _reference_bytes(pairs, bytes_per_value)

