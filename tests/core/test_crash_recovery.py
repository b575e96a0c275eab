"""Crash-mid-save and corruption recovery for the model store.

The contract under any damaged file is: ``open()`` raises a typed
:class:`FormatError`/:class:`ChecksumError`, or (with
``on_corrupt="degraded"``) returns a usable SVD-only store — never
silently wrong answers.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core import CompressedMatrix, SVDDCompressor, build_compressed
from repro.exceptions import ChecksumError, ConfigurationError, FormatError
from repro.storage.delta_file import DeltaFile

MODEL_FILES = [
    "u.mat",
    "lambda.npy",
    "v.npy",
    "deltas.bin",
    "zero_rows.npy",
    "meta.json",
]

#: Files whose loss only costs delta/zero-row precision, not the SVD.
OPTIONAL_FILES = {"deltas.bin", "zero_rows.npy"}


@pytest.fixture()
def saved(tmp_path, rng):
    """A built model exercising every artifact: outliers and a zero row."""
    data = rng.random((64, 16)) * 5
    data[7] = 0.0
    data[2, 3] += 400.0
    model = SVDDCompressor(budget_fraction=0.20).fit(data)
    directory = tmp_path / "model"
    build_compressed(data, directory, 0.20).close()
    for name in MODEL_FILES:
        assert (directory / name).exists(), f"fixture must produce {name}"
    return directory, model


def _truncate(path):
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])


class TestCrashMidSave:
    @pytest.mark.parametrize("name", MODEL_FILES)
    @pytest.mark.parametrize("damage", ["truncate", "delete"])
    def test_damaged_file_is_rejected(self, saved, name, damage):
        directory, _ = saved
        if damage == "truncate":
            _truncate(directory / name)
        else:
            (directory / name).unlink()
        with pytest.raises((FormatError, ChecksumError)):
            CompressedMatrix.open(directory)

    @pytest.mark.parametrize("name", MODEL_FILES)
    @pytest.mark.parametrize("damage", ["truncate", "delete"])
    def test_degraded_mode_never_silently_wrong(self, saved, name, damage):
        """Degraded opens must answer from the intact SVD or refuse."""
        directory, model = saved
        if damage == "truncate":
            _truncate(directory / name)
        else:
            (directory / name).unlink()
        try:
            store = CompressedMatrix.open(directory, on_corrupt="degraded")
        except (FormatError, ChecksumError):
            assert name not in OPTIONAL_FILES
            return
        try:
            assert name in OPTIONAL_FILES
            assert store.degraded
            got = store.reconstruct_all()
            full = model.reconstruct()
            svd_only = model.svd.reconstruct()
            assert np.allclose(got, full, atol=1e-9) or np.allclose(
                got, svd_only, atol=1e-9
            )
        finally:
            store.close()

    def test_missing_manifest_raises_or_degrades(self, saved):
        """Without a manifest no file can be checked: a strict open
        refuses the directory, a degraded one answers from the factors
        it still trusts, saying why."""
        directory, model = saved
        (directory / "manifest.json").unlink()
        with pytest.raises(FormatError, match="missing manifest.json"):
            CompressedMatrix.open(directory)
        with CompressedMatrix.open(directory, on_corrupt="degraded") as store:
            assert store.degraded
            assert any("manifest.json" in reason for reason in store.degraded_reasons)
            np.testing.assert_allclose(
                store.reconstruct_all(), model.reconstruct(), atol=1e-9
            )

    def test_garbage_manifest_raises_or_degrades(self, saved):
        directory, _ = saved
        (directory / "manifest.json").write_text("{broken")
        with pytest.raises(FormatError):
            CompressedMatrix.open(directory)
        with CompressedMatrix.open(directory, on_corrupt="degraded") as store:
            assert store.degraded


class TestDegradedOpens:
    def test_corrupt_zero_rows_degrade_without_changing_answers(self, saved):
        """Zero-row flags are a fast path; dropping them is lossless."""
        directory, model = saved
        (directory / "zero_rows.npy").write_bytes(b"not an npy file")
        with CompressedMatrix.open(directory, on_corrupt="degraded") as store:
            assert store.degraded
            assert store.num_zero_rows == 0
            np.testing.assert_allclose(
                store.reconstruct_all(), model.reconstruct(), atol=1e-9
            )
            assert np.allclose(store.reconstruct_range([7], range(store.shape[1])), 0.0)

    def test_critical_file_corruption_fatal_even_degraded(self, saved):
        directory, _ = saved
        _truncate(directory / "u.mat")
        with pytest.raises((FormatError, ChecksumError)):
            CompressedMatrix.open(directory, on_corrupt="degraded")

    def test_out_of_range_delta_key_rejected(self, saved):
        """A delta outside the matrix's columns is structural corruption."""
        directory, _ = saved
        path = directory / "deltas.bin"
        table = DeltaFile.read_arrays(path)
        cols = table.cols.copy()
        cols[-1] = 16 + 7  # a row's last column; same count -> same file size
        DeltaFile.write(path, table._replace(cols=cols), (64, 65535))
        with pytest.raises(FormatError, match="out of range|outside"):
            CompressedMatrix.open(directory)
        with CompressedMatrix.open(directory, on_corrupt="degraded") as store:
            assert store.degraded
            assert store.num_deltas == 0

    def test_bogus_on_corrupt_value_rejected(self, saved):
        directory, _ = saved
        with pytest.raises(ConfigurationError):
            CompressedMatrix.open(directory, on_corrupt="bogus")


class TestMetaValidation:
    def test_invalid_json_names_directory(self, saved):
        directory, _ = saved
        (directory / "meta.json").write_text("{definitely not json")
        with pytest.raises(FormatError) as excinfo:
            CompressedMatrix.open(directory)
        assert str(directory) in str(excinfo.value)

    def test_missing_required_key_names_directory(self, saved):
        directory, _ = saved
        meta = json.loads((directory / "meta.json").read_text())
        del meta["cutoff"]
        (directory / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="cutoff"):
            CompressedMatrix.open(directory)

    def test_non_object_meta_rejected(self, saved):
        directory, _ = saved
        (directory / "meta.json").write_text(json.dumps([1, 2, 3]))
        with pytest.raises(FormatError, match="object"):
            CompressedMatrix.open(directory)


class TestHandleHygiene:
    def test_failed_open_leaks_no_file_descriptors(self, saved):
        """A load failure after u.mat is opened must close it again."""
        directory, _ = saved
        v_path = directory / "v.npy"
        # Same size (the cheap manifest check passes), garbage content
        # (np.load fails after the U store is already open).
        v_path.write_bytes(b"\x00" * v_path.stat().st_size)
        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):
            pytest.skip("no /proc fd accounting on this platform")
        before = len(os.listdir(fd_dir))
        for _ in range(50):
            with pytest.raises(FormatError):
                CompressedMatrix.open(directory)
        assert len(os.listdir(fd_dir)) <= before + 2


class TestOpenVsSwapRace:
    """open() racing a crash-atomic append's directory rename swap."""

    def test_open_retries_after_concurrent_swap(self, saved, monkeypatch):
        """A failed attempt whose directory inode changed underneath it
        (the append swapped the whole directory) must retry and open the
        settled post-swap model instead of surfacing FormatError."""
        import shutil

        directory, _ = saved
        replacement = directory.with_name("model.next")
        shutil.copytree(directory, replacement)
        real_open_once = CompressedMatrix._open_once.__func__
        calls = {"count": 0}

        def racy_open_once(cls, path, pool_capacity, on_corrupt, mapped):
            calls["count"] += 1
            if calls["count"] == 1:
                # Mid-open swap: old directory renamed away, staged
                # replacement renamed in (exactly commit_staged's dance),
                # then the attempt sees torn state.
                trash = directory.with_name("model.trash")
                os.rename(directory, trash)
                os.rename(replacement, directory)
                shutil.rmtree(trash)
                raise FormatError(f"{path}: torn mid-swap read")
            return real_open_once(cls, path, pool_capacity, on_corrupt, mapped)

        monkeypatch.setattr(
            CompressedMatrix, "_open_once", classmethod(racy_open_once)
        )
        store = CompressedMatrix.open(directory)
        store.close()
        assert calls["count"] == 2  # one failed attempt, one retry

    def test_stable_directory_raises_immediately(self, saved):
        """A validation failure without a swap is genuine corruption:
        no retries, the error surfaces on the first attempt."""
        directory, _ = saved
        _truncate(directory / "v.npy")
        with pytest.raises((FormatError, ChecksumError)):
            CompressedMatrix.open(directory)
