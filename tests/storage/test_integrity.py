"""Tests for the integrity manifest and the atomic-write primitives."""

from __future__ import annotations

import json

import pytest

from repro.core import build_compressed
from repro.exceptions import FormatError
from repro.storage.atomic import atomic_write_bytes, staged_directory
from repro.storage.integrity import (
    MANIFEST_NAME,
    load_manifest,
    verify_manifest,
    write_manifest,
)


@pytest.fixture()
def model_dir(tmp_path, rng):
    data = rng.random((60, 15)) * 10
    data[2, 3] += 250.0
    build_compressed(data, tmp_path / "m", 0.20).close()
    return tmp_path / "m"


class TestManifestWriting:
    def test_save_writes_manifest(self, model_dir):
        manifest = load_manifest(model_dir)
        assert manifest is not None
        assert manifest["format_version"] == 1
        for name in ("u.mat", "lambda.npy", "v.npy", "meta.json"):
            assert name in manifest["files"]

    def test_manifest_sizes_and_hashes_verify(self, model_dir):
        report = verify_manifest(model_dir, deep=True)
        assert report.ok
        assert all(check.status == "ok" for check in report.checks)

    def test_manifest_excludes_itself(self, model_dir):
        manifest = load_manifest(model_dir)
        assert MANIFEST_NAME not in manifest["files"]

    def test_rewrite_covers_new_files(self, model_dir):
        (model_dir / "notes.txt").write_bytes(b"hello")
        write_manifest(model_dir)
        manifest = load_manifest(model_dir)
        assert "notes.txt" in manifest["files"]
        assert verify_manifest(model_dir, deep=True).ok


class TestManifestVerification:
    def test_bit_flip_caught_deep_only(self, model_dir):
        """Quick (size) checks are cheap; only hashing sees bit rot."""
        u_path = model_dir / "u.mat"
        raw = bytearray(u_path.read_bytes())
        raw[-5] ^= 0x40  # data region: header CRC stays valid
        u_path.write_bytes(bytes(raw))
        quick = verify_manifest(model_dir, deep=False)
        assert quick.ok
        deep = verify_manifest(model_dir, deep=True)
        assert not deep.ok
        assert [c.name for c in deep.problems()] == ["u.mat"]
        assert deep.problems()[0].status == "hash-mismatch"

    def test_truncation_caught_by_quick_check(self, model_dir):
        u_path = model_dir / "u.mat"
        raw = u_path.read_bytes()
        u_path.write_bytes(raw[: len(raw) // 2])
        report = verify_manifest(model_dir, deep=False)
        assert not report.ok
        assert report.problems()[0].status == "size-mismatch"

    def test_missing_file_flagged(self, model_dir):
        (model_dir / "v.npy").unlink()
        report = verify_manifest(model_dir)
        assert not report.ok
        assert any(
            check.name == "v.npy" and check.status == "missing"
            for check in report.checks
        )

    def test_stray_file_is_advisory(self, model_dir):
        (model_dir / "stray.tmp").write_bytes(b"x")
        report = verify_manifest(model_dir)
        assert report.ok  # extras noted, not fatal
        assert any(check.status == "extra" for check in report.checks)

    def test_directory_without_manifest(self, model_dir):
        (model_dir / MANIFEST_NAME).unlink()
        report = verify_manifest(model_dir)
        assert not report.ok
        assert [(c.name, c.status) for c in report.problems()] == [(MANIFEST_NAME, "missing")]

    def test_unreadable_manifest_is_the_one_problem(self, model_dir):
        (model_dir / MANIFEST_NAME).write_text("{not json")
        report = verify_manifest(model_dir)
        assert [(c.name, c.status) for c in report.problems()] == [
            (MANIFEST_NAME, "unreadable")
        ]

    def test_report_to_dict_is_json_ready(self, model_dir):
        dumped = json.dumps(verify_manifest(model_dir).to_dict())
        assert "u.mat" in dumped


class TestManifestLoading:
    def test_absent_manifest_is_refused(self, tmp_path):
        with pytest.raises(FormatError, match="missing manifest.json"):
            load_manifest(tmp_path)

    def test_garbage_manifest_rejected(self, model_dir):
        (model_dir / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(FormatError):
            load_manifest(model_dir)

    def test_wrong_version_rejected(self, model_dir):
        (model_dir / MANIFEST_NAME).write_text(
            json.dumps({"format_version": 99, "files": {}})
        )
        with pytest.raises(FormatError):
            load_manifest(model_dir)

    def test_missing_files_key_rejected(self, model_dir):
        (model_dir / MANIFEST_NAME).write_text(json.dumps({"format_version": 1}))
        with pytest.raises(FormatError):
            load_manifest(model_dir)


class TestAtomicPrimitives:
    def test_atomic_write_replaces_content(self, tmp_path):
        path = tmp_path / "f.bin"
        atomic_write_bytes(path, b"one")
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"
        assert not path.with_name("f.bin.tmp").exists()

    def test_staged_directory_commits_on_success(self, tmp_path):
        final = tmp_path / "out"
        with staged_directory(final) as staging:
            (staging / "a.txt").write_bytes(b"a")
        assert (final / "a.txt").read_bytes() == b"a"
        assert not final.with_name("out.staging").exists()

    def test_staged_directory_replaces_previous_version(self, tmp_path):
        final = tmp_path / "out"
        with staged_directory(final) as staging:
            (staging / "version").write_bytes(b"1")
        with staged_directory(final) as staging:
            (staging / "version").write_bytes(b"2")
        assert (final / "version").read_bytes() == b"2"
        assert not final.with_name("out.trash").exists()

    def test_staged_directory_discards_on_error(self, tmp_path):
        final = tmp_path / "out"
        with staged_directory(final) as staging:
            (staging / "version").write_bytes(b"1")
        with pytest.raises(RuntimeError):
            with staged_directory(final) as staging:
                (staging / "version").write_bytes(b"2")
                raise RuntimeError("crash mid-save")
        assert (final / "version").read_bytes() == b"1"
        assert not final.with_name("out.staging").exists()

    def test_leftover_staging_debris_is_swept(self, tmp_path):
        final = tmp_path / "out"
        debris = tmp_path / "out.staging"
        debris.mkdir()
        (debris / "partial").write_bytes(b"junk")
        with staged_directory(final) as staging:
            (staging / "good").write_bytes(b"ok")
        assert (final / "good").read_bytes() == b"ok"
        assert not debris.exists()
