"""The staged commit: what is flushed when, and what a failed swap leaves.

``commit_staged`` is the durability guarantee of every build and
append: each staged file flushed, then the staging directory, *then*
the publishing rename, then the parent.  Nothing written into a staging
directory needs a flush of its own before that — these tests pin both
halves: the order that matters, and that each staged file pays for it
once.  They also cover the swap's two-rename window: ``final`` moved to
``final.trash`` and the staging directory not yet moved in.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import CompressedMatrix, build_compressed
from repro.core.update import append_columns, append_rows
from repro.exceptions import FormatError
from repro.obs.tracing import span
from repro.storage import atomic
from repro.storage.atomic import STAGING_SUFFIX, TRASH_SUFFIX


def _data(seed=11, rows=300, cols=40):
    rng = np.random.default_rng(seed)
    data = rng.random((rows, cols)) * 10
    data[5] = 0.0  # a zero row: every optional file exists
    data[17, 3] += 500.0
    return data, rng


def _new_days(rng, rows=300, days=7):
    new = rng.random((rows, days)) * 10
    new[5] = 0.0  # the zero row stays one
    return new


def _tree(directory: Path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(directory.iterdir())}


class _Recorder:
    """Fakes for ``os.fsync`` / ``os.rename`` / ``os.replace`` that keep a
    log and, at the publishing rename, what the staging directory held."""

    def __init__(self, monkeypatch):
        self.events: list[tuple] = []
        self.published: dict[str, str] | None = None
        self._fsync, self._rename, self._replace = os.fsync, os.rename, os.replace
        monkeypatch.setattr(os, "fsync", self.fsync)
        monkeypatch.setattr(os, "rename", self.rename)
        monkeypatch.setattr(os, "replace", self.replace)

    @staticmethod
    def _sha(path: Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def fsync(self, fd):
        path = Path(os.readlink(f"/proc/self/fd/{fd}"))
        content = self._sha(path) if path.is_file() else None
        self.events.append(("fsync", path, content))
        self._fsync(fd)

    def rename(self, src, dst):
        src, dst = Path(src), Path(dst)
        if src.name.endswith(STAGING_SUFFIX):
            self.published = {f.name: self._sha(f) for f in src.iterdir() if f.is_file()}
        self.events.append(("rename", src, dst))
        self._rename(src, dst)

    def replace(self, src, dst):
        self.events.append(("replace", Path(src), Path(dst)))
        self._replace(src, dst)

    def check_publish_order(self, final: Path) -> dict[str, int]:
        """Assert the flush order around the publishing rename; returns
        how often each staged file was flushed."""
        staging = final.with_name(final.name + STAGING_SUFFIX)
        publish = self.events.index(("rename", staging, final))
        before, after = self.events[:publish], self.events[publish + 1 :]
        assert self.published, "nothing was staged"
        flushes = {name: 0 for name in self.published}
        last_flushed = {}
        for kind, path, content in (e for e in before if e[0] == "fsync"):
            if path.parent == staging and path.name in flushes:  # not MatrixStore's u.mat.tmp
                flushes[path.name] += 1
                last_flushed[path.name] = content
        # Every regular file was flushed after its last write: what the
        # last flush saw is what the rename published.
        assert last_flushed == self.published
        file_flushes = [i for i, e in enumerate(before) if e[0] == "fsync" and e[1].parent == staging]
        dir_flushes = [i for i, e in enumerate(before) if e[:2] == ("fsync", staging)]
        assert dir_flushes and dir_flushes[-1] > max(file_flushes)
        assert ("fsync", final.parent, None) in after
        return flushes


pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc to name a flushed descriptor"
)


class TestTheFlushThatMatters:
    def test_column_append_flushes_each_staged_file_once(self, tmp_path, monkeypatch, enabled_registry):
        data, rng = _data()
        directory = tmp_path / "model"
        build_compressed(data, directory, budget_fraction=0.20).close()
        recorder = _Recorder(monkeypatch)
        with span("test.append") as root:
            append_columns(directory, _new_days(rng))
        flushes = recorder.check_publish_order(directory)
        assert len(flushes) == 11 and set(flushes.values()) == {1}
        fsyncs = [e for e in recorder.events if e[0] == "fsync"]
        assert len(fsyncs) == 13  # 11 files, the staging directory, the parent
        assert not [e for e in recorder.events if e[0] == "replace"]  # no temp files
        assert root.find("update.write_model").attrs == {"files": 11, "fsyncs": 13}

    def test_row_append_and_build_flush_before_publishing(self, tmp_path, monkeypatch):
        data, rng = _data()
        directory = tmp_path / "model"
        recorder = _Recorder(monkeypatch)
        build_compressed(data, directory, budget_fraction=0.20).close()
        flushes = recorder.check_publish_order(directory)
        # MatrixStore makes the u.mat it creates or extends durable itself
        # (it also writes standalone stores); everything else: once.
        assert {name for name, count in flushes.items() if count != 1} <= {"u.mat"}

        recorder.events.clear()
        append_rows(directory, rng.random((9, 40)) * 10)
        flushes = recorder.check_publish_order(directory)
        assert {name for name, count in flushes.items() if count != 1} <= {"u.mat"}


class TestTheTwoRenameWindow:
    """``rename(final -> final.trash)`` done, ``rename(staging -> final)`` not."""

    @pytest.fixture()
    def model(self, tmp_path):
        data, rng = _data()
        directory = tmp_path / "model"
        build_compressed(data, directory, budget_fraction=0.20).close()
        return directory, _new_days(rng)

    @staticmethod
    def _fail_publishing_rename(monkeypatch):
        real = os.rename

        def rename(src, dst):
            if str(src).endswith(STAGING_SUFFIX):
                raise OSError("injected: publishing rename failed")
            real(src, dst)

        monkeypatch.setattr(os, "rename", rename)

    def test_failed_publish_rolls_the_old_version_back(self, model, monkeypatch):
        directory, new_days = model
        before = _tree(directory)
        self._fail_publishing_rename(monkeypatch)
        with pytest.raises(OSError, match="injected"):
            append_columns(directory, new_days)
        monkeypatch.undo()
        assert _tree(directory) == before
        assert [p.name for p in directory.parent.iterdir()] == ["model"]
        assert append_columns(directory, new_days).cols == 47

    def _kill_between_renames(self, directory, new_days, monkeypatch):
        """A process killed in the window runs no handler: the rollback
        and the staging clean-up are both skipped."""
        self._fail_publishing_rename(monkeypatch)
        monkeypatch.setattr(shutil, "rmtree", lambda *a, **k: None)
        real = atomic.commit_staged

        def killed(staging, final):
            trash = final.with_name(final.name + TRASH_SUFFIX)
            try:
                real(staging, final)
            except OSError:
                os.rename(final, trash)  # undo the rollback: the kill had none
                raise

        monkeypatch.setattr(atomic, "commit_staged", killed)
        with pytest.raises(OSError, match="injected"):
            append_columns(directory, new_days)
        monkeypatch.undo()
        assert not directory.exists()
        assert directory.with_name("model" + TRASH_SUFFIX).exists()

    def test_next_writer_recovers_the_old_version(self, model, monkeypatch):
        directory, new_days = model
        before = _tree(directory)
        self._kill_between_renames(directory, new_days, monkeypatch)
        result = append_columns(directory, new_days)
        assert (result.rows, result.cols) == (300, 47)
        assert [p.name for p in directory.parent.iterdir()] == ["model"]
        with CompressedMatrix.open(directory) as store:
            assert store.shape == (300, 47)
        assert _tree(directory)["lambda.npy"] == before["lambda.npy"]

    def test_fsck_recovers_the_old_version(self, model, monkeypatch, capsys):
        directory, new_days = model
        before = _tree(directory)
        self._kill_between_renames(directory, new_days, monkeypatch)
        assert cli_main(["fsck", str(directory)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and "trash" in report["restored"]
        assert _tree(directory) == before
        assert not directory.with_name("model" + TRASH_SUFFIX).exists()
        # A healthy directory is left alone, and says nothing of it.
        assert cli_main(["fsck", str(directory)]) == 0
        assert "restored" not in json.loads(capsys.readouterr().out)

    def test_readers_never_restore(self, model, monkeypatch):
        """Under a live swap ``final`` is missing for a moment; a reader
        that renamed the trash back would race the writer."""
        directory, new_days = model
        self._kill_between_renames(directory, new_days, monkeypatch)
        with pytest.raises(FormatError, match="not a model directory"):
            CompressedMatrix.open(directory)
        assert not directory.exists()

    def test_stale_trash_beside_a_live_directory_is_swept(self, model):
        """Killed after the publishing rename, before the old version was
        removed: the live directory wins, the next commit sweeps."""
        directory, new_days = model
        trash = directory.with_name("model" + TRASH_SUFFIX)
        shutil.copytree(directory, trash)
        (trash / "meta.json").write_text("{}")  # must never be looked at
        assert append_columns(directory, new_days).cols == 47
        assert [p.name for p in directory.parent.iterdir()] == ["model"]
