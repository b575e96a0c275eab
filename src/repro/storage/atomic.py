"""Crash-safe filesystem primitives for the storage layer.

The model *replaces* the raw matrix on disk, so a torn write during a
save must never leave a directory that ``open()`` accepts but answers
incorrectly.  Every persistent artifact therefore goes through one of
two protocols implemented here:

- **whole directory** — :func:`staged_directory`: the caller writes a
  complete model into a staging sibling; on success every file and the
  staging directory are fsynced, any previous version is moved aside,
  and the staging directory is renamed into place in one step.  This is
  how every save, build and append writes
  (:func:`~repro.storage.model_dir.write_model`).  Inside the staging
  directory files are written *plainly*: nothing there is visible until
  the commit, and the commit's flush — each file once, then the
  directory, then the publishing rename, then the parent — is the whole
  durability guarantee; a second, earlier flush per file bought nothing.
  A leftover ``*.staging`` directory from a crashed save is inert
  (opens target the final name) and is swept by the next save; a
  version a killed swap left only as ``*.trash`` is moved back by the
  next writer (:func:`restore_trash`);
- **single file** — :func:`atomic_write_bytes`: write to a temporary
  sibling, fsync it, ``os.replace`` into place, fsync the directory.
  A crash at any point leaves either the old file or the new file,
  never a prefix of the new one.  For the one writer that changes a
  *live* directory, whose readers may be looking:
  :func:`~repro.summaries.compute.summarize_directory`.

``fsync`` makes the rename durable, not just atomic: without it a
power cut can roll back a rename the process already observed.
"""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

__all__ = [
    "atomic_write_bytes",
    "fsync_dir",
    "fsync_file",
    "link_or_copy",
    "staged_directory",
]

#: Suffix of the sibling a directory save stages into.
STAGING_SUFFIX = ".staging"
#: Suffix the previous version is moved to during the commit swap.
TRASH_SUFFIX = ".trash"


def fsync_file(path: str | os.PathLike) -> None:
    """Flush one file's data to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: str | os.PathLike) -> None:
    """Flush a directory's entries (renames/creates) to stable storage.

    Best-effort on platforms where directories cannot be opened or
    fsynced (e.g. Windows); the rename itself is still atomic there.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Durably replace ``path`` with ``data`` (old-or-new, never torn)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_dir(path.parent)


def link_or_copy(source: str | os.PathLike, target: str | os.PathLike) -> None:
    """Hardlink ``source`` at ``target``, copying when links are unsupported.

    How an unchanged file is carried into a staging directory: safe
    because model files are never modified in place — a committed
    version replaces files wholesale, and the previous directory is
    removed (not rewritten) by the swap.
    """
    try:
        os.link(source, target)
    except OSError:
        shutil.copyfile(source, target)


@contextmanager
def staged_directory(final: str | os.PathLike) -> Iterator[Path]:
    """Write a directory's full contents crash-safely.

    Yields a staging directory beside ``final``; the caller writes the
    complete artifact set into it.  On normal exit the staging contents
    are fsynced and swapped into ``final`` (replacing any previous
    version only after the new one is durable).  On exception the
    staging directory is removed and ``final`` is left untouched.
    """
    final = Path(final)
    final.parent.mkdir(parents=True, exist_ok=True)
    restore_trash(final)
    staging = final.with_name(final.name + STAGING_SUFFIX)
    if staging.exists():
        # Debris from a save that crashed before commit; the final
        # directory (if any) is still the authoritative version.
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        yield staging
        commit_staged(staging, final)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def restore_trash(final: str | os.PathLike) -> bool:
    """Move back a version a swap set aside and never replaced.

    :func:`commit_staged` renames ``final`` to ``final.trash``, then the
    staging directory to ``final``; a process killed between the two
    leaves only the ``.trash``.  Every writer starts here
    (:func:`staged_directory`; an append, before it reads:
    ``read_model(for_append=True)``), and ``repro fsck`` calls it.  A reader
    must not: under a live swap ``final`` is missing for a moment, and
    renaming the trash back then would race the writer.  Returns whether
    anything was restored.
    """
    final = Path(final)
    trash = final.with_name(final.name + TRASH_SUFFIX)
    if final.exists() or not trash.exists():
        return False
    os.rename(trash, final)
    fsync_dir(final.parent)
    return True


def commit_staged(staging: Path, final: Path) -> None:
    """Make ``staging`` durable, then swap it into ``final``."""
    for entry in sorted(staging.iterdir()):
        if entry.is_file():
            fsync_file(entry)
    fsync_dir(staging)
    trash: Path | None = None
    if final.exists():
        trash = final.with_name(final.name + TRASH_SUFFIX)
        if trash.exists():
            shutil.rmtree(trash)
        os.rename(final, trash)
    try:
        os.rename(staging, final)
    except BaseException:
        if trash is not None:
            os.rename(trash, final)  # roll back: ``final`` is never left missing
        raise
    fsync_dir(final.parent)
    if trash is not None:
        shutil.rmtree(trash, ignore_errors=True)
