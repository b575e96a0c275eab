"""Integrity manifest for model directories.

A compressed model is several files that are only correct *together*;
the per-file headers CRC-guard their own metadata but nothing covers
the data payloads or the set as a whole.  Saves therefore write a
``manifest.json`` beside the model files::

    {
      "format_version": 1,
      "files": {
        "u.mat": {"sha256": "...", "bytes": 123456},
        ...one entry per file of the directory but this one...
      }
    }

Verification has two price points:

- **quick** (sizes only) — what :meth:`CompressedMatrix.open` runs on
  every open: one ``stat`` per file catches truncation and the classic
  torn tail for free;
- **deep** (full SHA-256) — what ``repro fsck`` runs on demand: reads
  every byte and catches bit rot the size check cannot see.

``meta.json`` is listed in the manifest (so ``fsck`` notices tampering)
but exempt from the open-time size check: it is self-validating on
parse, and hand-editing metadata on legacy directories is a supported
escape hatch.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ChecksumError, FormatError

__all__ = [
    "MANIFEST_NAME",
    "FileCheck",
    "IntegrityReport",
    "check_entry",
    "load_manifest",
    "verify_manifest",
    "write_manifest",
]

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1

#: Bytes hashed per read while digesting a file.
_CHUNK = 1 << 20

#: Files a save may legitimately leave beside the manifest without
#: being covered by it.
_UNTRACKED = {MANIFEST_NAME}


def _digest(path: Path) -> str:
    """Streaming SHA-256 of one file (constant memory)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_CHUNK)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def write_manifest(
    directory: str | os.PathLike, reuse: dict[str, dict] | None = None
) -> dict:
    """Hash every regular file in ``directory`` into ``manifest.json``.

    Returns the manifest dict.  A plain write, for a *staging*
    directory: nothing in it is visible before
    :func:`~repro.storage.atomic.staged_directory` has flushed every
    file.  (The one writer of a live directory,
    :func:`~repro.summaries.compute.summarize_directory`, lands the same
    bytes through :func:`~repro.storage.atomic.atomic_write_bytes`.)

    Args:
        reuse: prior manifest entries (``name -> {"sha256", "bytes"}``)
            for files known to be unchanged — e.g. a multi-gigabyte
            ``u.mat`` hardlinked into an append's staging directory.  An
            entry is only trusted when the file's current size matches
            its recorded ``bytes``; otherwise the file is re-hashed.
    """
    data = _manifest_bytes(directory, reuse)
    (Path(directory) / MANIFEST_NAME).write_bytes(data)
    return json.loads(data)


def _manifest_bytes(
    directory: str | os.PathLike, reuse: dict[str, dict] | None
) -> bytes:
    """The ``manifest.json`` :func:`write_manifest` writes, not written."""
    directory = Path(directory)
    reuse = reuse or {}
    files: dict[str, dict] = {}
    for entry in sorted(directory.iterdir()):
        if not entry.is_file() or entry.name in _UNTRACKED:
            continue
        size = entry.stat().st_size
        known = reuse.get(entry.name)
        if known is not None and known.get("bytes") == size and known.get("sha256"):
            files[entry.name] = {"sha256": known["sha256"], "bytes": size}
            continue
        files[entry.name] = {
            "sha256": _digest(entry),
            "bytes": size,
        }
    manifest = {"format_version": FORMAT_VERSION, "files": files}
    return json.dumps(manifest, indent=2).encode()


def load_manifest(directory: str | os.PathLike) -> dict | None:
    """Parse a directory's manifest; ``None`` when absent.

    Raises:
        FormatError: the manifest exists but is unreadable, is not the
            expected shape, or declares an unknown format version.
    """
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: invalid manifest JSON: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(
        manifest.get("files"), dict
    ):
        raise FormatError(f"{path}: manifest missing a 'files' mapping")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(
            f"{path}: unsupported manifest format_version {version!r}"
        )
    return manifest


def check_entry(
    directory: Path, files: dict[str, dict], name: str, deep: bool = False
) -> None:
    """Raise :class:`ChecksumError` when ``name`` disagrees with its
    entry in ``files`` (a manifest's ``files`` mapping).

    Compares the byte size — one ``stat``, what every open can afford —
    and, with ``deep``, the SHA-256.  A file with no entry, or absent
    from the directory, passes: whether it must exist is the caller's
    rule.
    """
    expected = files.get(name)
    if expected is None:
        return
    path = directory / name
    try:
        actual = path.stat().st_size
    except FileNotFoundError:
        return
    if actual != expected.get("bytes"):
        raise ChecksumError(
            f"{path}: size {actual} does not match manifest "
            f"({expected.get('bytes')} bytes) — truncated or torn file"
        )
    if deep and _digest(path) != expected.get("sha256"):
        raise ChecksumError(
            f"{path}: SHA-256 does not match manifest — corrupted file"
        )


@dataclass
class FileCheck:
    """Verification outcome for one manifest entry (or stray file)."""

    name: str
    #: ``ok`` | ``missing`` | ``size-mismatch`` | ``hash-mismatch`` | ``extra``
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Whether this file is healthy (``extra`` files are advisory)."""
        return self.status in ("ok", "extra")


@dataclass
class IntegrityReport:
    """Outcome of verifying one model directory against its manifest."""

    directory: str
    deep: bool
    has_manifest: bool
    checks: list[FileCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every tracked file verified clean."""
        return self.has_manifest and all(check.ok for check in self.checks)

    def problems(self) -> list[FileCheck]:
        """The failing checks, in directory order."""
        return [check for check in self.checks if not check.ok]

    def to_dict(self) -> dict:
        """JSON-ready form (what ``repro fsck`` prints)."""
        return {
            "directory": self.directory,
            "mode": "deep" if self.deep else "quick",
            "has_manifest": self.has_manifest,
            "ok": self.ok,
            "files": {
                check.name: {"status": check.status, "detail": check.detail}
                for check in self.checks
            },
        }


def verify_manifest(
    directory: str | os.PathLike, deep: bool = True
) -> IntegrityReport:
    """Check a directory's files against its manifest.

    Args:
        deep: hash every file (``repro fsck`` default).  When False,
            only byte sizes are compared — the cheap open-time check.
    """
    directory = Path(directory)
    manifest = load_manifest(directory)
    report = IntegrityReport(
        directory=str(directory), deep=deep, has_manifest=manifest is not None
    )
    if manifest is None:
        return report
    tracked = manifest["files"]
    for name in sorted(tracked):
        expected = tracked[name]
        path = directory / name
        if not path.exists():
            report.checks.append(FileCheck(name, "missing"))
            continue
        actual_bytes = path.stat().st_size
        if actual_bytes != expected.get("bytes"):
            report.checks.append(
                FileCheck(
                    name,
                    "size-mismatch",
                    f"expected {expected.get('bytes')} bytes, found {actual_bytes}",
                )
            )
            continue
        if deep:
            actual_hash = _digest(path)
            if actual_hash != expected.get("sha256"):
                report.checks.append(
                    FileCheck(name, "hash-mismatch", "sha256 differs")
                )
                continue
        report.checks.append(FileCheck(name, "ok"))
    for entry in sorted(directory.iterdir()):
        if entry.is_file() and entry.name not in tracked and entry.name not in _UNTRACKED:
            report.checks.append(
                FileCheck(entry.name, "extra", "file not covered by manifest")
            )
    return report
