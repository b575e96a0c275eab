"""The model directory: its layout, its one reader and its one writer.

The paper's physical design (Section 4.1) is a small fixed set of
files — ``U`` paged one row per block, ``V``/``Lambda`` and the delta
table pinned in memory:

```
<dir>/meta.json          shape, cutoff, delta and zero-row counts, precision
<dir>/u.mat              MatrixStore of U, page size == one (padded) U row
<dir>/lambda.npy         eigenvalues
<dir>/v.npy              V matrix
<dir>/deltas.bin         outlier records, sorted by key (absent when none)
<dir>/zero_rows.npy      all-zero customers (absent when none)
<dir>/gram.npy           pass-1 Gram matrix  } only on models that can be
<dir>/update_state.json  energy/drift ledger } appended to without a rescan
<dir>/summary_*          the summary store (repro.summaries.compute)
<dir>/manifest.json      per-file SHA-256 + sizes of all of the above
```

Every module that opens, saves, builds, appends to or summarizes a
model goes through :func:`read_model` and :func:`write_model`; no other
module spells a file name, a dtype cast or the ``meta.json`` keys.
:func:`read_model` validates what it returns (and, for an append,
hashes what the append is about to re-derive files from), so a damaged
directory is refused with the same typed error whoever asks.
:func:`write_model` fills a *staging* directory — the caller's
:func:`~repro.storage.atomic.staged_directory` swap makes the new
version visible — writing the parts it is handed and hardlinking the
rest forward from the previous version.
"""

from __future__ import annotations

import json
import mmap
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.exceptions import ChecksumError, FormatError, ReproError
from repro.obs.tracing import span as _span
from repro.storage.atomic import link_or_copy, restore_trash
from repro.storage.delta_file import DeltaFile, close_mapping
from repro.storage.integrity import check_entry, load_manifest, write_manifest
from repro.storage.matrix_store import MatrixStore

__all__ = [
    "GRAM_NAME",
    "UPDATE_STATE_NAME",
    "U_NAME",
    "ModelParts",
    "factor_dtype",
    "read_generation",
    "read_model",
    "read_update_state",
    "u_columns",
    "u_page_size",
    "write_model",
]

META_NAME = "meta.json"
U_NAME = "u.mat"
LAMBDA_NAME = "lambda.npy"
V_NAME = "v.npy"
DELTAS_NAME = "deltas.bin"
ZERO_ROWS_NAME = "zero_rows.npy"
GRAM_NAME = "gram.npy"
UPDATE_STATE_NAME = "update_state.json"

#: ``meta.json`` keys, in the order they are written; the first five
#: must be present for a directory to be a model at all.
_META_KEYS = (
    "kind", "rows", "cols", "cutoff", "num_deltas", "zero_rows", "bytes_per_value",
)
_REQUIRED_META_KEYS = _META_KEYS[:5]

#: Files no query can be answered without: a version that does not
#: rewrite one carries it forward by hardlink, and corruption here is
#: fatal even under ``on_corrupt="degraded"``.
_FACTOR_FILES = (U_NAME, LAMBDA_NAME, V_NAME)

#: Files an append reads and then rewrites from what it read.  Their
#: SHA-256 is checked first: re-deriving a file from damaged bytes and
#: re-hashing the result would launder the damage into a clean manifest.
#: (``deltas.bin`` carries its own CRC; ``u.mat`` is hardlinked by a
#: column append and checked where a row append copies it.)
_APPEND_INPUTS = (LAMBDA_NAME, V_NAME, ZERO_ROWS_NAME, GRAM_NAME, UPDATE_STATE_NAME)


def u_columns(cutoff: int, item_size: int) -> int:
    """Stored columns per U row: padded so one row is exactly one page.

    The pager's minimum page is 64 bytes; smaller cutoffs are
    zero-padded so every row stays page-aligned and the paper's
    one-disk-access-per-cell property holds for any k and element size.
    """
    return max(64 // item_size, cutoff)


def u_page_size(cutoff: int, item_size: int) -> int:
    """Page size holding exactly one (padded) U row."""
    return u_columns(cutoff, item_size) * item_size


def _bytes_per_value(meta: dict) -> int:
    return int(meta.get("bytes_per_value", 8))  # absent on pre-float32 models


def factor_dtype(bytes_per_value: int):
    """NumPy dtype the factor matrices are stored in at precision 'b'."""
    if bytes_per_value not in (4, 8):
        raise FormatError(f"bytes_per_value must be 4 or 8, got {bytes_per_value}")
    return np.float32 if bytes_per_value == 4 else np.float64


# -- reading ---------------------------------------------------------------


@dataclass
class ModelParts:
    """A model directory's validated contents, as :func:`read_model`
    returns them.  Owns the open ``u_store`` (and the delta mapping of
    a ``mapped`` read) until :meth:`close` — or until a
    :class:`~repro.core.store.CompressedMatrix` adopts them."""

    directory: Path
    meta: dict
    u_store: MatrixStore
    #: Pinned factors, upcast to float64 for computation.
    eigenvalues: np.ndarray
    v: np.ndarray
    #: Strictly increasing cell keys and their deltas (empty when the
    #: model has none, or a degraded read dropped them).
    delta_keys: np.ndarray
    delta_values: np.ndarray
    #: Flagged all-zero rows, int64, every one inside ``[0, rows)``.
    zero_rows: np.ndarray
    #: ``update_state.json`` (None on models that cannot be appended to).
    update_state: dict | None
    #: The pass-1 Gram matrix, loaded only for an append.
    gram: np.ndarray | None = None
    #: The manifest's ``files`` mapping ({} when there is no manifest).
    manifest_files: dict = field(default_factory=dict)
    #: Validation failures ``on_corrupt="degraded"`` absorbed.
    degraded_reasons: list[str] = field(default_factory=list)
    #: Open mapping behind ``delta_keys``/``delta_values`` when ``mapped``.
    delta_mm: mmap.mmap | None = None

    @property
    def rows(self) -> int:
        return int(self.meta["rows"])

    @property
    def cols(self) -> int:
        return int(self.meta["cols"])

    @property
    def cutoff(self) -> int:
        return int(self.meta["cutoff"])

    @property
    def bytes_per_value(self) -> int:
        return _bytes_per_value(self.meta)

    def delta_keys_at(self, cols: int) -> np.ndarray:
        """``delta_keys`` as they pack (``row * cols + col``) in a matrix
        ``cols`` wide: a column append re-bases the keys, the cells stay."""
        if cols == self.cols:
            return self.delta_keys
        return self.delta_keys // self.cols * cols + self.delta_keys % self.cols

    @property
    def generation(self) -> tuple[int, int, int, int]:
        """``(rows, cols, num_deltas, appends)`` — what a summary store
        is stamped with; any difference means a different model."""
        return _generation(self.meta, self.update_state)

    def close(self) -> None:
        """Release the U store's file handle and any delta mapping."""
        self.u_store.close()
        mm, self.delta_mm = self.delta_mm, None
        if mm is not None:
            # Drop the views first so the map's exports are released.
            self.delta_keys = self.delta_values = np.empty(0)
            close_mapping(mm)

    def __enter__(self) -> "ModelParts":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _generation(meta: dict, update_state: dict | None) -> tuple[int, int, int, int]:
    return (
        int(meta["rows"]),
        int(meta["cols"]),
        int(meta["num_deltas"]),
        int((update_state or {}).get("appends", 0)),
    )


def _read_json_object(path: Path) -> dict:
    try:
        value = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise FormatError(
            f"{path}: must hold a JSON object, got {type(value).__name__}"
        )
    return value


def _read_meta(directory: Path) -> dict:
    """Parse and structurally validate ``meta.json``."""
    path = directory / META_NAME
    if not path.exists():
        raise FormatError(f"{directory}: not a model directory (no {META_NAME})")
    meta = _read_json_object(path)
    missing = [key for key in _REQUIRED_META_KEYS if key not in meta]
    if missing:
        raise FormatError(f"{path}: missing required keys {missing}")
    for key in _REQUIRED_META_KEYS[1:]:
        if not isinstance(meta[key], int) or meta[key] < 0:
            raise FormatError(f"{path}: {key!r} must be a count, got {meta[key]!r}")
    return meta


def read_update_state(directory: str | Path, required: bool = False) -> dict | None:
    """Parse ``update_state.json``.

    A model without one (written by ``CompressedMatrix.save``, or
    predating the update subsystem) opens and answers but cannot be
    appended to: None, or with ``required`` a :class:`FormatError`.
    """
    path = Path(directory) / UPDATE_STATE_NAME
    if not path.exists():
        if required:
            raise FormatError(
                f"{directory}: no {UPDATE_STATE_NAME} — this model predates the "
                "incremental update subsystem; rebuild it with build_compressed "
                "to make it appendable"
            )
        return None
    state = _read_json_object(path)
    if "budget_fraction" not in state:
        raise FormatError(f"{path}: update state missing 'budget_fraction'")
    return state


def read_generation(directory: str | Path) -> tuple[int, int, int, int]:
    """:attr:`ModelParts.generation` of a directory from its two JSON
    files alone — for callers that only need to know *which* model is
    there (is this summary store stamped for it?), not its contents."""
    directory = Path(directory)
    return _generation(_read_meta(directory), read_update_state(directory))


def _require_shapes(
    directory: Path, meta: dict, u_store: MatrixStore, eigenvalues: np.ndarray, v: np.ndarray
) -> None:
    """The factors must have the shapes ``meta`` declares."""
    rows, cols, cutoff = int(meta["rows"]), int(meta["cols"]), int(meta["cutoff"])
    stored = (rows, u_columns(cutoff, _bytes_per_value(meta)))
    if u_store.shape != stored:
        raise FormatError(
            f"{directory}: U store shape {u_store.shape} does not match meta {stored}"
        )
    if eigenvalues.shape != (cutoff,) or v.shape != (cols, cutoff):
        raise FormatError(
            f"{directory}: factor shapes {eigenvalues.shape}, {v.shape} do "
            f"not match meta ({cutoff},), ({cols}, {cutoff})"
        )


def _load_npy(path: Path) -> np.ndarray:
    if not path.exists():
        raise FormatError(f"{path.parent}: missing {path.name}")
    try:
        return np.load(path, allow_pickle=False)
    except Exception as exc:
        raise FormatError(f"{path}: failed to load: {exc}") from exc


def read_model(
    directory: str | Path,
    *,
    pool_capacity: int = 64,
    on_corrupt: str = "raise",
    mapped: bool = False,
    for_append: bool = False,
) -> ModelParts:
    """Parse and validate a model directory.

    When a manifest is present the size of every file read is checked
    against it first — one ``stat`` each catches truncation and the
    torn tail (full hashing is ``repro fsck``'s job).  ``meta.json`` is
    exempt: it is validated structurally on parse, and hand-editing
    metadata is a supported escape hatch.  Every failure is a
    :class:`FormatError` or :class:`ChecksumError` naming the file.

    Args:
        pool_capacity, mapped: how ``u.mat`` is opened (see
            :meth:`MatrixStore.open`); ``mapped`` also serves the
            deltas from a shared read-only mapping instead of a heap
            copy.
        on_corrupt: ``"degraded"`` absorbs damage to the parts a model
            can answer without — manifest, ``deltas.bin``,
            ``zero_rows.npy``, the update ledger — into
            ``degraded_reasons`` and returns those parts empty.  The
            factor files are always load-bearing.
        for_append: the caller is about to derive the next version from
            this one.  Requires an ``svdd`` model with its update
            ledger and Gram matrix (loaded into ``gram``), and verifies
            the manifest SHA-256 of every file in ``_APPEND_INPUTS``.
            A directory a killed swap left only as ``<dir>.trash`` is
            moved back first (:func:`~repro.storage.atomic.restore_trash`).
    """
    directory = Path(directory)
    if for_append:
        restore_trash(directory)  # a writer may finish what a killed swap left
    meta = _read_meta(directory)
    reasons: list[str] = []

    def optional(load, fallback):
        try:
            return load()
        except (FormatError, ChecksumError) as exc:
            if on_corrupt == "raise":
                raise
            reasons.append(str(exc))
            return fallback

    manifest = optional(lambda: load_manifest(directory), None)
    files = manifest["files"] if manifest is not None else {}

    def check(name: str) -> None:
        deep = for_append and name in _APPEND_INPUTS
        check_entry(directory, files, name, deep=deep)

    if for_append and meta["kind"] != "svdd":
        raise FormatError(
            f"{directory}: incremental appends require an svdd model, "
            f"got kind {meta['kind']!r}"
        )
    for name in _FACTOR_FILES:
        check(name)
    if not (directory / U_NAME).exists():
        raise FormatError(f"{directory}: missing {U_NAME}")

    rows, cols = int(meta["rows"]), int(meta["cols"])
    no_rows = np.empty(0, dtype=np.int64)
    no_deltas = (no_rows, np.empty(0, dtype=np.float64), None)

    def load_zero_rows():
        # Dropping the flags is answer-preserving: a flagged row's U
        # coordinates are all zero on disk, so reconstructing it the
        # slow way still yields 0.0 — only the fast path is lost.
        check(ZERO_ROWS_NAME)
        flagged = _load_npy(directory / ZERO_ROWS_NAME).astype(np.int64).ravel()
        if flagged.size and (flagged.min() < 0 or flagged.max() >= rows):
            raise FormatError(
                f"{directory}: {ZERO_ROWS_NAME} flags rows outside [0, {rows})"
            )
        return flagged

    def load_deltas():
        # The count cross-check against meta.json catches a deltas.bin
        # swapped in without its metadata commit (a torn append): it
        # must degrade or fail, never serve a stale table silently.
        check(DELTAS_NAME)
        path = directory / DELTAS_NAME
        if not path.exists():
            raise FormatError(f"{directory}: missing {DELTAS_NAME}")
        expect = {"num_cells": rows * cols, "expected_count": int(meta["num_deltas"])}
        if mapped:
            return DeltaFile.map_arrays(path, **expect)
        return (*DeltaFile.read_arrays(path, **expect), None)

    def load_gram():
        # Only an append looks inside the M x M Gram matrix; every
        # other read stops at the manifest's size check.
        check(GRAM_NAME)
        if not for_append:
            return None
        gram = _load_npy(directory / GRAM_NAME).astype(np.float64, copy=False)
        if gram.shape != (cols, cols):
            raise FormatError(
                f"{directory}: {GRAM_NAME} shape {gram.shape} does not "
                f"match meta cols {cols}"
            )
        return gram

    def load_update_state():
        check(UPDATE_STATE_NAME)
        return read_update_state(directory, required=for_append)

    u_store = MatrixStore.open(
        directory / U_NAME, pool_capacity=pool_capacity, mapped=mapped
    )
    delta_keys = delta_values = delta_mm = None
    try:
        eigenvalues = _load_npy(directory / LAMBDA_NAME).astype(np.float64)
        v = _load_npy(directory / V_NAME).astype(np.float64)
        _require_shapes(directory, meta, u_store, eigenvalues, v)
        zero_rows = (
            optional(load_zero_rows, no_rows) if meta.get("zero_rows") else no_rows
        )
        delta_keys, delta_values, delta_mm = (
            optional(load_deltas, no_deltas) if int(meta["num_deltas"]) > 0 else no_deltas
        )
        update_state = optional(load_update_state, None)
        gram = optional(load_gram, None)
    except Exception as exc:
        delta_keys = delta_values = None  # views into the mapping
        close_mapping(delta_mm)
        u_store.close()
        if isinstance(exc, ReproError):
            raise
        raise FormatError(f"{directory}: failed to load model: {exc}") from exc
    return ModelParts(
        directory=directory,
        meta=meta,
        u_store=u_store,
        eigenvalues=eigenvalues,
        v=v,
        delta_keys=delta_keys,
        delta_values=delta_values,
        zero_rows=zero_rows,
        update_state=update_state,
        gram=gram,
        manifest_files=files,
        degraded_reasons=reasons,
        delta_mm=delta_mm,
    )


# -- writing ---------------------------------------------------------------


def write_model(
    staging: Path,
    meta: dict,
    *,
    delta_keys: np.ndarray,
    delta_values: np.ndarray,
    zero_rows: np.ndarray,
    u: np.ndarray | None = None,
    eigenvalues: np.ndarray | None = None,
    v: np.ndarray | None = None,
    gram: np.ndarray | None = None,
    update_state: dict | None = None,
    previous: ModelParts | None = None,
    refresh_summaries: bool = True,
) -> dict:
    """Assemble one version of a model inside ``staging``.

    Returns the ``meta.json`` dict written.  Nothing is visible until
    the caller's :func:`~repro.storage.atomic.staged_directory` commits.

    Args:
        meta: ``kind``, ``rows``, ``cols``, ``cutoff`` and
            ``bytes_per_value`` of the version being written (an append
            passes the previous ``meta.json`` with the grown dimension
            replaced); the delta and zero-row counts are filled in here.
        delta_keys, delta_values: the version's outliers, any order.
        zero_rows: rows known to be all zero in the data.  Those holding
            a delta are dropped here — a flagged row is answered 0.0
            without looking at the delta table (Section 6.2) — and the
            rest are written sorted.
        u: ``(n, cutoff)`` rows of U to store — all of them, or with
            ``previous`` the rows to append to a copy of its ``u.mat``.
            A caller that streams U writes ``staging / U_NAME`` itself
            (with :func:`u_page_size` pages) and passes None.
        eigenvalues, v: the pinned factors, cast to the stored precision.
        gram, update_state: the append ledger; omitted, the model opens
            and answers but cannot be appended to.
        previous: the version this one derives from.  A factor file that
            is neither passed nor already in ``staging`` is hardlinked
            from it, and keeps its manifest entry instead of being
            re-hashed.
        refresh_summaries: with ``previous``, False defers the summary
            refresh to a later ``repro summarize`` (see
            :func:`repro.summaries.compute.carry_summaries`).
    """
    # Lazy: repro.summaries sits above the storage layer.
    from repro.summaries.compute import carry_summaries, materialize_summaries

    bytes_per_value = _bytes_per_value(meta)
    dtype = factor_dtype(bytes_per_value)
    rows, cols, cutoff = int(meta["rows"]), int(meta["cols"]), int(meta["cutoff"])

    def stored(values: np.ndarray) -> np.ndarray:
        """``values`` as a read of the file they are written to returns them."""
        return values.astype(dtype, copy=False).astype(np.float64, copy=False)

    if u is not None:
        padded = np.zeros((u.shape[0], u_columns(cutoff, bytes_per_value)))
        padded[:, :cutoff] = u
        if previous is None:
            MatrixStore.create(
                staging / U_NAME,
                padded,
                page_size=u_page_size(cutoff, bytes_per_value),
                dtype=dtype,
            ).close()
        else:
            # U grows: copy, then stream the new rows onto the copy.  The
            # live file is never modified, so readers stay consistent and
            # a crash mid-append discards only the staging directory.
            check_entry(previous.directory, previous.manifest_files, U_NAME, deep=True)
            shutil.copyfile(previous.directory / U_NAME, staging / U_NAME)
            with _span("update.append_u_rows", rows=u.shape[0]):
                with MatrixStore.open(staging / U_NAME) as grown:
                    grown.append_rows(padded)
    if eigenvalues is not None:
        np.save(staging / LAMBDA_NAME, eigenvalues.astype(dtype))
    if v is not None:
        np.save(staging / V_NAME, v.astype(dtype))
    carried = {}
    for name in _FACTOR_FILES:
        if not (staging / name).exists():
            link_or_copy(previous.directory / name, staging / name)
            if name in previous.manifest_files:
                carried[name] = previous.manifest_files[name]

    delta_keys = np.asarray(delta_keys, dtype=np.int64)
    delta_values = stored(np.asarray(delta_values, dtype=np.float64))
    if not (np.diff(delta_keys) > 0).all():  # appends pass them sorted
        order = np.argsort(delta_keys, kind="stable")
        delta_keys, delta_values = delta_keys[order], delta_values[order]
    if delta_keys.size:
        if (
            delta_keys[0] < 0
            or delta_keys[-1] >= rows * cols
            or not (np.diff(delta_keys) > 0).all()
        ):
            raise FormatError(
                f"{staging}: delta keys must be distinct cells of the "
                f"{rows} x {cols} matrix"
            )
        DeltaFile.write(
            staging / DELTAS_NAME, delta_keys, delta_values, bytes_per_value
        )
    zero_rows = np.asarray(zero_rows, dtype=np.int64)
    if zero_rows.size and delta_keys.size:
        zero_rows = zero_rows[~np.isin(zero_rows, np.unique(delta_keys // cols))]
    zero_rows = np.sort(zero_rows)
    if zero_rows.size:
        np.save(staging / ZERO_ROWS_NAME, zero_rows)

    counts = {"num_deltas": int(delta_keys.size), "zero_rows": int(zero_rows.size)}
    known = {**meta, **counts, "bytes_per_value": bytes_per_value}
    # Canonical key order first; keys this version of the code does not
    # know (a hand-edited or newer meta.json) ride along behind.
    meta = {key: known[key] for key in _META_KEYS} | known
    (staging / META_NAME).write_text(json.dumps(meta, indent=2))
    if gram is not None:
        np.save(staging / GRAM_NAME, gram)
    if update_state is not None:
        (staging / UPDATE_STATE_NAME).write_text(json.dumps(update_state, indent=2))

    # Summaries ride the same staged swap, so a model is born (and
    # re-born by every append) with rollups stamped for its generation.
    # They are computed from what a read of ``staging`` would return —
    # the values at their stored precision, U out of the staged file,
    # the invariants that read enforces checked here — without the read.
    with MatrixStore.open(staging / U_NAME) as u_store:
        staged = ModelParts(
            directory=staging,
            meta=meta,
            u_store=u_store,
            eigenvalues=previous.eigenvalues if eigenvalues is None else stored(eigenvalues),
            v=previous.v if v is None else stored(v),
            delta_keys=delta_keys,
            delta_values=delta_values,
            zero_rows=zero_rows,
            update_state=update_state,
        )
        _require_shapes(staging, meta, u_store, staged.eigenvalues, staged.v)
        if previous is None:
            materialize_summaries(staged)
        else:
            carry_summaries(previous, staged, refresh_summaries)
    write_manifest(staging, reuse=carried)
    return meta
