"""The model directory: its layout, its one reader and its one writer.

The paper's physical design (Section 4.1) is a small fixed set of
files — ``U`` paged one row per block, ``V``/``Lambda`` and the delta
table pinned in memory:

```
<dir>/meta.json          shape, cutoff, delta and zero-row counts, precision
<dir>/u.mat              MatrixStore of U, page size == one U row (k values)
<dir>/lambda.npy         eigenvalues
<dir>/v.npy              V matrix
<dir>/deltas.bin         outlier table, row starts + columns + values (absent when none)
<dir>/zero_rows.npy      all-zero customers (absent when none)
<dir>/sketch.npy         l x M drift sketch  } the append ledger
<dir>/update_state.json  energy/drift ledger }
<dir>/summary_*          the summary store (repro.summaries.compute)
<dir>/manifest.json      per-file SHA-256 + sizes of all of the above
```

Every module that opens, builds, appends to or summarizes a
model goes through :func:`read_model` and :func:`write_model`; no other
module spells a file name, a dtype cast or the ``meta.json`` keys.
:func:`read_model` validates what it returns (and, for an append,
hashes what the append is about to re-derive files from), so a damaged
directory is refused with the same typed error whoever asks.
:func:`write_model` fills a *staging* directory — the caller's
:func:`~repro.storage.atomic.staged_directory` swap makes the new
version visible — writing the parts it is handed and hardlinking the
rest forward from the previous version.

There is one layout, the one :func:`write_model` writes.  A directory
missing any part of it — the manifest, the ledger, the sketch, a
``meta.json`` key — is refused with a :class:`FormatError` naming the
part; ``on_corrupt="degraded"`` absorbs a missing manifest or ledger as
it absorbs a damaged one.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.exceptions import ChecksumError, FormatError, ReproError
from repro.obs.tracing import span as _span
from repro.storage.atomic import link_or_copy, restore_trash
from repro.storage.delta_file import DeltaFile, DeltaTable, check_width
from repro.storage.integrity import check_entry, load_manifest, write_manifest
from repro.storage.matrix_store import MatrixStore

__all__ = [
    "SKETCH_NAME",
    "UPDATE_STATE_NAME",
    "U_NAME",
    "ModelParts",
    "factor_dtype",
    "read_generation",
    "read_model",
    "read_update_state",
    "u_page_size",
    "write_model",
]

META_NAME = "meta.json"
U_NAME = "u.mat"
LAMBDA_NAME = "lambda.npy"
V_NAME = "v.npy"
DELTAS_NAME = "deltas.bin"
ZERO_ROWS_NAME = "zero_rows.npy"
SKETCH_NAME = "sketch.npy"
UPDATE_STATE_NAME = "update_state.json"

#: ``meta.json`` keys, in the order they are written; all of them must
#: be present for a directory to be a model at all.
_META_KEYS = (
    "kind", "rows", "cols", "cutoff", "num_deltas", "zero_rows", "bytes_per_value",
)

#: Files no query can be answered without: a version that does not
#: rewrite one carries it forward by hardlink, and corruption here is
#: fatal even under ``on_corrupt="degraded"``.
_FACTOR_FILES = (U_NAME, LAMBDA_NAME, V_NAME)

#: Files an append reads and then rewrites from what it read.  Their
#: SHA-256 is checked first: re-deriving a file from damaged bytes and
#: re-hashing the result would launder the damage into a clean manifest.
#: (``deltas.bin`` carries its own CRC; ``u.mat`` is hardlinked by a
#: column append and checked where a row append copies it.)
_APPEND_INPUTS = (LAMBDA_NAME, V_NAME, ZERO_ROWS_NAME, SKETCH_NAME, UPDATE_STATE_NAME)


def u_page_size(cutoff: int, item_size: int) -> int:
    """Page size holding exactly one U row: the paper's one disk access
    per cell, for any k and element size, with nothing stored beyond
    what Eq. 9 charges."""
    return cutoff * item_size


def factor_dtype(bytes_per_value: int):
    """NumPy dtype the factor matrices are stored in at precision 'b'."""
    if bytes_per_value not in (4, 8):
        raise FormatError(f"bytes_per_value must be 4 or 8, got {bytes_per_value}")
    return np.float32 if bytes_per_value == 4 else np.float64


# -- reading ---------------------------------------------------------------


@dataclass
class ModelParts:
    """A model directory's validated contents, as :func:`read_model`
    returns them.  Owns the open ``u_store`` until :meth:`close` — or
    until a :class:`~repro.core.store.CompressedMatrix` adopts them.
    The delta table is one private in-memory copy, however ``u.mat``
    was opened (§4.1: only ``U`` is paged)."""

    directory: Path
    meta: dict
    u_store: MatrixStore
    #: Pinned factors, upcast to float64 for computation.
    eigenvalues: np.ndarray
    v: np.ndarray
    #: The outlier table, one row start per row plus one (empty when
    #: the model has none, or a degraded read dropped it).
    deltas: DeltaTable
    #: Flagged all-zero rows, int64, every one inside ``[0, rows)``.
    zero_rows: np.ndarray
    #: ``update_state.json`` (None when a degraded read dropped it).
    update_state: dict | None
    #: The ``(l, cols)`` drift sketch, loaded only for an append.
    sketch: np.ndarray | None = None
    #: The manifest's ``files`` mapping ({} when a degraded read dropped it).
    manifest_files: dict = field(default_factory=dict)
    #: Validation failures ``on_corrupt="degraded"`` absorbed.
    degraded_reasons: list[str] = field(default_factory=list)

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
        return int(self.meta["bytes_per_value"])

    @property
    def generation(self) -> tuple[int, int, int, int]:
        """``(rows, cols, num_deltas, appends)`` — what a summary store
        is stamped with; any difference means a different model."""
        return _generation(self.meta, self.update_state)

    def close(self) -> None:
        """Release the U store's file handle."""
        self.u_store.close()

    def __enter__(self) -> "ModelParts":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _generation(meta: dict, update_state: dict | None) -> tuple[int, int, int, int]:
    # A degraded read that dropped the ledger cannot say which version
    # it holds: -1 appends matches no summary store.
    appends = -1 if update_state is None else int(update_state["appends"])
    return int(meta["rows"]), int(meta["cols"]), int(meta["num_deltas"]), appends


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
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise FormatError(f"{path}: missing required keys {missing}")
    if meta["kind"] != "svdd":
        raise FormatError(f"{path}: not an svdd model (kind {meta['kind']!r})")
    for key in _META_KEYS[1:]:
        if not isinstance(meta[key], int) or meta[key] < 0:
            raise FormatError(f"{path}: {key!r} must be a count, got {meta[key]!r}")
    factor_dtype(meta["bytes_per_value"])
    return meta


def read_update_state(directory: str | Path) -> dict:
    """Parse ``update_state.json``, the append ledger every model has."""
    path = Path(directory) / UPDATE_STATE_NAME
    if not path.exists():
        raise FormatError(f"{directory}: missing {UPDATE_STATE_NAME}")
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
    stored = (rows, cutoff)
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

    The size of every file read is checked against the manifest first —
    one ``stat`` each catches truncation and the torn tail (full
    hashing is ``repro fsck``'s job); a file it does not list is
    refused.  ``meta.json`` is exempt: it is validated structurally on
    parse, and hand-editing metadata is a supported escape hatch.
    Every failure is a :class:`FormatError` or :class:`ChecksumError`
    naming the file.

    Args:
        pool_capacity, mapped: how ``u.mat`` is opened (see
            :meth:`MatrixStore.open`).  Nothing else is mapped: the
            deltas are read into one private heap copy either way.
        on_corrupt: ``"degraded"`` absorbs damage to the parts a model
            can answer without — manifest, ``deltas.bin``,
            ``zero_rows.npy``, the update ledger — into
            ``degraded_reasons`` and returns those parts empty (without
            a manifest, no file is size-checked).  The factor files are
            always load-bearing.
        for_append: the caller is about to derive the next version from
            this one.  Loads the drift sketch (into ``sketch``) and
            verifies the manifest SHA-256 of every file in
            ``_APPEND_INPUTS``.
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
        if manifest is not None:
            check_entry(directory, files, name, deep=for_append and name in _APPEND_INPUTS)

    for name in _FACTOR_FILES:
        check(name)
    if not (directory / U_NAME).exists():
        raise FormatError(f"{directory}: missing {U_NAME}")

    rows, cols = int(meta["rows"]), int(meta["cols"])
    no_rows = np.empty(0, dtype=np.int64)
    no_deltas = DeltaTable(np.zeros(rows + 1, dtype=np.int64), np.empty(0, np.uint16), np.empty(0))

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
        return DeltaFile.read_arrays(
            path, shape=(rows, cols), expected_count=int(meta["num_deltas"])
        )

    def load_sketch():
        # Only an append looks inside the sketch; every other read stops
        # at the manifest's size check.
        check(SKETCH_NAME)
        if not for_append:
            return None
        array = _load_npy(directory / SKETCH_NAME).astype(np.float64, copy=False)
        if not (
            array.ndim == 2 and array.shape[0] <= cols and array.shape[1] == cols
            and np.isfinite(array).all()
        ):
            raise FormatError(
                f"{directory}: {SKETCH_NAME} of shape {array.shape} is not a "
                f"finite (<= {cols}, {cols}) array"
            )
        return array

    def load_ledger():
        check(UPDATE_STATE_NAME)
        return read_update_state(directory)

    u_store = MatrixStore.open(
        directory / U_NAME, pool_capacity=pool_capacity, mapped=mapped
    )
    try:
        eigenvalues = _load_npy(directory / LAMBDA_NAME).astype(np.float64)
        v = _load_npy(directory / V_NAME).astype(np.float64)
        _require_shapes(directory, meta, u_store, eigenvalues, v)
        zero_rows = (
            optional(load_zero_rows, no_rows) if meta["zero_rows"] else no_rows
        )
        deltas = (
            optional(load_deltas, no_deltas) if int(meta["num_deltas"]) > 0 else no_deltas
        )
        update_state = optional(load_ledger, None)
        sketch = optional(load_sketch, None)
    except Exception as exc:
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
        deltas=deltas,
        zero_rows=zero_rows,
        update_state=update_state,
        sketch=sketch,
        manifest_files=files,
        degraded_reasons=reasons,
    )


# -- writing ---------------------------------------------------------------


def write_model(
    staging: Path,
    meta: dict,
    *,
    deltas: DeltaTable,
    zero_rows: np.ndarray,
    sketch: np.ndarray,
    update_state: dict,
    u: np.ndarray | None = None,
    eigenvalues: np.ndarray | None = None,
    v: np.ndarray | None = None,
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
        deltas: the version's outlier table (columns may not exceed
            what a uint16 addresses: a wider model is refused).
        zero_rows: rows known to be all zero in the data.  Those holding
            a delta are dropped here — a flagged row is answered 0.0
            without looking at the delta table (Section 6.2) — and the
            rest are written sorted.
        sketch, update_state: the append ledger.
        u: with ``previous``, the ``(n, cutoff)`` rows of U to append to
            a copy of its ``u.mat``.  A fresh model's build streams U
            into ``staging / U_NAME`` itself (with :func:`u_page_size`
            pages) and passes None.
        eigenvalues, v: the pinned factors, cast to the stored precision.
        previous: the version this one derives from.  A factor file that
            is neither passed nor already in ``staging`` is hardlinked
            from it, and keeps its manifest entry instead of being
            re-hashed.
        refresh_summaries: with ``previous``, False skips the summary
            build until a later ``repro summarize`` (see
            :func:`repro.summaries.compute.carry_summaries`).
    """
    # Lazy: repro.summaries sits above the storage layer.
    from repro.summaries.compute import carry_summaries, materialize_summaries

    bytes_per_value = int(meta["bytes_per_value"])
    dtype = factor_dtype(bytes_per_value)
    rows, cols, cutoff = int(meta["rows"]), int(meta["cols"]), int(meta["cutoff"])
    check_width(cols)

    def stored(values: np.ndarray) -> np.ndarray:
        """``values`` as a read of the file they are written to returns them."""
        return values.astype(dtype, copy=False).astype(np.float64, copy=False)

    if u is not None:
        # U grows: copy, then stream the new rows onto the copy.  The
        # live file is never modified, so readers stay consistent and a
        # crash mid-append discards only the staging directory.
        check_entry(previous.directory, previous.manifest_files, U_NAME, deep=True)
        shutil.copyfile(previous.directory / U_NAME, staging / U_NAME)
        with _span("update.append_u_rows", rows=u.shape[0]):
            with MatrixStore.open(staging / U_NAME) as grown:
                grown.append_rows(u)
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

    deltas = deltas._replace(values=stored(deltas.values))
    if deltas.count:
        DeltaFile.write(staging / DELTAS_NAME, deltas, (rows, cols), bytes_per_value)
    zero_rows = np.asarray(zero_rows, dtype=np.int64)
    if zero_rows.size and deltas.count:
        zero_rows = zero_rows[np.diff(deltas.row_start)[zero_rows] == 0]
    zero_rows = np.sort(zero_rows)
    if zero_rows.size:
        np.save(staging / ZERO_ROWS_NAME, zero_rows)

    counts = {"num_deltas": deltas.count, "zero_rows": int(zero_rows.size)}
    known = {**meta, **counts}
    # Canonical key order first; keys this version of the code does not
    # know (a hand-edited or newer meta.json) ride along behind.
    meta = {key: known[key] for key in _META_KEYS} | known
    (staging / META_NAME).write_text(json.dumps(meta, indent=2))
    np.save(staging / SKETCH_NAME, sketch)
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
            deltas=deltas,
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
