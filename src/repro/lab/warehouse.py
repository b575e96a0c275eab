"""Warehouse catalog: many compressed matrices under one roof.

The paper's setting is a data warehouse, which holds more than one
dataset.  :class:`Warehouse` manages a directory of named
:class:`~repro.core.store.CompressedMatrix` models plus their raw
sources, with a JSON catalog recording name, shape, budget, build
parameters, and verification status — the operational surface around
the single-matrix machinery.

Layout::

    <root>/catalog.json
    <root>/<name>/raw.mat          (optional; kept when ingesting)
    <root>/<name>/model/...        (the CompressedMatrix directory)
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.core.store import CompressedMatrix
from repro.core.svdd import SVDDCompressor
from repro.core.verify import verify_model
from repro.exceptions import ConfigurationError, DatasetError, FormatError
from repro.storage.matrix_store import MatrixStore

_CATALOG = "catalog.json"


@dataclass
class CatalogEntry:
    """Metadata for one warehouse dataset.

    ``drift`` / ``rebuild_recommended`` track incremental maintenance
    (see :mod:`repro.core.update`); they default to the fresh-build
    values so catalogs written before the update subsystem load
    unchanged.
    """

    name: str
    rows: int
    cols: int
    budget_fraction: float
    cutoff: int
    num_deltas: int
    keeps_raw: bool
    verified_rmspe: float | None = None
    drift: float = 0.0
    rebuild_recommended: bool = False


class Warehouse:
    """A directory of named compressed datasets with a JSON catalog."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._entries: dict[str, CatalogEntry] = {}
        self._load_catalog()

    # -- catalog persistence ----------------------------------------------

    def _catalog_path(self) -> Path:
        return self.root / _CATALOG

    def _load_catalog(self) -> None:
        path = self._catalog_path()
        if not path.exists():
            return
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: corrupt catalog") from exc
        self._entries = {
            record["name"]: CatalogEntry(**record) for record in raw["datasets"]
        }

    def _save_catalog(self) -> None:
        payload = {
            "datasets": [asdict(entry) for entry in self._entries.values()]
        }
        self._catalog_path().write_text(json.dumps(payload, indent=2))

    # -- dataset management ------------------------------------------------

    def names(self) -> list[str]:
        """Catalogued dataset names, sorted."""
        return sorted(self._entries)

    def entry(self, name: str) -> CatalogEntry:
        """Catalog metadata for one dataset."""
        if name not in self._entries:
            raise DatasetError(f"no dataset {name!r} in warehouse {self.root}")
        return self._entries[name]

    def _validate_name(self, name: str) -> None:
        if not name or any(ch in name for ch in "/\\. "):
            raise ConfigurationError(
                f"dataset name {name!r} must be non-empty without '/', '\\\\', "
                "'.', or spaces"
            )

    def ingest(
        self,
        name: str,
        matrix: np.ndarray | MatrixStore,
        budget_fraction: float = 0.10,
        keep_raw: bool = True,
        verify: bool = True,
        compressor: SVDDCompressor | None = None,
        bytes_per_value: int = 8,
    ) -> CatalogEntry:
        """Compress ``matrix`` into the warehouse under ``name``.

        Builds through :func:`~repro.core.build.build_compressed`, so
        every ingested model carries the persisted pass-1 state that
        makes it appendable (:meth:`append_columns` /
        :meth:`append_rows`) without a rescan.

        Args:
            name: catalog key (also the subdirectory name).
            matrix: the data, in memory or as an existing store.
            budget_fraction: SVDD space budget (ignored when an explicit
                ``compressor`` is supplied).
            keep_raw: retain the raw matrix beside the model (needed for
                later :meth:`verify` / :meth:`rebuild` calls).
            verify: audit the model right after building and record the
                measured RMSPE in the catalog.
            compressor: optional pre-configured compressor.
            bytes_per_value: factor precision on disk (ignored when an
                explicit ``compressor`` is supplied).
        """
        from repro.core.build import build_compressed

        self._validate_name(name)
        if name in self._entries:
            raise DatasetError(f"dataset {name!r} already exists; drop it first")
        dataset_dir = self.root / name
        dataset_dir.mkdir(parents=True, exist_ok=True)

        if isinstance(matrix, MatrixStore):
            raw_store = matrix
            owns_raw = False
        else:
            raw_store = MatrixStore.create(dataset_dir / "raw.mat", matrix)
            owns_raw = True

        compressed = build_compressed(
            raw_store,
            dataset_dir / "model",
            budget_fraction=budget_fraction,
            bytes_per_value=bytes_per_value,
            compressor=compressor,
        )
        verified = None
        rows, cols = compressed.shape
        cutoff = compressed.cutoff
        num_deltas = compressed.num_deltas
        if verify:
            verified = verify_model(raw_store, compressed).rmspe
        compressed.close()

        if owns_raw and not keep_raw:
            raw_store.close()
            (dataset_dir / "raw.mat").unlink()
        elif owns_raw:
            raw_store.close()
        elif keep_raw:
            # Copy an externally-owned store into the warehouse.
            shutil.copyfile(raw_store.path, dataset_dir / "raw.mat")

        entry = CatalogEntry(
            name=name,
            rows=rows,
            cols=cols,
            budget_fraction=getattr(compressor, "budget_fraction", budget_fraction)
            if compressor
            else budget_fraction,
            cutoff=cutoff,
            num_deltas=num_deltas,
            keeps_raw=keep_raw,
            verified_rmspe=verified,
        )
        self._entries[name] = entry
        self._save_catalog()
        return entry

    # -- incremental maintenance ------------------------------------------

    def _apply_append(self, name: str, result) -> CatalogEntry:
        """Fold an :class:`~repro.core.update.AppendResult` into the catalog."""
        entry = self._entries[name]
        entry.rows = result.rows
        entry.cols = result.cols
        entry.num_deltas = result.num_deltas
        entry.drift = result.drift
        entry.rebuild_recommended = result.rebuild_recommended
        # The stored RMSPE audited the pre-append model; drop it rather
        # than report a stale figure for data it never saw.
        entry.verified_rmspe = None
        self._save_catalog()
        return entry

    def append_columns(self, name: str, new_cols: np.ndarray) -> CatalogEntry:
        """Append new days to a catalogued model in place.

        Runs :func:`repro.core.update.append_columns` on the dataset's
        model directory (crash-atomic; concurrent readers keep their
        pre-append snapshot until they reopen) and updates the catalog
        entry — shape, outlier count, drift, and the advisory
        ``rebuild_recommended`` flag.  The retained raw store, if any,
        is *not* extended, so :meth:`verify` refuses to audit an
        appended dataset until it is rebuilt from complete data.
        """
        from repro.core.update import append_columns as _append_columns

        self.entry(name)
        result = _append_columns(self.root / name / "model", new_cols)
        return self._apply_append(name, result)

    def append_rows(self, name: str, new_rows: np.ndarray) -> CatalogEntry:
        """Append new customers to a catalogued model in place.

        The row-wise counterpart of :meth:`append_columns`, backed by
        :func:`repro.core.update.append_rows`.
        """
        from repro.core.update import append_rows as _append_rows

        self.entry(name)
        result = _append_rows(self.root / name / "model", new_rows)
        return self._apply_append(name, result)

    def open(
        self, name: str, pool_capacity: int = 64, on_corrupt: str = "raise"
    ) -> CompressedMatrix:
        """Open a catalogued model for querying (caller closes it).

        ``on_corrupt="degraded"`` keeps a dataset queryable with
        SVD-only answers when its optional artifacts are damaged (see
        :meth:`CompressedMatrix.open`).
        """
        self.entry(name)
        return CompressedMatrix.open(
            self.root / name / "model", pool_capacity, on_corrupt=on_corrupt
        )

    def executor(
        self,
        name: str,
        max_workers: int | None = None,
        pool_capacity: int = 64,
        on_corrupt: str = "raise",
        mode: str = "thread",
    ):
        """Open a dataset behind a concurrent query executor.

        The convenience entry point for concurrent serving.
        ``mode="thread"`` (the default) opens the model in this process
        and hands ownership to a
        :class:`~repro.query.executor.QueryExecutor`, so closing the
        executor (or leaving its ``with`` block) closes the model too.
        ``mode="process"`` returns a
        :class:`~repro.query.process_executor.ProcessQueryExecutor`
        instead: worker processes open the model directory themselves
        and share ``u.mat`` through mmap, scaling past the GIL on
        multi-core hosts (``pool_capacity`` is ignored — mapped reads
        bypass the buffer pool)::

            with warehouse.executor("sales", max_workers=4, mode="process") as pool:
                report = pool.run_batch(queries)
        """
        if mode == "process":
            from repro.query.process_executor import ProcessQueryExecutor

            self.entry(name)
            return ProcessQueryExecutor(
                self.root / name / "model",
                max_workers=max_workers,
                on_corrupt=on_corrupt,
            )
        if mode != "thread":
            raise DatasetError(
                f"unknown executor mode {mode!r}: expected 'thread' or 'process'"
            )
        from repro.query.executor import QueryExecutor

        backend = self.open(name, pool_capacity, on_corrupt=on_corrupt)
        return QueryExecutor(backend, max_workers=max_workers, close_backend=True)

    def fsck(self, name: str, deep: bool = True):
        """Integrity-check one dataset's model directory."""
        from repro.storage.integrity import verify_manifest

        self.entry(name)
        return verify_manifest(self.root / name / "model", deep=deep)

    def open_raw(self, name: str) -> MatrixStore:
        """Open the retained raw store (caller closes it)."""
        entry = self.entry(name)
        if not entry.keeps_raw:
            raise DatasetError(f"dataset {name!r} was ingested without raw data")
        return MatrixStore.open(self.root / name / "raw.mat")

    def verify(self, name: str):
        """Re-audit a dataset's model against its retained raw data."""
        raw = self.open_raw(name)
        model = self.open(name)
        try:
            if model.shape != raw.shape:
                raise DatasetError(
                    f"dataset {name!r}: model shape {model.shape} no longer "
                    f"matches the retained raw data {raw.shape} — the model "
                    "was extended by incremental appends; re-ingest from "
                    "complete data to audit it"
                )
            report = verify_model(raw, model)
        finally:
            model.close()
            raw.close()
        self._entries[name].verified_rmspe = report.rmspe
        self._save_catalog()
        return report

    def drop(self, name: str) -> None:
        """Remove a dataset and its files."""
        self.entry(name)
        shutil.rmtree(self.root / name, ignore_errors=True)
        del self._entries[name]
        self._save_catalog()

    def total_model_bytes(self) -> int:
        """Combined on-disk size of all model directories."""
        total = 0
        for name in self._entries:
            model_dir = self.root / name / "model"
            total += sum(f.stat().st_size for f in model_dir.iterdir())
        return total
