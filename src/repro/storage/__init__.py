"""Paged storage engine.

The paper's performance claims are stated in disk accesses: plain SVD
reconstructs any cell with *one* disk access (the row of ``U``), with
``V`` and the eigenvalues pinned in main memory (Section 4.1), and the
construction algorithms are measured in *passes* over the on-disk data
matrix.  To make those claims measurable rather than assumed, this
package provides a small storage engine:

- :class:`FilePager` — fixed-size page I/O over a file, counting
  physical reads and writes;
- :class:`BufferPool` — LRU page cache with hit/miss statistics and
  pinning (for the in-memory ``V``/``Lambda`` of the paper);
- :class:`MatrixStore` — an on-disk row-major float64 matrix with
  streamed row iteration (a 'pass') and random row access through the
  buffer pool;
- :class:`DeltaFile` — the serialized form of the SVDD outlier table,
  :class:`DeltaTable` its row-start/column/value arrays;
- :mod:`repro.storage.model_dir` — the model directory built from
  those pieces: its file layout, the one reader every open/append/
  summarize parses it with, the one writer the build and both
  appends assemble it with.

Durability and fault tolerance live beside the data path:

- :mod:`repro.storage.atomic` — fsync'd temp-file and staging-directory
  protocols every persistent artifact is written through;
- :mod:`repro.storage.integrity` — the per-file SHA-256 manifest saved
  with each model and verified by ``open()`` (sizes) and ``repro fsck``
  (full hashes);
- :mod:`repro.storage.faults` — scripted I/O fault injection for the
  chaos suite (off by default, one ``None`` check per physical I/O).
"""

from repro.storage.atomic import atomic_write_bytes, staged_directory
from repro.storage.buffer_pool import BufferPool, PoolStats
from repro.storage.csv_io import matrix_store_from_csv, matrix_store_to_csv
from repro.storage.delta_file import DeltaFile, DeltaTable
from repro.storage.faults import FaultPlan
from repro.storage.integrity import (
    IntegrityReport,
    load_manifest,
    verify_manifest,
    write_manifest,
)
from repro.storage.matrix_store import MatrixStore
from repro.storage.pager import FilePager, IOStats, PAGE_SIZE_DEFAULT

__all__ = [
    "BufferPool",
    "matrix_store_from_csv",
    "matrix_store_to_csv",
    "atomic_write_bytes",
    "staged_directory",
    "DeltaFile",
    "DeltaTable",
    "FaultPlan",
    "FilePager",
    "IntegrityReport",
    "IOStats",
    "load_manifest",
    "MatrixStore",
    "PAGE_SIZE_DEFAULT",
    "PoolStats",
    "verify_manifest",
    "write_manifest",
]
