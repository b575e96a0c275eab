"""One-call, constant-memory construction of a persistent model.

:func:`build_compressed` is the one way a fresh model directory is
written (the appends in :mod:`repro.core.update` write every later
version).  ``SVDDCompressor.fit`` holds the ``N x k`` matrix ``U`` in
memory; the out-of-core path the paper's setting implies never
materializes anything O(N):

1. pass 1-2 of the SVDD algorithm run through
   :meth:`~repro.core.svdd.SVDDCompressor.select_cutoff` — the *same*
   code path ``fit`` uses, so the two entry points cannot diverge on
   ``k_opt`` or the delta set (their state is O(M^2), a chunk, and one
   score histogram per candidate: a few hundred bins each, whatever N);
2. pass 3 streams ``U`` rows *directly into the destination page file*
   via :func:`~repro.core.svd.compute_u_to_store` — one row of ``k_opt``
   values per page, in the requested precision, collecting ``k_opt``'s
   deltas;
3. ``V``, the eigenvalues, the deltas and the metadata are written
   beside it, along with the append ledger (``sketch.npy``, the top
   ``l = 2k`` of the pass-1 spectrum, and ``update_state.json``) that
   lets :mod:`repro.core.update` append new days or customers later
   without rescanning the original data.

Peak memory is O(M^2 + gamma_1) (:func:`estimate_build_memory`): only
``k_opt``'s deltas grow with N.  The source is read in three scans (the
Gram pass, the error pass, the ``U`` + deltas pass) and a 128-row
sample; a fourth only when pass 2 needs one (a short histogram, or
overlapping brackets).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from repro.core import space
from repro.obs.logging import log_event
from repro.obs.registry import registry as _obs
from repro.obs.tracing import span as _span
from repro.core.store import CompressedMatrix
from repro.core.svd import _CHUNK_ROWS, compute_u_to_store, source_shape
from repro.core.histogram import BIN_BITS
from repro.core.svdd import SVDDCompressor, _record_pass
from repro.exceptions import FormatError
from repro.storage.atomic import staged_directory
from repro.storage.matrix_store import MatrixStore
from repro.storage.model_dir import (
    U_NAME,
    factor_dtype,
    u_page_size,
    write_model,
)

#: Advisory drift level at which appends flag ``rebuild_recommended``.
DRIFT_THRESHOLD_DEFAULT = 0.10


def build_compressed(
    source: MatrixStore | np.ndarray,
    directory: str | os.PathLike,
    budget_fraction: float = 0.10,
    bytes_per_value: int = 8,
    compressor: SVDDCompressor | None = None,
    jobs: int = 1,
) -> CompressedMatrix:
    """Compress ``source`` straight into a model directory.

    Unlike ``compressor.fit(...)``, ``U`` never exists in memory: pass
    3 streams it into the page file.  Returns the opened
    :class:`CompressedMatrix`.

    Args:
        source: the data (on-disk store or ndarray).
        directory: destination model directory.
        budget_fraction: SVDD budget (ignored when ``compressor`` given).
        bytes_per_value: factor precision on disk (8 or 4).  The
            default compressor's space accounting uses the same 'b', so
            a float32 build budgets against 12-byte delta records and
            float32 factors — what actually lands on disk.
        compressor: optional pre-configured :class:`SVDDCompressor`.
        jobs: worker threads for the parallel passes.  ``> 1``
            parallelizes pass 1 (banded Gram accumulation) and overlaps
            pass 3's projection with its page writes; pass 2 and the
            output files are identical either way.
    """
    if bytes_per_value not in (4, 8):
        raise FormatError(f"bytes_per_value must be 4 or 8, got {bytes_per_value}")
    if jobs < 1:
        raise FormatError(f"jobs must be >= 1, got {jobs}")
    directory = Path(directory)
    fitter = compressor or SVDDCompressor(
        budget_fraction=budget_fraction, bytes_per_value=bytes_per_value
    )
    # The on-disk precision must match the compressor's space accounting
    # (a 'b'=4 budget assumes float32 factors and 12-byte delta records
    # actually land on disk), so an explicit compressor wins.
    bytes_per_value = int(getattr(fitter, "bytes_per_value", bytes_per_value))

    num_rows, num_cols = source_shape(source)
    selection = fitter.select_cutoff(source, jobs=jobs)
    k_opt = selection.k_opt
    lam_opt, v_opt = selection.singular_values, selection.v

    # Pass 3 onward writes the model files; they are assembled in a
    # staging sibling and atomically swapped into ``directory`` so an
    # interrupted build leaves either the previous model or nothing.
    sweep = selection.delta_sweep()
    with staged_directory(directory) as staging:
        pass3_start = time.perf_counter()
        with _span("build.pass3", rows=num_rows, k_opt=k_opt):
            u_store = compute_u_to_store(
                source,
                lam_opt,
                v_opt,
                staging / U_NAME,
                page_size=u_page_size(k_opt, bytes_per_value),
                dtype=factor_dtype(bytes_per_value),
                jobs=jobs,
                tap=sweep,
            )
            u_store.close()
        _record_pass(3, pass3_start, num_rows)

        deltas = sweep.deltas()
        retained = float(np.dot(deltas.values, deltas.values))
        residual = max(selection.error_energy - retained, 0.0)
        meta = write_model(
            staging,
            {
                "kind": "svdd",
                "rows": num_rows,
                "cols": num_cols,
                "cutoff": k_opt,
                "bytes_per_value": bytes_per_value,
            },
            eigenvalues=lam_opt,
            v=v_opt,
            deltas=deltas,
            zero_rows=selection.zero_rows,
            # The pass-1 state, so appends never rescan the data: the
            # sketch carries the top of the spectrum forward, the ledger
            # the energy split the drift estimate needs.
            sketch=selection.sketch,
            update_state={
                "format_version": 1,
                "budget_fraction": float(fitter.budget_fraction),
                "raw_bytes_per_value": fitter.raw_bytes_per_value,
                "total_energy": selection.total_energy,
                "captured_energy": float((lam_opt * lam_opt).sum()),
                "residual_sse": residual,
                "appends": 0,
                "rows_appended": 0,
                "cols_appended": 0,
                "drift": 0.0,
                "drift_threshold": DRIFT_THRESHOLD_DEFAULT,
                "rebuild_recommended": False,
            },
        )
    if _obs.enabled:
        _obs.gauge("build.deltas_retained").set(meta["num_deltas"])
        _obs.gauge("build.k_opt").set(k_opt)
        log_event(
            "build.done",
            directory=str(directory),
            rows=num_rows,
            cols=num_cols,
            k_opt=k_opt,
            deltas_retained=meta["num_deltas"],
            zero_rows=meta["zero_rows"],
        )
    return CompressedMatrix.open(directory)


def estimate_build_memory(num_cols: int, budget_fraction: float, num_rows: int) -> int:
    """Rough peak bytes :func:`build_compressed` needs — O(M^2 + gamma_1).

    Useful for capacity planning before pointing the builder at a very
    large store.  Ignores small constants.  Pass 1 peaks at four M x M
    arrays (the Gram matrix, the symmetrized copy that
    :func:`~repro.core.svd.eigenpairs` hands to ``numpy.linalg.eigh``,
    and the eigenvectors before and after sorting).  Passes 2-3 hold
    four chunk arrays, k_max histograms (charged at 20 octaves of
    16-byte bins, floor to top), and ``k_opt``'s cells in or above its cut bin
    (an 8-byte row, a 2-byte column and an 8-byte value each):
    ``gamma_1`` at most, and about ``2**-BIN_BITS`` of that more.
    """
    gram = num_cols * num_cols * 8
    chunk_cells = min(_CHUNK_ROWS, num_rows) * num_cols
    k_max = space.max_k_for_budget(num_rows, num_cols, budget_fraction)
    gamma_1 = space.delta_budget(num_rows, num_cols, 1, budget_fraction) if k_max else 0
    bins = k_max * 20 * 2**BIN_BITS * 16
    cells = int(18 * gamma_1 * (1 + 2.0**-BIN_BITS))
    return max(4 * gram, 4 * chunk_cells * 8 + bins + cells)
