"""Plain SVD compression — the paper's two-pass algorithm (Section 4.1).

The decomposition of the huge ``N x M`` matrix is reduced to an
in-memory eigenproblem on the small ``M x M`` Gram matrix (Lemma 3.2):

- **Pass 1** (:func:`compute_gram`): stream rows, accumulating
  ``C = X^t X`` (paper Figure 2);
- *(in memory)* eigendecompose ``C = V L^2 V^t``; the singular values
  are the square roots of C's eigenvalues;
- **Pass 2** (:func:`compute_u`): stream rows again, emitting
  ``u_i = x_i V L^{-1}`` (paper Figure 3 / Eq. 11).

Both passes work on a :class:`~repro.storage.matrix_store.MatrixStore`
and never materialize ``X``; in-memory ndarrays are also accepted for
convenience (the same code runs on an adapter that fakes the row
stream).
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.core.model import SVDModel
from repro.core import space
from repro.exceptions import ConfigurationError, ShapeError
from repro.storage.matrix_store import MatrixStore

#: Relative threshold below which an eigenvalue of C is treated as zero
#: (the matrix's numerical rank bound).
_RANK_TOL = 1e-12

_CHUNK_ROWS = 128


def _row_chunks(
    source: MatrixStore | np.ndarray,
    start: int = 0,
    stop: int | None = None,
) -> Iterator[np.ndarray]:
    """Yield row blocks from either a store (streamed) or an ndarray.

    ``start``/``stop`` restrict the scan to a contiguous row band —
    the unit of work the parallel passes hand to each worker.
    """
    if isinstance(source, MatrixStore):
        # A store streams whole multiples of a chunk, so the boundaries
        # fall where the ndarray branch puts them and both kinds of
        # source build the same model, byte for byte.
        for _, block in source.iter_row_blocks(start, stop):
            for begin in range(0, block.shape[0], _CHUNK_ROWS):
                yield block[begin : begin + _CHUNK_ROWS]
    else:
        arr = np.asarray(source, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ShapeError(f"expected a non-empty 2-d matrix, got shape {arr.shape}")
        stop = arr.shape[0] if stop is None else stop
        for begin in range(start, stop, _CHUNK_ROWS):
            yield arr[begin : min(begin + _CHUNK_ROWS, stop)]


def _row_bands(num_rows: int, jobs: int) -> list[tuple[int, int]]:
    """Split ``[0, num_rows)`` into at most ``jobs`` contiguous bands."""
    jobs = max(1, min(int(jobs), num_rows))
    size, extra = divmod(num_rows, jobs)
    bands = []
    begin = 0
    for index in range(jobs):
        end = begin + size + (1 if index < extra else 0)
        bands.append((begin, end))
        begin = end
    return bands


def source_shape(source: MatrixStore | np.ndarray) -> tuple[int, int]:
    """``(N, M)`` of a store or array input."""
    if isinstance(source, MatrixStore):
        return source.shape
    arr = np.asarray(source)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim {arr.ndim}")
    return arr.shape


def compute_gram(source: MatrixStore | np.ndarray, jobs: int = 1) -> np.ndarray:
    """Pass 1: the ``M x M`` column-to-column similarity matrix ``C = X^t X``.

    One pass over the data; memory is O(M^2) per worker regardless of N
    (the paper's stated requirement).

    With ``jobs > 1`` the row range is split into ``jobs`` contiguous
    bands scanned concurrently, each worker accumulating into its own
    ``M x M`` local Gram; the locals are summed at the end.  Because
    ``C = sum_i x_i^t x_i``, banding changes only the summation order of
    independent outer products — the workers never share an accumulator,
    so no locks are needed and there are no read-modify-write races.
    The band scans collectively read every row exactly once, so a
    :class:`MatrixStore` source still counts the work as one pass.
    """
    num_rows, _ = source_shape(source)
    if num_rows == 0:
        raise ShapeError("source produced no rows")
    bands = _row_bands(num_rows, jobs)

    def band_gram(band: tuple[int, int | None]) -> np.ndarray | None:
        local: np.ndarray | None = None
        for block in _row_chunks(source, *band):
            if local is None:
                local = np.zeros((block.shape[1], block.shape[1]))
            local += block.T @ block
        return local

    if len(bands) == 1:
        locals_ = [band_gram((0, None))]  # one plain scan
    else:
        with ThreadPoolExecutor(
            max_workers=len(bands), thread_name_prefix="repro-gram"
        ) as pool:
            locals_ = list(pool.map(band_gram, bands))
        if isinstance(source, MatrixStore):
            # The bands together covered the matrix once: one paper pass.
            source.note_full_scan()
    locals_ = [g for g in locals_ if g is not None]
    if not locals_:
        raise ShapeError("source produced no rows")
    gram = np.sum(locals_, axis=0) if len(locals_) > 1 else locals_[0]
    # Accumulation is exactly symmetric in theory; enforce it so the
    # eigensolver sees a clean symmetric input despite float rounding.
    return (gram + gram.T) / 2.0


def sort_eigenpairs(
    values: np.ndarray, vectors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs by decreasing eigenvalue, the order the spectral
    decomposition (Eq. 4) assumes.

    Each eigenvector is signed so that its largest-magnitude entry is
    positive: a vector is defined only up to sign, and this makes
    results comparable across solvers and runs.
    """
    order = np.argsort(values)[::-1]
    values, vectors = values[order], vectors[:, order]
    pivots = np.abs(vectors).argmax(axis=0)
    vectors[:, vectors[pivots, np.arange(vectors.shape[1])] < 0] *= -1.0
    return values, vectors


def eigenpairs(
    matrix: np.ndarray, k: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` largest eigenpairs of a symmetric matrix (all when
    ``k`` is None), by LAPACK's ``numpy.linalg.eigh``.

    Returns ``(values, vectors)`` in :func:`sort_eigenpairs`' order:
    column ``j`` of ``vectors`` is the unit eigenvector of
    ``values[j]``.  The matrix is symmetrized exactly first, so float
    rounding in a Gram's accumulation cannot reach the solve.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ShapeError("symmetric matrix contains NaN or infinite values")
    values, vectors = sort_eigenpairs(*np.linalg.eigh((arr + arr.T) / 2.0))
    if k is None:
        return values, vectors
    # Copies, so that the cut does not keep the whole M x M basis alive.
    return values[:k].copy(), vectors[:, :k].copy()


def spectrum_from_gram(gram: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose ``C`` and return ``(singular_values, V)`` truncated to ``k``.

    By Lemma 3.2 the eigenvalues of ``C`` are the squared singular
    values of ``X``; eigenvalues at or below numerical zero are dropped,
    so the returned cutoff can be smaller than ``k`` when the matrix has
    lower rank (e.g. the rank-2 toy matrix of Table 1).
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    values, vectors = eigenpairs(gram, k)
    eigenvalues = np.maximum(values, 0.0)
    top = eigenvalues[0] if eigenvalues.size else 0.0
    keep = eigenvalues > _RANK_TOL * max(top, 1.0)
    singular_values = np.sqrt(eigenvalues[keep])
    v = vectors[:, keep]
    if singular_values.size == 0:
        # A zero matrix: keep a single null component so downstream
        # shapes stay consistent (reconstruction is identically zero).
        singular_values = np.zeros(1)
        v = np.zeros((gram.shape[0], 1))
        v[0, 0] = 1.0
    return singular_values, v


def compute_u(
    source: MatrixStore | np.ndarray,
    singular_values: np.ndarray,
    v: np.ndarray,
) -> np.ndarray:
    """Pass 2: ``U = X V L^{-1}`` (Eq. 10/11), streamed row by row.

    Components with a zero singular value get zero coordinates (they
    contribute nothing to reconstruction either way).
    """
    return np.vstack(list(_projected(source, singular_values, v, None)))


def _projected(source, singular_values, v, tap, jobs=1) -> Iterator[np.ndarray]:
    """``(block @ V) L^{-1}`` for each source block, in row order; ``tap``,
    when given, sees each block first (SVDD's pass 3 collects its deltas)."""
    lam = np.asarray(singular_values, dtype=np.float64)
    vmat = np.asarray(v, dtype=np.float64)
    if lam.ndim != 1 or vmat.ndim != 2 or vmat.shape[1] != lam.shape[0]:
        raise ShapeError(
            f"inconsistent spectrum: V {vmat.shape}, singular values {lam.shape}"
        )
    inv_lam = np.where(lam > 0.0, 1.0 / np.where(lam > 0.0, lam, 1.0), 0.0)

    def blocks():
        for block in _row_chunks(source):
            if tap is not None:
                tap(block)
            yield block

    if jobs > 1:
        return _overlapped_projection(blocks(), vmat, inv_lam)
    return ((block @ vmat) * inv_lam for block in blocks())


def compute_u_to_store(
    source: "MatrixStore | np.ndarray",
    singular_values: np.ndarray,
    v: np.ndarray,
    destination,
    page_size: int | None = None,
    dtype=np.float64,
    jobs: int = 1,
    tap: Callable[[np.ndarray], None] | None = None,
):
    """Pass 2 variant that streams U rows straight to a new MatrixStore.

    For truly huge N this is the production path: neither ``X`` nor
    ``U`` is ever materialized — each row block is projected and
    appended to the on-disk store.  Returns the open store.

    With ``jobs > 1`` the projection is double-buffered: a producer
    thread reads source blocks and computes ``(block @ V) L^{-1}``
    while the caller's thread drains a two-slot queue and appends the
    finished blocks to the page file.  Compute and write I/O overlap;
    row order (and thus the output file) is byte-identical to the
    sequential path because the queue preserves block order.

    Args:
        destination: path for the U store.
        page_size: page size for the U store (default: one U row,
            giving the paper's one-access layout).
        dtype: on-disk element type of U.
        jobs: ``> 1`` enables the overlapped producer/writer pipeline.
        tap: called with every source block, in row order, before it
            is projected (on the producer thread when ``jobs > 1``).
    """
    u_blocks = _projected(source, singular_values, v, tap, jobs)
    cols = np.asarray(singular_values).shape[0]
    if page_size is None:
        page_size = max(64, cols * np.dtype(dtype).itemsize)

    def u_rows():
        for projected in u_blocks:
            for row in projected:
                yield row

    return MatrixStore.create_from_rows(
        destination, u_rows(), num_cols=cols, page_size=page_size, dtype=dtype
    )


#: Depth of the pass-3 double buffer: one block being written while the
#: next is being computed; a third slot would only add memory.
_PIPELINE_DEPTH = 2

#: Sentinel closing the producer/writer queue.
_DONE = object()


def _overlapped_projection(
    source_blocks: Iterable[np.ndarray],
    vmat: np.ndarray,
    inv_lam: np.ndarray,
) -> Iterator[np.ndarray]:
    """Yield projected U blocks computed by a background producer.

    The producer reads and projects ``source_blocks`` into a bounded queue;
    this generator (running on the writer's thread) drains it in order.
    A producer exception is forwarded through the queue and re-raised
    here, so failures surface on the caller's thread as usual.
    """
    blocks: queue.Queue = queue.Queue(maxsize=_PIPELINE_DEPTH)

    def produce() -> None:
        try:
            for block in source_blocks:
                blocks.put((block @ vmat) * inv_lam)
        except BaseException as exc:  # forwarded, not swallowed
            blocks.put(exc)
        else:
            blocks.put(_DONE)

    worker = threading.Thread(
        target=produce, name="repro-u-producer", daemon=True
    )
    worker.start()
    try:
        while True:
            item = blocks.get()
            if item is _DONE:
                break
            if isinstance(item, BaseException):
                raise item
            yield item
    finally:
        # If the writer bailed early the producer may be parked on a
        # full queue; keep draining until it exits so join() can't hang.
        while worker.is_alive():
            try:
                blocks.get_nowait()
            except queue.Empty:
                pass
            worker.join(timeout=0.005)
        worker.join()


class SVDCompressor:
    """Two-pass truncated-SVD compressor (the paper's 'plain SVD').

    Exactly one of ``k`` / ``budget_fraction`` chooses the cutoff:
    ``k`` retains a fixed number of principal components;
    ``budget_fraction`` retains as many as fit in ``s`` of the original
    space per Eq. 9 ('keep as many eigenvectors as the space
    restrictions permit', Section 3.4).

    Args:
        k: explicit cutoff.
        budget_fraction: space budget ``s`` in (0, 1].
        bytes_per_value: the 'b' of the space accounting.
    """

    def __init__(
        self,
        k: int | None = None,
        budget_fraction: float | None = None,
        bytes_per_value: int = space.BYTES_PER_VALUE,
    ) -> None:
        if (k is None) == (budget_fraction is None):
            raise ConfigurationError(
                "exactly one of k / budget_fraction must be given"
            )
        if k is not None and k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.k = k
        self.budget_fraction = budget_fraction
        self.bytes_per_value = bytes_per_value

    def resolve_cutoff(self, num_rows: int, num_cols: int) -> int:
        """The cutoff this compressor will use on an ``N x M`` input."""
        if self.k is not None:
            return min(self.k, num_rows, num_cols)
        return space.max_k_for_budget(
            num_rows, num_cols, self.budget_fraction, self.bytes_per_value
        )

    def fit(self, source: MatrixStore | np.ndarray) -> SVDModel:
        """Run the two passes and return the truncated model."""
        num_rows, num_cols = source_shape(source)
        cutoff = self.resolve_cutoff(num_rows, num_cols)
        gram = compute_gram(source)  # pass 1
        singular_values, v = spectrum_from_gram(gram, cutoff)
        u = compute_u(source, singular_values, v)  # pass 2
        return SVDModel(u=u, eigenvalues=singular_values, v=v)
