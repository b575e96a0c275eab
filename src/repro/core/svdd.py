"""SVDD — SVD with Deltas, the paper's proposed method (Section 4.2).

Given a space budget ``s`` (fraction of the uncompressed matrix), SVDD
trades principal components against explicitly stored outlier cells:

    Given   a desired compression ratio s,
    Find    the optimal number of principal components k_opt,
    Such That  total reconstruction error is minimized when the
               remaining budget stores cell-level deltas.

The construction is the paper's 3-pass algorithm (Figure 5):

- **Pass 1** — compute ``Lambda`` and ``V`` keeping ``k_max``
  eigenvalues (the largest cutoff that fits the budget), and estimate
  the affordable outlier count ``gamma_k`` for each candidate
  ``k = 1 .. k_max``;
- **Pass 2** — stream the matrix once; for every row compute the
  reconstruction error under every candidate ``k``, feed the worst
  cells into per-``k`` bounded priority queues of capacity ``gamma_k``,
  and accumulate the post-correction error ``epsilon_k``; pick
  ``k_opt = argmin_k epsilon_k``.  The working set is one chunk: one
  reconstruction per chunk, grown by one term per candidate, so the
  rank-``k`` error of a 128-row block is in hand after ``k`` rank-1
  updates and nothing is ever ``k_max`` deep.  Each queue starts at a
  floor sampled from 128 strided rows, so it admits ~3x what it keeps;
  one the floor left short is refilled by a (rare) fourth scan;
- **Pass 3** — stream once more, emitting the rows of ``U`` for
  ``k_opt`` (Eq. 11).

Reconstruction of a cell is the plain-SVD estimate (Eq. 12) plus an
exact correction when the cell is in the delta table — one bisection of
the sorted :class:`~repro.core.delta_index.DeltaIndex` (the paper's hash
table and Bloom filter survive as ``repro.lab.hashtable`` /
``repro.lab.bloom`` and the ``bench_ablation_bloom`` artifact).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core import space
from repro.core.delta_index import DeltaIndex
from repro.core.model import SVDDModel, SVDModel
from repro.core.svd import (
    _row_chunks,
    compute_gram,
    compute_u,
    source_shape,
    spectrum_from_gram,
)
from repro.exceptions import ConfigurationError
from repro.linalg import SymmetricEigensolver, default_eigensolver
from repro.obs.logging import log_event
from repro.obs.registry import registry as _obs
from repro.obs.tracing import span as _span
from repro.storage.matrix_store import MatrixStore
from repro.structures.topk import TopKBuffer

#: Rows in the strided sample that sets each candidate queue's floor.
_FLOOR_SAMPLE_ROWS = 128
#: A floor leaves this many times a queue's share of the sample above it.
_FLOOR_SLACK = 3


def sketch_rows(cutoff: int, cols: int) -> int:
    """Rows ``l`` of a rank-``cutoff`` model's drift sketch: ``min(2k, M)``."""
    return min(2 * cutoff, cols)


@dataclass(frozen=True)
class CutoffSelection:
    """Outcome of SVDD passes 1-2: everything pass 3 (and incremental
    maintenance) needs, with ``U`` deliberately absent.

    ``fit`` and :func:`~repro.core.build.build_compressed` both consume
    this, so the two entry points cannot diverge on ``k_opt``, the
    retained delta set, or the budget arithmetic.
    """

    #: The drift sketch ``Lambda_l V_l^t``, ``l = min(2 k_opt, M)`` rows.
    sketch: np.ndarray
    #: ``trace(X^t X)``, the matrix's energy (the drift ledger's total).
    total_energy: float
    #: Singular values at the chosen cutoff ``k_opt``, decreasing.
    singular_values: np.ndarray
    #: ``V`` restricted to the first ``k_opt`` columns (M x k_opt).
    v: np.ndarray
    #: The error-minimizing cutoff (paper Fig. 5 pass 2).
    k_opt: int
    #: Largest candidate cutoff that fit the budget.
    k_max: int
    #: ``epsilon_k`` for every candidate ``k`` (post-delta residual SSE).
    candidate_errors: np.ndarray
    #: The bounded priority queue of worst cells at ``k_opt``.
    delta_queue: TopKBuffer
    #: Full spectrum at ``k_max`` (what ``k_opt`` was chosen from).
    all_singular_values: np.ndarray
    #: Full ``V`` at ``k_max``.
    all_v: np.ndarray
    #: Indices of the all-zero rows, found while pass 2 had them in hand.
    zero_rows: np.ndarray

    @property
    def residual_sse(self) -> float:
        """Residual sum of squared errors at ``k_opt`` after deltas."""
        return float(self.candidate_errors[self.k_opt - 1])


def _record_pass(number: int, start: float, num_rows: int, **counts: int) -> None:
    """Record one build pass's wall time, throughput and ``counts`` (when enabled)."""
    if not _obs.enabled:
        return
    elapsed = time.perf_counter() - start
    _obs.gauge(f"build.pass{number}.seconds").set(elapsed)
    rows_per_s = num_rows / elapsed if elapsed > 0 else 0.0
    _obs.gauge(f"build.pass{number}.rows_per_s").set(rows_per_s)
    for name, value in counts.items():
        _obs.gauge(f"build.pass{number}.{name}").set(value)
    log_event(
        "build.pass",
        number=number,
        seconds=round(elapsed, 6),
        rows=num_rows,
        rows_per_s=round(rows_per_s, 1),
        **counts,
    )


def _rank_errors(block: np.ndarray, v: np.ndarray, depth: int) -> Iterator[np.ndarray]:
    """Yield ``block``'s flattened error under rank ``k = 1 .. depth``: one
    reconstruction grown by one term per ``k``, in one reused buffer."""
    proj = block @ v  # (c, k_max): the U*Lambda coordinates
    v_rows = np.ascontiguousarray(v.T)  # (k_max, M): one axis a row
    # Rank-k estimate, k growing.  It starts from -0.0, the additive
    # identity bit for bit (0.0 + -0.0 is 0.0).
    recon = np.full(block.shape, -0.0)
    term = np.empty(block.shape)
    diff = np.empty(block.shape)  # (c, M) deltas under rank k
    for ki in range(depth):
        recon += np.multiply(proj[:, ki, None], v_rows[ki], out=term)
        yield np.subtract(block, recon, out=diff).reshape(-1)


def _scan_errors(source, v, queues, sse, zero_rows) -> None:
    """One pass-2 scan: offer each chunk's rank-``k`` errors, one
    contiguous run of cell keys, to ``queues[k - 1]``, sum them into
    ``sse[k - 1]`` and note the all-zero rows."""
    row_base = 0
    for block in _row_chunks(source):
        zero_rows.append(row_base + np.flatnonzero(np.abs(block).sum(axis=1) == 0.0))
        for ki, deltas in enumerate(_rank_errors(block, v, len(queues))):
            sse[ki] += np.dot(deltas, deltas)
            queues[ki].offer(row_base * v.shape[0], deltas)
        row_base += block.shape[0]


def _sample_floors(source, v: np.ndarray, gammas: list[int]) -> list[float]:
    """Queue ``k``'s floor: the ``(j+1)``-th largest ``|error|`` under rank
    ``k`` of the ``m`` cells of a strided row sample, ``j = ceil(slack *
    gamma_k * m / (N M))`` (``-inf`` when ``j >= m``)."""
    num_rows, num_cols = source_shape(source)
    rows = np.linspace(0, num_rows - 1, min(num_rows, _FLOOR_SAMPLE_ROWS)).astype(int)
    if isinstance(source, MatrixStore):
        sample = source.read_rows(rows)
    else:
        sample = np.asarray(source, dtype=np.float64)[rows]
    floors = []
    for gamma, deltas in zip(gammas, _rank_errors(sample, v, len(gammas))):
        j = -(-_FLOOR_SLACK * gamma * deltas.size // (num_rows * num_cols))  # ceil
        rank = deltas.size - 1 - j
        floors.append(np.partition(np.abs(deltas), rank)[rank] if rank >= 0 else -np.inf)
    return floors


class SVDDCompressor:
    """Three-pass SVDD compressor.

    Args:
        budget_fraction: space budget ``s`` in (0, 1].
        k_max: optional cap on the candidate cutoffs considered
            (default: the largest cutoff that fits the budget).
        eigensolver: solver for the Gram eigenproblem.
        bytes_per_value: 'b' in the space accounting (the model's
            per-number cost; 4 = float32 storage).
        raw_bytes_per_value: element size of the uncompressed matrix the
            budget is measured against (default: same as
            bytes_per_value, the paper's accounting).
    """

    def __init__(
        self,
        budget_fraction: float,
        k_max: int | None = None,
        eigensolver: SymmetricEigensolver | None = None,
        bytes_per_value: int = space.BYTES_PER_VALUE,
        raw_bytes_per_value: int | None = None,
    ) -> None:
        if not 0.0 < budget_fraction <= 1.0:
            raise ConfigurationError(
                f"budget_fraction must be in (0, 1], got {budget_fraction}"
            )
        if k_max is not None and k_max < 1:
            raise ConfigurationError(f"k_max must be >= 1, got {k_max}")
        self.budget_fraction = budget_fraction
        self.k_max = k_max
        self.eigensolver = eigensolver or default_eigensolver()
        self.bytes_per_value = bytes_per_value
        self.raw_bytes_per_value = raw_bytes_per_value

    # -- pass 1 helpers ---------------------------------------------------

    def candidate_cutoffs(self, num_rows: int, num_cols: int) -> int:
        """``k_max``: the largest cutoff this compressor will consider.

        The budget-derived :func:`~repro.core.space.max_k_for_budget`,
        clipped by an explicit ``k_max`` argument when one was given.
        Public because build pipelines size their candidate queues with
        it; :func:`~repro.core.build.build_compressed` and :meth:`fit`
        both go through here, so they can never disagree.
        """
        k_fit = space.max_k_for_budget(
            num_rows,
            num_cols,
            self.budget_fraction,
            self.bytes_per_value,
            self.raw_bytes_per_value,
        )
        return min(k_fit, self.k_max) if self.k_max is not None else k_fit

    def _gamma(self, num_rows: int, num_cols: int, k: int) -> int:
        gamma = space.delta_budget(
            num_rows,
            num_cols,
            k,
            self.budget_fraction,
            self.bytes_per_value,
            self.raw_bytes_per_value,
        )
        # Storing more deltas than cells is meaningless.
        return min(gamma, num_rows * num_cols)

    # -- passes 1-2 (shared with the streamed build) -----------------------

    def select_cutoff(
        self, source: MatrixStore | np.ndarray, jobs: int = 1
    ) -> CutoffSelection:
        """Run passes 1-2 and choose ``k_opt`` (paper Fig. 5).

        This is the single implementation behind both :meth:`fit` and
        :func:`~repro.core.build.build_compressed`; the two entry
        points only differ in how pass 3 materializes ``U``.

        Pass 2 keeps one reconstruction per chunk and adds one term per
        candidate: after ``recon += proj[:, k] * v_k`` the chunk's
        rank-``k`` error ``block - recon`` is summed into ``epsilon_k``
        and offered, as one contiguous run of cell keys, to queue ``k``
        — which holds ``(key, delta)`` for the ``gamma_k`` cells of
        largest ``|delta|`` seen so far.  The terms are added in
        increasing ``k``, so each error is the one a cumulative sum over
        all ``k_max`` terms would give.

        A queue admits only cells above its floor (:func:`_sample_floors`),
        so it holds the global top ``gamma_k`` unless it ends short of
        ``gamma_k`` cells; the short ones are refilled by one more scan.

        Args:
            jobs: worker threads for the banded pass-1 Gram
                accumulation; pass 2 is sequential either way and the
                selection is identical for any ``jobs``.
        """
        num_rows, num_cols = source_shape(source)

        # ---- Pass 1: the spectrum to the sketch's depth; per-k delta budgets.
        k_max = self.candidate_cutoffs(num_rows, num_cols)
        pass1_start = time.perf_counter()
        with _span("build.pass1", rows=num_rows, cols=num_cols):
            gram = compute_gram(source, jobs=jobs)
            total_energy = float(np.trace(gram))
            depth = sketch_rows(k_max, num_cols)
            spectrum, vectors = spectrum_from_gram(gram, depth, self.eigensolver)
            del gram
        _record_pass(1, pass1_start, num_rows)
        k_max = min(k_max, spectrum.shape[0])  # effective rank may cut it down
        singular_values = spectrum[:k_max]
        v = vectors[:, :k_max]
        gammas = [self._gamma(num_rows, num_cols, k) for k in range(1, k_max + 1)]

        # ---- Pass 2: per-k cell errors -> priority queues + epsilon_k.
        sse = np.zeros(k_max)  # sum of squared errors per candidate k
        zero_rows = []
        pass2_start = time.perf_counter()
        with _span("build.pass2", rows=num_rows, k_max=int(k_max)):
            floors = _sample_floors(source, v, gammas)
            queues = [TopKBuffer(g, floor) for g, floor in zip(gammas, floors)]
            _scan_errors(source, v, queues, sse, zero_rows)
            admitted = sum(q.admitted for q in queues)
            short = [ki for ki, q in enumerate(queues) if len(q) < q.capacity]
            if short:
                depth = short[-1] + 1
                refill = [TopKBuffer(gammas[k] if k in short else 0) for k in range(depth)]
                _scan_errors(source, v, refill, np.zeros(depth), [])
                for ki in short:
                    queues[ki] = refill[ki]
                admitted += sum(q.admitted for q in refill)
        _record_pass(
            2, pass2_start, num_rows, admitted=admitted, short_queues=len(short)
        )

        # epsilon_k: residual error after the affordable deltas are
        # corrected exactly (their squared error leaves the total).
        epsilon = np.array(
            [sse[ki] - queues[ki].retained_score_sq_sum() for ki in range(k_max)]
        )
        epsilon = np.maximum(epsilon, 0.0)  # guard float cancellation
        k_opt = int(np.argmin(epsilon)) + 1
        sketch_count = sketch_rows(k_opt, num_cols)

        return CutoffSelection(
            sketch=spectrum[:sketch_count, None] * vectors[:, :sketch_count].T,
            total_energy=total_energy,
            singular_values=singular_values[:k_opt],
            v=v[:, :k_opt],
            k_opt=k_opt,
            k_max=k_max,
            candidate_errors=epsilon,
            delta_queue=queues[k_opt - 1],
            all_singular_values=singular_values,
            all_v=v,
            zero_rows=np.concatenate(zero_rows),
        )

    # -- the 3-pass fit -------------------------------------------------------

    def fit(self, source: MatrixStore | np.ndarray) -> SVDDModel:
        """Run the three passes and return the fitted :class:`SVDDModel`."""
        selection = self.select_cutoff(source)

        # ---- Pass 3: U for the chosen cutoff.
        lam_opt = selection.singular_values
        v_opt = selection.v
        u = compute_u(source, lam_opt, v_opt)
        svd_model = SVDModel(u=u, eigenvalues=lam_opt, v=v_opt)

        keys, deltas = selection.delta_queue.finalize()
        return SVDDModel(
            svd=svd_model,
            deltas=DeltaIndex(keys, deltas, svd_model.num_cols),
            k_max=selection.k_max,
            candidate_errors=selection.candidate_errors,
        )
