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
  reconstruction error under every candidate ``k``, count the cells'
  scores into a per-``k`` histogram (the paper's priority queue,
  counted: :mod:`repro.core.histogram`) that brackets the
  post-correction error ``epsilon_k``; pick ``k_opt = argmin_k
  epsilon_k``.  The working set is one chunk, grown by one term per
  candidate, so nothing is ever ``k_max`` deep.  A (rare) fourth scan
  refills a histogram its sampled floor left short, or settles
  candidates whose brackets overlap;
- **Pass 3** — stream once more, emitting the rows of ``U`` for
  ``k_opt`` (Eq. 11) and collecting its deltas, cut exactly.

Reconstruction of a cell is the plain-SVD estimate (Eq. 12) plus an
exact correction when the cell is in the sorted
:class:`~repro.core.delta_index.DeltaIndex`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core import space
from repro.core.delta_index import DeltaIndex
from repro.core.histogram import ScoreHistogram
from repro.core.model import SVDDModel, SVDModel
from repro.core.svd import (
    _projected,
    _row_chunks,
    compute_gram,
    source_shape,
    spectrum_from_gram,
)
from repro.exceptions import ConfigurationError, ShapeError
from repro.obs.logging import log_event
from repro.obs.registry import registry as _obs
from repro.obs.tracing import span as _span
from repro.storage.delta_file import DeltaTable, check_width
from repro.storage.matrix_store import MatrixStore

#: Rows in the strided sample that sets each candidate histogram's floor.
_FLOOR_SAMPLE_ROWS = 128
#: A floor leaves this many times a candidate's share of the sample above it.
_FLOOR_SLACK = 3
#: A histogram raises its floor to its cut bin every this many chunks.
_RAISE_EVERY = 4
_ROUNDING = 1e-12  # an epsilon_k this small beside its SSE is 0


def sketch_rows(cutoff: int, cols: int) -> int:
    """Rows ``l`` of a rank-``cutoff`` model's drift sketch: ``min(2k, M)``."""
    return min(2 * cutoff, cols)


@dataclass(frozen=True)
class CutoffSelection:
    """Outcome of SVDD passes 1-2: everything pass 3 (and incremental
    maintenance) needs, with ``U`` and the deltas deliberately absent.

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
    #: ``[low, high]`` brackets on ``epsilon_k`` (post-delta residual SSE)
    #: for every candidate ``k``, ``low == high`` where it is exact.
    candidate_errors: np.ndarray
    #: ``k_opt``'s histogram: where pass 3 cuts its deltas.
    histogram: ScoreHistogram
    #: ``k_opt``'s squared error before deltas (less theirs: the residual SSE).
    error_energy: float
    #: Full ``V`` at ``k_max``.
    all_v: np.ndarray
    #: Indices of the all-zero rows, found while pass 2 had them in hand.
    zero_rows: np.ndarray

    def delta_sweep(self) -> "DeltaSweep":
        """Pass 3's collector of ``k_opt``'s deltas (fed every chunk)."""
        return DeltaSweep(self.histogram, self.all_v, self.k_opt)


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


def _rank_errors(block, v, depth: int, first: int = 1) -> Iterator[np.ndarray]:
    """Yield ``block``'s flattened error under rank ``k = first .. depth``:
    one reconstruction grown by one term per ``k``, in one reused buffer."""
    proj = block @ v  # (c, k_max): the U*Lambda coordinates
    v_rows = np.ascontiguousarray(v.T)  # (k_max, M): one axis a row
    # Rank-k estimate, k growing.  It starts from -0.0, the additive
    # identity bit for bit (0.0 + -0.0 is 0.0).
    recon = np.full(block.shape, -0.0)
    term = np.empty(block.shape)
    diff = np.empty(block.shape)  # (c, M) deltas under rank k
    for ki in range(depth):
        recon += np.multiply(proj[:, ki, None], v_rows[ki], out=term)
        if ki + 1 >= first:
            yield np.subtract(block, recon, out=diff).reshape(-1)


def _scan_errors(source, v, hists, sse, zero_rows) -> None:
    """One pass-2 scan: chunk scores under rank ``k`` go to ``hists[k - 1]``
    (none where it is None), squared errors to ``sse[k - 1]`` and
    all-zero rows to ``zero_rows``."""
    row_base = 0
    for chunk, block in enumerate(_row_chunks(source), 1):
        zero_rows.append(row_base + np.flatnonzero(np.abs(block).sum(axis=1) == 0.0))
        scores = np.empty(block.size)
        for ki, deltas in enumerate(_rank_errors(block, v, len(hists))):
            sse[ki] += np.dot(deltas, deltas)
            if hists[ki] is not None:
                hists[ki].add(np.abs(deltas, out=scores))
        for hist in filter(None, hists) if chunk % _RAISE_EVERY == 0 else ():
            hist.raise_floor()
        row_base += block.shape[0]


class DeltaSweep:
    """The top ``gamma`` cells of a histogram, in row-major order, ties at
    the ``gamma``-th score going to the first cells.  Called with pass 3's
    chunks (in row order, cut as pass 2 cut them), it keeps every cell
    in or above the cut bin — the count pass 2 took — recomputing their
    rank-``depth`` errors with the ``V`` pass 2 binned (its k_max-wide
    one: GEMM columns are not bit-stable across widths)."""

    def __init__(self, hist: ScoreHistogram, v: np.ndarray, depth: int) -> None:
        (self._floor, count), self._gamma = hist.sweep_cut(), hist.gamma
        self._v, self._depth = v, depth
        self._filled = self._base = 0  # cells kept; next chunk's first row
        self._rows = np.empty(count, dtype=np.int64)
        self._cols = np.empty(count, dtype=np.uint16)
        self._values = np.empty(count)

    def __call__(self, block: np.ndarray) -> None:
        (deltas,) = _rank_errors(block, self._v, self._depth, first=self._depth)
        deltas = deltas.reshape(block.shape)
        rows, cols = np.nonzero(np.abs(deltas) >= self._floor)
        end = self._filled + rows.size
        np.add(rows, self._base, out=self._rows[self._filled : end])
        self._cols[self._filled : end] = cols
        self._values[self._filled : end] = deltas[rows, cols]
        self._filled = end
        self._base += block.shape[0]

    def deltas(self) -> DeltaTable:
        """The top ``gamma`` as a table, once every chunk is in."""
        if self._filled != self._values.size:  # the source changed between scans
            raise ShapeError(f"{self._filled} of {self._values.size} cells at the cut")
        spare = self._values.size - self._gamma
        if spare:  # keep the top gamma alone from here on
            scores = np.abs(self._values)
            cut = np.partition(scores, spare)[spare]
            keep = scores > cut
            keep[np.flatnonzero(scores == cut)[: self._gamma - np.count_nonzero(keep)]] = True
            kept = (self._rows, self._cols, self._values)
            self._rows, self._cols, self._values = (array[keep] for array in kept)
            self._filled = self._gamma
        return DeltaTable.from_cells(self._rows, self._cols, self._values, self._base)


def _sample_floors(source, v: np.ndarray, gammas: list[int]) -> list[float]:
    """Histogram ``k``'s floor: the ``(j+1)``-th largest ``|error|`` under rank
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
        self.bytes_per_value = bytes_per_value
        self.raw_bytes_per_value = raw_bytes_per_value

    # -- pass 1 helpers ---------------------------------------------------

    def candidate_cutoffs(self, num_rows: int, num_cols: int) -> int:
        """``k_max``: the largest cutoff this compressor will consider.

        The budget-derived :func:`~repro.core.space.max_k_for_budget`,
        clipped by an explicit ``k_max`` argument when one was given.
        Public because build pipelines size their candidate histograms
        with it; :func:`~repro.core.build.build_compressed` and :meth:`fit`
        both go through here, so they can never disagree.
        """
        k_fit = space.max_k_for_budget(num_rows, num_cols, *self._accounting)
        return min(k_fit, self.k_max) if self.k_max is not None else k_fit

    def _gamma(self, num_rows: int, num_cols: int, k: int) -> int:
        gamma = space.delta_budget(num_rows, num_cols, k, *self._accounting)
        # Storing more deltas than cells is meaningless.
        return min(gamma, num_rows * num_cols)

    @property
    def _accounting(self) -> tuple[float, int, int | None]:
        """The space accounting's ``(s, b, raw b)``."""
        return self.budget_fraction, self.bytes_per_value, self.raw_bytes_per_value

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
        rank-``k`` error ``block - recon`` is summed into the squared
        error and counted into histogram ``k`` (scores, not cells: pass
        3 collects ``k_opt``'s, :meth:`CutoffSelection.delta_sweep`).
        The terms are added in increasing ``k``, so each error is the
        one a cumulative sum over all ``k_max`` terms would give.

        A histogram counts only scores above its floor
        (:func:`_sample_floors`) and brackets ``epsilon_k``.  One more
        scan bins again, unfloored, the histograms a floor left short,
        and keeps the cut bins' exact scores of the candidates whose
        brackets overlap ``k_opt``'s: ``k_opt = argmin epsilon_k``
        either way, ties to the smallest ``k``.

        Args:
            jobs: worker threads for the banded pass-1 Gram
                accumulation; pass 2 is sequential either way and the
                selection is identical for any ``jobs``.
        """
        num_rows, num_cols = source_shape(source)
        check_width(num_cols)

        # ---- Pass 1: the spectrum to the sketch's depth; per-k delta budgets.
        k_max = self.candidate_cutoffs(num_rows, num_cols)
        pass1_start = time.perf_counter()
        with _span("build.pass1", rows=num_rows, cols=num_cols):
            gram = compute_gram(source, jobs=jobs)
            total_energy = float(np.trace(gram))
            depth = sketch_rows(k_max, num_cols)
            spectrum, vectors = spectrum_from_gram(gram, depth)
            del gram
        _record_pass(1, pass1_start, num_rows)
        k_max = min(k_max, spectrum.shape[0])  # effective rank may cut it down
        singular_values = spectrum[:k_max]
        v = vectors[:, :k_max]
        gammas = [self._gamma(num_rows, num_cols, k) for k in range(1, k_max + 1)]

        # ---- Pass 2: per-k cell errors -> histograms + epsilon_k brackets.
        sse = np.zeros(k_max)  # sum of squared errors per candidate k
        zero_rows = []
        pass2_start = time.perf_counter()
        with _span("build.pass2", rows=num_rows, k_max=int(k_max)):
            floors = _sample_floors(source, v, gammas)
            hists = [ScoreHistogram(g, floor) for g, floor in zip(gammas, floors)]
            _scan_errors(source, v, hists, sse, zero_rows)
            admitted = sum(hist.admitted for hist in hists)
            short = rescan = [ki for ki, hist in enumerate(hists) if hist.cut() is None]
            for ki in short:
                hists[ki] = ScoreHistogram(gammas[ki], -np.inf)
            while True:
                if rescan:
                    scanned = [hists[k] if k in rescan else None for k in range(rescan[-1] + 1)]
                    _scan_errors(source, v, scanned, np.zeros(len(scanned)), [])
                # [low, high] of epsilon_k: the deltas' energy leaves sse
                # (an exact 0 reads a few ulps of either sign: rounding).
                retained = np.array([hist.bracket() for hist in hists])
                epsilon = np.maximum(sse[:, None] - retained[:, ::-1], 0.0)
                epsilon[epsilon <= _ROUNDING * sse[:, None]] = 0.0
                contenders = epsilon[:, 0] <= epsilon[:, 1].min()
                doubt = contenders & (epsilon[:, 0] < epsilon[:, 1])
                rescan = np.flatnonzero(doubt).tolist() if contenders.sum() > 1 else []
                if not rescan:
                    break
                for ki in rescan:
                    hists[ki].held = []
            admitted += sum(hists[ki].admitted for ki in short)
        _record_pass(
            2, pass2_start, num_rows, admitted=admitted, short_queues=len(short)
        )

        k_opt = int(np.argmin(np.where(contenders, epsilon[:, 1], np.inf))) + 1
        sketch_count = sketch_rows(k_opt, num_cols)

        return CutoffSelection(
            sketch=spectrum[:sketch_count, None] * vectors[:, :sketch_count].T,
            total_energy=total_energy,
            singular_values=singular_values[:k_opt],
            v=v[:, :k_opt],
            k_opt=k_opt,
            k_max=k_max,
            candidate_errors=epsilon,
            histogram=hists[k_opt - 1],
            error_energy=float(sse[k_opt - 1]),
            all_v=v,
            zero_rows=np.concatenate(zero_rows),
        )

    # -- the 3-pass fit -------------------------------------------------------

    def fit(self, source: MatrixStore | np.ndarray) -> SVDDModel:
        """Run the three passes and return the fitted :class:`SVDDModel`."""
        selection = self.select_cutoff(source)

        # ---- Pass 3: U for the chosen cutoff, and its deltas.
        lam, v, sweep = selection.singular_values, selection.v, selection.delta_sweep()
        u = np.vstack(list(_projected(source, lam, v, sweep)))
        svd_model = SVDModel(u=u, eigenvalues=lam, v=v)
        deltas = sweep.deltas()
        errors = selection.candidate_errors.copy()  # k_opt's exact now:
        retained = np.dot(deltas.values, deltas.values)
        errors[selection.k_opt - 1] = max(selection.error_energy - retained, 0)
        return SVDDModel(
            svd=svd_model,
            deltas=DeltaIndex(deltas, svd_model.num_cols),
            k_max=selection.k_max,
            candidate_errors=errors,
        )
