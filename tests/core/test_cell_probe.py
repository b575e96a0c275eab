"""The single-cell read path: exact counts under threads, exact answers.

A cell probe is one U page through the pool, k multiply-adds on Python
floats and one delta-key bisection.  Its counters are the paper's
disk-access accounting, so they must stay exact when many threads probe
one store, and its answer must be *the* formula ``((0.0 + p_1) + p_2)
... + p_k + delta`` — the k products ``p_i = (u_i * lambda_i) * v_ci``
added left to right, bit for bit, not approximately — on every kind of
open and precision.  ``sum()`` is not that formula: from Python 3.12 it
compensates, so the reference here adds in a loop as the probe does.
"""

from __future__ import annotations

import sys
import math
import threading

import numpy as np
import pytest

from repro.core import CompressedMatrix, build_compressed
from repro.core.update import append_columns, append_rows
from repro.query.engine import QueryEngine
from repro.storage import MatrixStore


def _data(rows: int, cols: int, seed: int, zero_rows=()) -> np.ndarray:
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((rows, 4)) @ rng.standard_normal((4, cols))
    data += 0.05 * rng.standard_normal(data.shape)
    data[list(zero_rows)] = 0.0
    return data


def _in_order(terms) -> float:
    """The terms added left to right from 0.0, on any Python."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _formula(store: CompressedMatrix) -> np.ndarray:
    """Every cell as its k products ``(u_i * lambda_i) * v_ci`` added
    left to right, plus its delta, from the store's own factors: ``U``
    by the batched gather, not the probe's row read."""
    rows, cols = store.shape
    scaled_u, v, deltas, _fetched = store.factors(np.arange(rows))
    stored = {}
    if deltas is not None:
        cells = zip(deltas.rows.tolist(), deltas.cols.tolist())
        stored = dict(zip(cells, deltas.values.tolist()))
    scaled_u, v = scaled_u.tolist(), v.tolist()
    return np.array(
        [
            [
                _in_order(a * b for a, b in zip(scaled_u[r], v[c]))
                + stored.get((r, c), 0.0)
                for c in range(cols)
            ]
            for r in range(rows)
        ]
    )


def _assert_order_matters(store: CompressedMatrix) -> None:
    """The grid tells the order apart: in some cells the in-order sum is
    not the exactly rounded one, which a compensated ``sum()`` (Python
    3.12+) or a reordered dot lands nearer to.  k <= 2 cannot: one or two
    terms added to 0.0 round once, in any order."""
    scaled_u, v, _, _ = store.factors(np.arange(store.shape[0]))
    v = v.tolist()
    products = ([a * b for a, b in zip(su, vc)] for su in scaled_u.tolist() for vc in v)
    assert store.cutoff >= 3
    assert any(_in_order(p) != math.fsum(p) for p in products)


class TestAnswersAreTheFormula:
    @pytest.mark.parametrize("bytes_per_value", [8, 4])
    @pytest.mark.parametrize("mapped", [False, True], ids=["pooled", "mapped"])
    def test_every_cell_bit_identical(self, tmp_path, bytes_per_value, mapped):
        data = _data(48, 20, 1, zero_rows=(5, 17))
        build_compressed(data, tmp_path / "m", 0.4, bytes_per_value=bytes_per_value).close()
        # A pool far smaller than the rows: probes see hits and misses.
        with CompressedMatrix.open(tmp_path / "m", pool_capacity=4, mapped=mapped) as store:
            assert store.num_deltas > 0 and store.num_zero_rows == 2
            want = _formula(store)
            rows, cols = store.shape
            _assert_order_matters(store)
            engine = QueryEngine(store)
            for r in range(rows):
                for c in range(cols):
                    assert store.cell(r, c) == want[r, c], (r, c)
                    assert engine.cell((r, c)).value == want[r, c], (r, c)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("mapped", [False, True], ids=["pooled", "mapped"])
    def test_rows_straddling_pages(self, tmp_path, dtype, mapped):
        # 5 float64 values are 40 bytes against 64-byte pages, so most
        # rows span two pages and read_span joins them.
        data = _data(30, 5, 2)
        MatrixStore.create(tmp_path / "s.mat", data, page_size=64, dtype=dtype).close()
        want = data.astype(dtype).astype(np.float64)
        with MatrixStore.open(tmp_path / "s.mat", pool_capacity=3, mapped=mapped) as store:
            engine = QueryEngine(store)
            for r in range(data.shape[0]):
                assert np.array_equal(store.row(r), want[r])
                for c in range(data.shape[1]):
                    assert engine.cell((r, c)).value == want[r, c]


def _assert_every_cell(store: CompressedMatrix) -> None:
    """Every engine probe is the formula bit for bit, and the dense
    reconstruction to 1e-12 relative (denominator floored, as the
    harness oracle floors it, so a true value near 0 cannot blow up)."""
    _assert_order_matters(store)
    want, dense = _formula(store), store.reconstruct_all()
    floor = float(np.abs(dense).mean())
    engine = QueryEngine(store)
    rows, cols = store.shape
    got = np.array([[engine.cell((r, c)).value for c in range(cols)] for r in range(rows)])
    assert np.array_equal(got, want)
    assert (np.abs(got - dense) <= 1e-12 * np.maximum(np.abs(dense), floor)).all()


class TestCellsAfterAppend:
    """``V`` and ``Lambda`` grow with an append, so the probe's Python
    copies of them must be the reopened directory's, not the old ones."""

    @pytest.mark.parametrize("bytes_per_value", [8, 4])
    @pytest.mark.parametrize("mapped", [False, True], ids=["pooled", "mapped"])
    def test_column_then_row_append(self, tmp_path, bytes_per_value, mapped):
        data = _data(60, 24, 4, zero_rows=(7,))
        directory = tmp_path / "m"
        build_compressed(data[:48, :20], directory, 0.4, bytes_per_value=bytes_per_value).close()
        with CompressedMatrix.open(directory, pool_capacity=4, mapped=mapped) as built:
            _assert_every_cell(built)
            append_columns(directory, data[:48, 20:])
            with built.reopen() as days:
                assert days.shape == (48, 24)
                _assert_every_cell(days)
                append_rows(directory, data[48:])
                with days.reopen() as customers:
                    assert customers.shape == (60, 24) and customers.num_deltas > 0
                    _assert_every_cell(customers)

    def test_degraded_open_without_deltas(self, tmp_path):
        directory = tmp_path / "m"
        build_compressed(_data(48, 20, 1), directory, 0.4).close()
        (directory / "deltas.bin").unlink()
        with CompressedMatrix.open(directory, pool_capacity=4, on_corrupt="degraded") as store:
            assert store.deltas_lost and store.delta_index is None
            _assert_every_cell(store)


class TestCountsUnderThreads:
    THREADS = 8
    PROBES = 2_000

    def test_eight_threads_count_every_probe_once(self, tmp_path):
        data = _data(400, 24, 3)
        build_compressed(data, tmp_path / "m", 0.2).close()
        with CompressedMatrix.open(tmp_path / "m", pool_capacity=64) as store:
            rows, cols = store.shape
            assert store.num_zero_rows == 0 and store.num_deltas > 0
            probes = [
                np.random.default_rng(seed).integers(0, (rows, cols), size=(self.PROBES, 2))
                for seed in range(self.THREADS)
            ]
            everything = np.concatenate(probes)
            index = store.delta_index
            stored_hits = int(
                np.isin(
                    everything[:, 0] * cols + everything[:, 1],
                    index.rows * cols + index.cols,
                ).sum()
            )
            engine = QueryEngine(store)
            pool, io, delta = store.u_pool_stats, store.u_io_stats, store.delta_index.stats
            pool.reset()
            reads_before = io.reads
            lookups_before, hits_before = delta["lookups"], delta["hits"]
            start = threading.Barrier(self.THREADS)
            errors = []

            def body(pairs):
                try:
                    start.wait(timeout=30)
                    for row, col in pairs.tolist():
                        engine.cell((row, col))
                except Exception as error:  # reported on the test's thread
                    errors.append(error)

            threads = [threading.Thread(target=body, args=(pairs,)) for pairs in probes]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not errors, errors
            total = self.THREADS * self.PROBES
            assert pool.hits + pool.misses == total
            assert pool.misses > 0 and pool.evictions > 0
            assert io.reads - reads_before == pool.misses
            assert delta["lookups"] - lookups_before == total
            assert delta["hits"] - hits_before == stored_hits
