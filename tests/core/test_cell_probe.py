"""The single-cell read path: exact counts under threads, exact answers.

A cell probe is one U page through the pool, one k-term dot product and
one delta-key bisection.  Its counters are the paper's disk-access
accounting, so they must stay exact when many threads probe one store,
and its answer must be *the* formula ``float(np.dot(U[r, :k] * Lambda,
V[c])) + delta`` — bit for bit, not approximately — on every kind of
open and precision.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import CompressedMatrix, build_compressed
from repro.query.engine import QueryEngine
from repro.storage import MatrixStore


def _data(rows: int, cols: int, seed: int, zero_rows=()) -> np.ndarray:
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((rows, 4)) @ rng.standard_normal((4, cols))
    data += 0.05 * rng.standard_normal(data.shape)
    data[list(zero_rows)] = 0.0
    return data


def _formula(store: CompressedMatrix) -> np.ndarray:
    """Every cell as ``float(np.dot(U[r, :k] * Lambda, V[c])) + delta``,
    from the store's own factors."""
    rows, cols = store.shape
    scaled_u, v, deltas, _fetched = store.factors(np.arange(rows))
    stored = {}
    if deltas is not None:
        cells = zip(deltas.rows.tolist(), deltas.cols.tolist())
        stored = dict(zip(cells, deltas.values.tolist()))
    return np.array(
        [
            [
                float(np.dot(scaled_u[r], v[c])) + stored.get((r, c), 0.0)
                for c in range(cols)
            ]
            for r in range(rows)
        ]
    )


class TestAnswersAreTheFormula:
    @pytest.mark.parametrize("bytes_per_value", [8, 4])
    @pytest.mark.parametrize("mapped", [False, True], ids=["pooled", "mapped"])
    def test_every_cell_bit_identical(self, tmp_path, bytes_per_value, mapped):
        data = _data(48, 20, 1, zero_rows=(5, 17))
        build_compressed(data, tmp_path / "m", 0.2, bytes_per_value=bytes_per_value).close()
        # A pool far smaller than the rows: probes see hits and misses.
        with CompressedMatrix.open(tmp_path / "m", pool_capacity=4, mapped=mapped) as store:
            assert store.num_deltas > 0 and store.num_zero_rows == 2
            want = _formula(store)
            rows, cols = store.shape
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
