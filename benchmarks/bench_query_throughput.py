"""Query throughput: cell queries per second, compressed vs raw.

The paper's pitch is that compression need not cost query capability.
This bench measures single-cell query throughput on the persistent
compressed store against the raw store, across buffer-pool sizes and
eviction policies, on a skewed (Zipf-ish) row-access pattern — the
realistic case where some customers are queried far more than others.

Expected shape: the compressed store's throughput is within a small
factor of the raw store's (both are one page access per cold row; the
compressed pages are smaller); larger pools help both; CLOCK tracks
LRU's hit rate on the skewed workload.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import emit, emit_json, format_table
from repro.core import CompressedMatrix, SVDDCompressor
from repro.obs import Histogram
from repro.obs.bench import latency_summary_ms
from repro.storage import BufferPool, MatrixStore


def _workload(shape: tuple[int, int], count: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(91)
    # Zipf-ish row skew: a few hot customers, a long cold tail.
    rows = rng.zipf(1.3, size=count) % shape[0]
    cols = rng.integers(shape[1], size=count)
    return [(int(r), int(c)) for r, c in zip(rows, cols)]


def test_query_throughput(tmp_path_factory, phone2000, benchmark):
    root = tmp_path_factory.mktemp("throughput")
    model = SVDDCompressor(budget_fraction=0.10).fit(phone2000)
    CompressedMatrix.save(model, root / "model").close()
    MatrixStore.create(root / "raw.mat", phone2000).close()
    queries = _workload(phone2000.shape, 4000)

    rows = []
    throughput = {}
    config_metrics = {}
    for label, pool_capacity in (("64-page pool", 64), ("512-page pool", 512)):
        compressed_latency = Histogram()
        compressed = CompressedMatrix.open(root / "model", pool_capacity=pool_capacity)
        start = time.perf_counter()
        for row, col in queries:
            begin = time.perf_counter_ns()
            compressed.cell(row, col)
            compressed_latency.observe(time.perf_counter_ns() - begin)
        compressed_qps = len(queries) / (time.perf_counter() - start)
        hit_rate = compressed.u_pool_stats.hit_rate
        compressed.close()

        raw_latency = Histogram()
        raw = MatrixStore.open(root / "raw.mat", pool_capacity=pool_capacity)
        start = time.perf_counter()
        for row, col in queries:
            begin = time.perf_counter_ns()
            raw.cell(row, col)
            raw_latency.observe(time.perf_counter_ns() - begin)
        raw_qps = len(queries) / (time.perf_counter() - start)
        raw.close()

        throughput[label] = (compressed_qps, raw_qps)
        config_metrics[f"pool_{pool_capacity}"] = {
            "compressed_qps": round(compressed_qps, 1),
            "raw_qps": round(raw_qps, 1),
            "u_pool_hit_rate": round(hit_rate, 4),
            "latency_ms": {
                "compressed": latency_summary_ms(compressed_latency),
                "raw": latency_summary_ms(raw_latency),
            },
        }
        rows.append(
            [
                label,
                f"{compressed_qps:,.0f}",
                f"{hit_rate:.1%}",
                f"{raw_qps:,.0f}",
            ]
        )
    lines = format_table(
        "Cell-query throughput on a Zipf row workload (4000 queries, phone2000)",
        ["configuration", "compressed q/s", "U-pool hit rate", "raw q/s"],
        rows,
    )

    # Policy comparison at equal capacity on the same workload.
    policy_rows = []
    policy_hit_rates = {}
    for policy in ("lru", "clock"):
        raw = MatrixStore.open(root / "raw.mat")
        pool = BufferPool(raw._pager, capacity=32, policy=policy)
        raw._pool = pool
        for row, col in queries:
            raw.cell(row, col)
        policy_rows.append([policy, f"{pool.stats.hit_rate:.1%}"])
        policy_hit_rates[policy] = round(pool.stats.hit_rate, 4)
        raw.close()
    lines.append("")
    lines.extend(
        format_table(
            "Eviction policy hit rates (32-page pool, same workload)",
            ["policy", "hit rate"],
            policy_rows,
        )
    )
    emit("query_throughput", lines)
    emit_json(
        "query_throughput",
        params={
            "dataset": "phone2000",
            "queries": len(queries),
            "budget_fraction": 0.10,
            "workload": "zipf-1.3",
            "pool_capacities": [64, 512],
            "policy_pool_capacity": 32,
        },
        metrics={**config_metrics, "policy_hit_rates": policy_hit_rates},
    )

    # The compressed store keeps up with the raw store.  Wall-clock
    # ratios are machine/load sensitive, so the hard assertion is loose;
    # the structural claim (page misses comparable at a tenth of the
    # space) is what the storage_access bench pins down exactly.
    for compressed_qps, raw_qps in throughput.values():
        assert compressed_qps > raw_qps / 12

    compressed = CompressedMatrix.open(root / "model")
    benchmark(lambda: compressed.cell(1000, 183))
    compressed.close()


# ---------------------------------------------------------------------------
# Aggregate speedup: vectorized fast path vs the scalar pre-index path.
# ---------------------------------------------------------------------------

def _scalar_factor_aggregate(store: CompressedMatrix, row_idx, col_idx, function):
    """The pre-vectorization factor path, preserved as a baseline.

    One ``u_store.row`` call per selected row (a Python loop through the
    buffer pool) and a Python scan over the full stored outlier set for
    the delta correction — exactly the code shape this bench's fast path
    replaced with ``read_rows`` and the sorted ``DeltaIndex``.
    """
    eigenvalues = store._eigenvalues
    u_sel = np.vstack([store._u_store.row(int(i)) for i in row_idx])
    scaled_u = u_sel[:, : store.cutoff] * eigenvalues
    v_sel = store._v[col_idx]
    total = float((scaled_u @ v_sel.sum(axis=0)).sum())
    total_sq = 0.0
    if function == "stddev":
        gram = v_sel.T @ v_sel
        total_sq = float(np.einsum("nk,kl,nl->", scaled_u, gram, scaled_u))

    num_cols = store.shape[1]
    row_positions = {int(r): p for p, r in enumerate(row_idx)}
    col_positions = {int(c): p for p, c in enumerate(col_idx)}
    for key, delta in store.delta_index.items():
        row, col = divmod(int(key), num_cols)
        row_pos = row_positions.get(row)
        col_pos = col_positions.get(col)
        if row_pos is None or col_pos is None:
            continue
        total += delta
        if function == "stddev":
            base = float(scaled_u[row_pos] @ store._v[col])
            total_sq += 2.0 * base * delta + delta * delta

    count = row_idx.size * col_idx.size
    if function == "sum":
        return total
    mean = total / count
    return float(np.sqrt(max(total_sq / count - mean * mean, 0.0)))


def _delta_heavy_store(root, num_rows=4000, num_cols=366, num_deltas=40_000):
    """A saved SVDD backend with a dense outlier set (>= 10k deltas)."""
    from repro.core import DeltaIndex, SVDDModel, SVDModel

    rng = np.random.default_rng(17)
    k = 12
    svd = SVDModel(
        u=rng.standard_normal((num_rows, k)),
        eigenvalues=np.sort(rng.random(k) * 8 + 1)[::-1],
        v=rng.standard_normal((num_cols, k)),
    )
    keys = rng.choice(num_rows * num_cols, size=num_deltas, replace=False)
    values = rng.standard_normal(num_deltas) * 4
    model = SVDDModel(svd=svd, deltas=DeltaIndex(keys, values, num_cols))
    return CompressedMatrix.save(model, root / "delta_heavy")


def test_aggregate_speedup(tmp_path_factory):
    """The vectorized factor path is >= 5x the scalar one on sum/stddev."""
    from repro.query import AggregateQuery, QueryEngine, Selection

    root = tmp_path_factory.mktemp("agg_speedup")
    store = _delta_heavy_store(root)
    assert len(store.delta_index) >= 10_000

    selection = Selection(rows=range(0, 4000, 2), cols=range(0, 366, 2))
    engine = QueryEngine(store)
    row_idx, col_idx = selection.resolve(engine.shape)

    rows = []
    speedups = {}
    for function in ("sum", "stddev"):
        query = AggregateQuery(function, selection)

        # Best-of-repeats on both sides, interleaved so a load spike
        # hits both paths rather than biasing one.
        fast_time = np.inf
        scalar_time = np.inf
        for _ in range(5):
            start = time.perf_counter()
            fast_value = engine.aggregate(query).value
            fast_time = min(fast_time, time.perf_counter() - start)
            start = time.perf_counter()
            scalar_value = _scalar_factor_aggregate(store, row_idx, col_idx, function)
            scalar_time = min(scalar_time, time.perf_counter() - start)

        np.testing.assert_allclose(fast_value, scalar_value, rtol=1e-9, atol=1e-9)
        speedup = scalar_time / fast_time
        speedups[function] = {
            "scalar_ms": round(scalar_time * 1e3, 3),
            "vectorized_ms": round(fast_time * 1e3, 3),
            "speedup": round(speedup, 2),
        }
        rows.append(
            [
                function,
                f"{scalar_time * 1e3:.2f}",
                f"{fast_time * 1e3:.2f}",
                f"{speedup:.1f}x",
            ]
        )
        assert speedup >= 5.0, f"{function}: only {speedup:.1f}x"

    emit(
        "aggregate_speedup",
        format_table(
            "Factor aggregates, 2000x183 selection over 40k stored deltas "
            "(best of repeats)",
            ["aggregate", "scalar ms", "vectorized ms", "speedup"],
            rows,
        ),
    )
    emit_json(
        "aggregate_speedup",
        params={
            "rows": 4000,
            "cols": 366,
            "stored_deltas": len(store.delta_index),
            "selection": "2000x183",
            "repeats": 5,
        },
        metrics=speedups,
    )
    store.close()
