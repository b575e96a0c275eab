"""Ablation: the Bloom filter in front of the delta hash table.

Section 4.2: 'Optionally, we could use a main-memory Bloom filter,
which would predict the majority of non-outliers, and thus save several
probes into the hash table.'  This bench measures exactly that saving —
hash-table probes per cell query with and without the filter — and the
filter's memory cost.
"""

from __future__ import annotations

from benchmarks.conftest import emit, format_table
from repro.core import SVDDCompressor
from repro.lab.workload import random_cell_queries
from repro.lab.bloom import BloomFilter
from repro.lab.hashtable import OpenAddressingTable, cell_key


def test_ablation_bloom(phone2000, benchmark):
    queries = random_cell_queries(phone2000.shape, count=5000, seed=12)

    # The runtime answers deltas from the row-indexed DeltaIndex; the
    # paper's Section 4.2 structures are rebuilt here from the fitted
    # model's cells, keyed row*M + col, so the ablation measures them
    # directly.
    model = SVDDCompressor(budget_fraction=0.10).fit(phone2000)
    num_cols = model.num_cols
    index = model.deltas
    keys = (index.rows * num_cols + index.cols).tolist()
    table = OpenAddressingTable(initial_capacity=max(16, 2 * len(keys)))
    for key, delta in zip(keys, index.values.tolist()):
        table.put(key, delta)
    bloom = BloomFilter(len(keys), 0.01)
    bloom.update(keys)

    def delta_for(row: int, col: int, use_filter: bool) -> tuple[float, int]:
        """``(delta, table probes)`` for one cell, Section 4.2 style."""
        key = cell_key(row, col, num_cols)
        if use_filter and key not in bloom:
            return 0.0, 0
        return table.get(key, 0.0), 1

    def run(use_filter: bool) -> tuple[int, int]:
        table.reset_probe_count()
        probes = 0
        for query in queries:
            delta, probed = delta_for(query.row, query.col, use_filter)
            assert delta == index.get(query.row, query.col)
            probes += probed
        return probes, table.probe_count

    probes_with, slots_with = run(use_filter=True)
    probes_without, slots_without = run(use_filter=False)

    rows = [
        ["with bloom", f"{probes_with}", f"{slots_with}",
         f"{bloom.size_bytes()}"],
        ["without", f"{probes_without}", f"{slots_without}", "0"],
    ]
    lines = format_table(
        f"Ablation: Bloom filter probe savings ({len(queries)} cell queries, "
        f"{model.num_deltas} deltas)",
        ["variant", "table probes", "slot inspections", "filter bytes"],
        rows,
    )
    saving = 1 - probes_with / max(probes_without, 1)
    lines.append(f"probe saving: {saving:.1%}")
    fpr = bloom.estimated_false_positive_rate()
    lines.append(f"estimated false-positive rate at load: {fpr:.3%}")
    emit("ablation_bloom", lines)

    # Every query probes the table without the filter; with it, only
    # true outliers and rare false positives do.
    assert probes_without == len(queries)
    assert probes_with < probes_without * 0.2

    benchmark(lambda: delta_for(500, 100, True))
