"""Lab trial: a delta fold that reads only its time span (Zoom-SVD's blocks).

``DeltaIndex`` keeps each row's deltas sorted by column; an ad hoc
aggregate's fold gathers *every* delta of each selected row and masks
them to the column span.  Zoom-SVD (PAPERS.md) cuts time into blocks;
here each row's run is cut at every ``B``-th column: ``starts[r, b]`` is
the first delta of row r in columns ``>= b·B``, derived in this script
from the CSR table with one ``bincount`` and one ``cumsum``.  The
blocked fold gathers each selected row's ``[starts[r, lo // B],
starts[r, hi // B + 1])`` and masks as the product does, so it reads
about a quarter of the keys for the same answer.

On the harness model (phone 4000 x 366, s = 10%) and every op of
``agg_ops(1997, (4000, 366), 2000)`` this bench asserts that the blocked
fold returns what ``DeltaIndex.select``/``select_sum`` return, to the
bit, at B = 32 and 61.  It then times the fold alone (scattered and
contiguous rows), a third variant that finds each row's exact window by
``searchsorted`` over packed keys, and the whole op mix through
``QueryEngine.aggregate`` with the blocked fold swapped in.  Nothing
here is product code; the result is recorded in EXPERIMENTS.md
("A delta fold by time blocks").
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import emit, format_table
from benchmarks.harness import model, spec
from benchmarks.harness.ops import agg_ops
from repro.core import CompressedMatrix
from repro.core.delta_index import DeltaIndex, _slice_positions, _with_run
from repro.query import QueryEngine

BLOCKS = (32, 61)
OPS = 2000
REPEATS = 5


def _positions(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Every position of the runs ``[starts[i], ends[i])``, in order."""
    return _slice_positions(starts, ends - starts)


class BlockedFold:
    """``select``/``select_sum`` of one index over row runs cut at every
    ``block``-th column, for column spans.  A block of consecutive rows
    keeps the product's fold: its deltas are one slice, gathered by no
    index, which a blocked gather cannot beat."""

    def __init__(self, index: DeltaIndex, block: int) -> None:
        self.index, self.block = index, block
        row_start = index.row_start
        rows = row_start.size - 1
        blocks = -(-index.num_cols // block)
        per_block = np.bincount(
            index.rows * blocks + index.cols // block, minlength=rows * blocks
        ).reshape(rows, blocks)
        self.starts = np.empty((rows, blocks + 1), dtype=np.int64)
        self.starts[:, 0] = row_start[:-1]
        np.cumsum(per_block, axis=1, out=self.starts[:, 1:])
        self.starts[:, 1:] += row_start[:-1, None]

    def _window(self, rows: np.ndarray, lo: int, hi: int):
        where = _positions(
            self.starts[rows, lo // self.block], self.starts[rows, hi // self.block + 1]
        )
        cols = self.index.cols.take(where)
        inside = (cols >= lo) & (cols <= hi)
        return where, cols, inside

    def select_sum(self, row_sel, col_sel) -> float:
        rows, run = _with_run(row_sel)
        if run:
            return DeltaIndex.select_sum(self.index, row_sel, col_sel)
        cols = np.asarray(col_sel)
        where, _cols, inside = self._window(rows, int(cols[0]), int(cols[-1]))
        return float(np.add.reduce(self.index.values.take(where[inside])))

    def select(self, row_sel, col_sel):
        rows, run = _with_run(row_sel)
        if run:
            return DeltaIndex.select(self.index, row_sel, col_sel)
        cols = np.asarray(col_sel)
        lo, hi = int(cols[0]), int(cols[-1])
        where, found, inside = self._window(rows, lo, hi)
        owner = np.repeat(
            np.arange(rows.size),
            self.starts[rows, hi // self.block + 1] - self.starts[rows, lo // self.block],
        )
        row_pos, col_pos = owner[inside], found[inside].astype(np.int64) - lo
        return row_pos, col_pos, rows[row_pos], cols[col_pos], self.index.values.take(where[inside])


def _exact_windows(index: DeltaIndex):
    """``select_sum`` whose rows' windows are found exactly, by two
    ``searchsorted`` over the packed keys ``row·M + col``."""
    keys = index.rows * index.num_cols + index.cols

    def select_sum(rows, cols) -> float:
        rows, cols = np.asarray(rows), np.asarray(cols)
        base = rows * index.num_cols
        where = _positions(
            keys.searchsorted(base + int(cols[0])), keys.searchsorted(base + int(cols[-1]) + 1)
        )
        return float(np.add.reduce(index.values.take(where)))

    return select_sum


def _best_us(calls, args_list) -> list[float]:
    """Each call's best of ``REPEATS`` passes over ``args_list``, in us
    per call, the calls' passes alternating."""
    best = [np.inf] * len(calls)
    for _ in range(REPEATS):
        for i, call in enumerate(calls):
            start = time.perf_counter()
            for args in args_list:
                call(*args)
            best[i] = min(best[i], time.perf_counter() - start)
    return [seconds / max(len(args_list), 1) * 1e6 for seconds in best]


def test_delta_blocks(tmp_path):
    shape = (spec.MODEL_ROWS, spec.MODEL_COLS)
    directory = tmp_path / "model"
    model.build(model.raw_matrix(model.FULL), directory)
    ops = agg_ops(1997, shape, OPS)
    spans = [op.indices() for op in ops]
    folded = [i for i, op in enumerate(ops) if op.function in ("sum", "avg")]
    scattered = [spans[i] for i in folded if not isinstance(ops[i].rows, range)]
    contiguous = [spans[i] for i in folded if isinstance(ops[i].rows, range)]

    with CompressedMatrix.open(directory) as store:
        index = store.delta_index
        blocked = {block: BlockedFold(index, block) for block in BLOCKS}
        exact = _exact_windows(index)
        # Bit-identity on every op, before any timing.
        for rows, cols in spans:
            want_sum = index.select_sum(rows, cols)
            want = index.select(rows, cols)
            assert exact(rows, cols) == want_sum
            for fold in blocked.values():
                assert fold.select_sum(rows, cols) == want_sum
                for got, expected in zip(fold.select(rows, cols), want):
                    np.testing.assert_array_equal(got, expected)

        table = []
        variants = [index.select_sum, *(blocked[b].select_sum for b in BLOCKS), exact]
        for name, args in (
            ("scattered", scattered),
            ("contiguous", contiguous),
            ("all", scattered + contiguous),
        ):
            today, *others = _best_us(variants, args)
            row = [name, f"{len(args)}", f"{today:.1f}"]
            row += [f"{ours:.1f} ({today / ours:.2f}x)" for ours in others]
            table.append(row)

        # The whole op mix in process, and its count ops (which fold
        # nothing), with the B = 32 fold swapped into the store's index.
        engine = QueryEngine(store)
        queries = [op.query() for op in ops]
        counts = [q for q in queries if q.function == "count"]

        def swapped(query):
            index.select_sum, index.select = blocked[32].select_sum, blocked[32].select
            try:
                return engine.aggregate(query)
            finally:
                del index.select_sum, index.select

        mix = []
        for label, batch in (("all ops", queries), ("count ops", counts)):
            today, ours = _best_us([engine.aggregate, swapped], [(q,) for q in batch])
            mix.append(f"{label}: {today:.1f} -> {ours:.1f} us/op ({today / ours:.2f}x)")

    lines = format_table(
        f"Delta fold by time blocks, sum/avg folds of agg_ops(1997, {shape}, {OPS}), "
        f"us per fold (best of {REPEATS})",
        ["rows", "ops", "today", "B = 32", "B = 61", "exact window"],
        table,
    )
    lines.append("QueryEngine.aggregate with the B = 32 fold: " + "; ".join(mix))
    emit("delta_blocks", lines)
