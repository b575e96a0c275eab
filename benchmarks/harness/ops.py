"""Seeded operation streams: the only thing ``--seed`` changes.

The model's data is fixed; a seed picks which cells are probed, which
rectangles are aggregated and what the appended days look like.  The same seed gives byte-identical streams
(:func:`stream_bytes` is what the smoke test compares).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.query.engine import AggregateQuery
from repro.query.selection import Selection

from . import spec

#: 100 draws: sum 30 / avg 30 / stddev 15 / count 5 / min 10 / max 10.
_FUNCTION_MIX = (
    ["sum"] * 30 + ["avg"] * 30 + ["stddev"] * 15
    + ["count"] * 5 + ["min"] * 10 + ["max"] * 10
)
_MIN_ROWS = 20
_COL_WIDTHS = (7, 120)

# One independent generator per purpose, so adding draws to one stream
# never shifts another.
_CELLS, _AGGS, _HTTP, _APPEND = range(1, 5)


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def row_popularity(raw: np.ndarray) -> np.ndarray:
    """Rows from most to least popular: by total volume, largest first.

    The biggest accounts are the ones looked up most.  Deliberately not
    seeded: under Zipf-1.3 the top row takes 27% of the probes, so a
    seeded permutation makes throughput and accuracy a property of which
    customer the seed happened to rank first (an idle one is answered
    without a page read) rather than of the code.
    """
    return np.argsort(-raw.sum(axis=1), kind="stable")


def _zipf_rows(order: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, order.size + 1) ** spec.ZIPF_EXPONENT
    return order[rng.choice(order.size, size=count, p=weights / weights.sum())]


def cell_ops(raw: np.ndarray, seed: int, count: int, index: int = 0):
    """``(rows, cols)``: rows Zipf over :func:`row_popularity`, columns uniform."""
    rng = _rng(seed, _CELLS, index)
    rows = _zipf_rows(row_popularity(raw), rng, count)
    cols = rng.integers(0, raw.shape[1], size=count)
    return rows.astype(np.int64), cols.astype(np.int64)


@dataclass(frozen=True)
class AggOp:
    """One ad hoc aggregate: a function over rows x a column range."""

    function: str
    #: A ``range`` (contiguous) or a sorted tuple of row indices.
    rows: object
    cols: range

    def query(self) -> AggregateQuery:
        rows = self.rows if isinstance(self.rows, range) else list(self.rows)
        return AggregateQuery(self.function, Selection(rows=rows, cols=self.cols))

    def indices(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.rows, dtype=np.int64), np.asarray(self.cols, dtype=np.int64)

    def text(self) -> str:
        if isinstance(self.rows, range):
            rows = f"{self.rows.start}:{self.rows.stop}"
        else:
            rows = ",".join(map(str, self.rows))
        return f"{self.function}() rows {rows} cols {self.cols.start}:{self.cols.stop}"

    def url(self) -> str:
        # Only contiguous selections travel over HTTP (a scattered
        # 1000-row list would not fit a request line).
        return (
            f"/aggregate?fn={self.function}&rows={self.rows.start}:{self.rows.stop}"
            f"&cols={self.cols.start}:{self.cols.stop}"
        )


def _functions(rng: np.random.Generator, count: int) -> list[str]:
    """``count`` draws that keep the mix's shares exact per 100 ops, so
    the share of (slow, inexact) ``min`` ops is not left to the seed."""
    return [
        _FUNCTION_MIX[slot]
        for _ in range(-(-count // len(_FUNCTION_MIX)))
        for slot in rng.permutation(len(_FUNCTION_MIX))
    ][:count]


def _agg_op(
    rng: np.random.Generator,
    shape: tuple[int, int],
    function: str,
    max_rows: int,
    contiguous: bool,
    fresh_cols: int = 0,
) -> AggOp:
    num_rows, num_cols = shape
    size = int(np.exp(rng.uniform(np.log(_MIN_ROWS), np.log(max_rows))))
    if contiguous:
        start = int(rng.integers(0, num_rows - size))
        rows: object = range(start, start + size)
    else:
        rows = tuple(np.sort(rng.choice(num_rows, size=size, replace=False)).tolist())
    width = int(rng.integers(_COL_WIDTHS[0], _COL_WIDTHS[1] + 1))
    if fresh_cols:
        # Ends on the newest day, so it covers every just-appended one.
        cols = range(num_cols - max(width, fresh_cols), num_cols)
    else:
        start = int(rng.integers(0, num_cols - width))
        cols = range(start, start + width)
    return AggOp(function, rows, cols)


def agg_ops(
    seed: int, shape: tuple[int, int], count: int, index: int = 0, fresh_cols: int = 0
) -> list[AggOp]:
    """Ad hoc aggregates: row sets log-uniform in [20, rows/4], alternately
    scattered and contiguous; column range 7-120 wide; never a full axis.

    With ``fresh_cols`` (append_visible) every even op's column range
    ends on the newest day.
    """
    rng = _rng(seed, _AGGS, index)
    return [
        _agg_op(
            rng,
            shape,
            function,
            max_rows=shape[0] // 4,
            contiguous=bool(i % 2),
            fresh_cols=fresh_cols if i % 2 == 0 else 0,
        )
        for i, function in enumerate(_functions(rng, count))
    ]


@dataclass(frozen=True)
class Request:
    """One HTTP GET of the ``http_mix`` traffic."""

    #: ``cell`` | ``rollup`` | ``groupby`` | ``adhoc``.
    kind: str
    path: str
    #: ``(row, col)`` for cells, an :class:`AggOp` for both aggregate
    #: kinds (a rollup's ``rows`` is the full range), the level for
    #: group-bys.
    op: object


def http_requests(raw: np.ndarray, seed: int, index: int, count: int) -> list[Request]:
    """40% /cell, 25% rollup sums over all rows, 15% /groupby, 20% ad hoc."""
    num_rows, num_cols = raw.shape
    rng = _rng(seed, _HTTP, index)
    order = row_popularity(raw)
    kinds = rng.choice(4, size=count, p=[0.40, 0.25, 0.15, 0.20])
    functions = iter(_functions(rng, count))
    cell_rows = _zipf_rows(order, rng, count)
    cell_cols = rng.integers(0, num_cols, size=count)
    requests = []
    for i, kind in enumerate(kinds):
        if kind == 0:
            row, col = int(cell_rows[i]), int(cell_cols[i])
            requests.append(Request("cell", f"/cell?row={row}&col={col}", (row, col)))
        elif kind == 1:
            width = int(rng.integers(_COL_WIDTHS[0], _COL_WIDTHS[1] + 1))
            start = int(rng.integers(0, num_cols - width))
            op = AggOp("sum", range(num_rows), range(start, start + width))
            path = f"/aggregate?fn=sum&cols={start}:{start + width}"
            requests.append(Request("rollup", path, op))
        elif kind == 2:
            by = ("month", "week")[int(rng.integers(0, 2))]
            requests.append(Request("groupby", f"/groupby?by={by}&fn=sum", by))
        else:
            op = _agg_op(
                rng, raw.shape, next(functions), max_rows=num_rows // 10, contiguous=True
            )
            requests.append(Request("adhoc", op.url(), op))
    return requests


def client_requests(raw: np.ndarray, seed: int, count: int, index: int = 0) -> list:
    """One pass of ``count`` requests, split between the client threads."""
    share = count // spec.CLIENT_THREADS
    return [
        http_requests(raw, seed, index * spec.CLIENT_THREADS + client, share)
        for client in range(spec.CLIENT_THREADS)
    ]


def next_days(raw: np.ndarray, seed: int, batch: int) -> np.ndarray:
    """``APPEND_DAYS`` new columns continuing ``raw``.

    Each new day repeats the same weekday 52 weeks earlier (or as far
    back as a short matrix allows) under fresh lognormal noise — the
    generator's own day-to-day model — so appended data keeps the
    weekly pattern the basis was fitted on.
    """
    rng = _rng(seed, _APPEND, batch)
    cols = raw.shape[1]
    lag = min(364, 7 * (cols // 7))
    source = raw[:, cols - lag : cols - lag + spec.APPEND_DAYS]
    return source * rng.lognormal(0.0, 0.25, size=source.shape)


def stream_bytes(workload: str, raw: np.ndarray, seed: int) -> bytes:
    """The workload's first pass of operations, serialized."""
    count = spec.workload(workload).pass_ops
    if workload == "point_zipf":
        rows, cols = cell_ops(raw, seed, count)
        return rows.tobytes() + cols.tobytes()
    if workload == "adhoc_agg":
        return "\n".join(op.text() for op in agg_ops(seed, raw.shape, count)).encode()
    if workload == "http_mix":
        return "\n".join(
            request.path
            for requests in client_requests(raw, seed, count)
            for request in requests
        ).encode()
    if workload == "append_visible":
        shape = (raw.shape[0], raw.shape[1] + spec.APPEND_DAYS)
        reads = agg_ops(seed, shape, count, fresh_cols=spec.APPEND_DAYS)
        return next_days(raw, seed, 0).tobytes() + "\n".join(
            op.text() for op in reads
        ).encode()
    raise KeyError(workload)
