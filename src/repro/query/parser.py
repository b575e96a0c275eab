"""A tiny textual query language for ad hoc use (CLI and REPLs).

Grammar (case-insensitive keywords)::

    query     :=  function '(' ')' [ 'rows' range ] [ 'cols' range ]
               |  'cell' '(' int ',' int ')'
    function  :=  'sum' | 'avg' | 'count' | 'min' | 'max' | 'stddev'
    range     :=  int ':' int  |  int  |  int (',' int)*

Examples::

    avg() rows 0:100 cols 7:14
    sum() rows 3,17,42
    stddev()
    cell(1234, 200)

This is deliberately not SQL — it covers exactly the two query classes
the paper studies, with no pretence of more.
"""

from __future__ import annotations

import re

from repro.exceptions import QueryError
from repro.query.engine import AGGREGATES, AggregateQuery, CellQuery
from repro.query.selection import Selection

_CELL_RE = re.compile(
    r"^\s*cell\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*$", re.IGNORECASE
)
_AGG_RE = re.compile(
    r"^\s*(?P<fn>[a-z]+)\s*\(\s*\)\s*"
    r"(?:rows\s+(?P<rows>[0-9:,\s]+?)\s*)?"
    r"(?:cols\s+(?P<cols>[0-9:,\s]+?)\s*)?$",
    re.IGNORECASE,
)


#: What a range or a list may hold: digits, ':', ',' and whitespace.
_INDICES_RE = re.compile(r"[0-9:,\s]+")


def parse_function(text: str) -> str:
    """An aggregate function's name, case and surrounding space aside;
    raises :class:`QueryError` for a name outside :data:`AGGREGATES`."""
    function = text.strip().lower()
    if function not in AGGREGATES:
        raise QueryError(
            f"unknown aggregate {function!r}; expected one of {AGGREGATES}"
        )
    return function


def parse_indices(text: str, what: str):
    """Parse '0:100', '7', or '3,17,42' into a Selection-compatible value.

    ``what`` names the clause or parameter (``rows``/``cols``) in the
    :class:`QueryError` a malformed one raises.
    """
    if not _INDICES_RE.fullmatch(text):
        raise QueryError(
            f"bad {what} {text!r}; expected start:stop, an index or a comma list"
        )
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 2:
            raise QueryError(f"bad {what} range {text!r}; expected start:stop")
        try:
            start, stop = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise QueryError(f"bad {what} range {text!r}") from exc
        if stop <= start:
            raise QueryError(f"empty {what} range {text!r}")
        return range(start, stop)
    try:
        return [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError as exc:
        raise QueryError(f"bad {what} list {text!r}") from exc


def parse_query(text: str) -> CellQuery | AggregateQuery:
    """Parse one query string; raises :class:`QueryError` on bad syntax."""
    cell_match = _CELL_RE.match(text)
    if cell_match:
        return CellQuery(int(cell_match.group(1)), int(cell_match.group(2)))

    agg_match = _AGG_RE.match(text)
    if not agg_match:
        raise QueryError(
            f"cannot parse query {text!r}; expected e.g. "
            "'avg() rows 0:100 cols 7:14' or 'cell(3, 5)'"
        )
    function = parse_function(agg_match.group("fn"))
    rows_text = agg_match.group("rows")
    cols_text = agg_match.group("cols")
    selection = Selection(
        rows=parse_indices(rows_text, "rows") if rows_text else None,
        cols=parse_indices(cols_text, "cols") if cols_text else None,
    )
    return AggregateQuery(function, selection)


def format_query(query: CellQuery | AggregateQuery) -> str:
    """The textual form of a query; inverse of :func:`parse_query`.

    ``parse_query(format_query(q))`` resolves to the same cells as
    ``q`` (asserted by a property test).
    """
    if isinstance(query, CellQuery):
        return f"cell({query.row}, {query.col})"
    parts = [f"{query.function}()"]
    selection = query.selection
    for label, value in (("rows", selection.rows), ("cols", selection.cols)):
        if value is None:
            continue
        if isinstance(value, range):
            parts.append(f"{label} {value.start}:{value.stop}")
        else:
            indices = ",".join(str(int(v)) for v in value)
            parts.append(f"{label} {indices}")
    return " ".join(parts)
