"""Calendar-aware column selections for daily time sequences.

The paper's queries are phrased in calendar terms — 'the week ending
July 12', 'weekday sales to business customers'.  When columns are
consecutive days, these helpers build the corresponding
:class:`~repro.query.selection.Selection` column sets:

- :func:`weekday_columns` / :func:`weekend_columns` — day-of-week
  filters (column 0's weekday is configurable);
- :func:`week_columns` — the paper's 'week ending day d';
- :func:`month_columns` — calendar months for a given start date
  (handles leap years, the paper's M=366 case).
"""

from __future__ import annotations

import datetime

from repro.exceptions import QueryError

#: Day-of-week codes, Monday=0 (Python's convention).
MONDAY, SATURDAY, SUNDAY = 0, 5, 6


def weekday_columns(
    num_cols: int, first_day_of_week: int = MONDAY
) -> list[int]:
    """Columns falling on Monday-Friday.

    Args:
        num_cols: number of day columns.
        first_day_of_week: weekday (0=Monday) of column 0.
    """
    if not 0 <= first_day_of_week <= 6:
        raise QueryError(f"first_day_of_week must be 0..6, got {first_day_of_week}")
    return [
        col for col in range(num_cols) if (first_day_of_week + col) % 7 < 5
    ]


def weekend_columns(num_cols: int, first_day_of_week: int = MONDAY) -> list[int]:
    """Columns falling on Saturday/Sunday."""
    if not 0 <= first_day_of_week <= 6:
        raise QueryError(f"first_day_of_week must be 0..6, got {first_day_of_week}")
    return [
        col for col in range(num_cols) if (first_day_of_week + col) % 7 >= 5
    ]


def week_columns(ending_col: int, num_cols: int) -> list[int]:
    """The seven columns of 'the week ending <day>' (paper Section 1).

    Clipped at the start of the matrix for weeks that begin before
    column 0.
    """
    if not 0 <= ending_col < num_cols:
        raise QueryError(
            f"ending_col {ending_col} out of range [0, {num_cols})"
        )
    return list(range(max(0, ending_col - 6), ending_col + 1))


def month_columns(
    year: int, month: int, start_date: datetime.date, num_cols: int
) -> list[int]:
    """Columns of one calendar month, given column 0's date.

    Raises :class:`QueryError` when the month lies entirely outside the
    matrix.
    """
    if not 1 <= month <= 12:
        raise QueryError(f"month must be 1..12, got {month}")
    month_start = datetime.date(year, month, 1)
    next_month = (
        datetime.date(year + 1, 1, 1)
        if month == 12
        else datetime.date(year, month + 1, 1)
    )
    first = (month_start - start_date).days
    last = (next_month - start_date).days  # exclusive
    lo, hi = max(first, 0), min(last, num_cols)
    if lo >= hi:
        raise QueryError(
            f"{year}-{month:02d} lies outside the stored range "
            f"({start_date} + {num_cols} days)"
        )
    return list(range(lo, hi))
