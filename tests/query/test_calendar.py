"""Tests for calendar-aware column selections."""

from __future__ import annotations

import datetime

import numpy as np
import pytest

from repro.exceptions import QueryError
from repro.query import AggregateQuery, QueryEngine, Selection
from repro.lab.calendar import (
    MONDAY,
    SATURDAY,
    month_columns,
    week_columns,
    weekday_columns,
    weekend_columns,
)


class TestDayOfWeek:
    def test_partition(self):
        weekdays = weekday_columns(14)
        weekends = weekend_columns(14)
        assert sorted(weekdays + weekends) == list(range(14))

    def test_monday_start(self):
        assert weekday_columns(7) == [0, 1, 2, 3, 4]
        assert weekend_columns(7) == [5, 6]

    def test_saturday_start(self):
        assert weekend_columns(7, first_day_of_week=SATURDAY) == [0, 1]
        assert weekday_columns(7, first_day_of_week=SATURDAY) == [2, 3, 4, 5, 6]

    def test_counts_over_a_leap_year(self):
        weekdays = weekday_columns(366)
        assert 260 <= len(weekdays) <= 262

    def test_invalid_start(self):
        with pytest.raises(QueryError):
            weekday_columns(7, first_day_of_week=7)
        with pytest.raises(QueryError):
            weekend_columns(7, first_day_of_week=-1)

    def test_toy_matrix_day_semantics(self):
        """The paper's Table 1 columns are We,Th,Fr,Sa,Su: with a
        Wednesday start, the day-of-week filters split them exactly."""
        from repro.data import toy_matrix

        wednesday = 2  # Monday=0
        assert weekday_columns(5, first_day_of_week=wednesday) == [0, 1, 2]
        assert weekend_columns(5, first_day_of_week=wednesday) == [3, 4]

        data = toy_matrix()
        engine = QueryEngine(data)
        # Business customers (rows 0-3) called only on weekdays.
        business_weekend = engine.aggregate(
            AggregateQuery(
                "sum",
                Selection(rows=range(4), cols=weekend_columns(5, wednesday)),
            )
        ).value
        assert business_weekend == 0.0


class TestWeeks:
    def test_week_ending(self):
        assert week_columns(12, 366) == [6, 7, 8, 9, 10, 11, 12]

    def test_clipped_at_start(self):
        assert week_columns(3, 366) == [0, 1, 2, 3]

    def test_out_of_range(self):
        with pytest.raises(QueryError):
            week_columns(366, 366)

    def test_paper_query_shape(self):
        """'total sales ... for the week ending July 12, 1996' — with
        column 0 = 1996-01-01, July 12 is column 193."""
        start = datetime.date(1996, 1, 1)
        july12 = (datetime.date(1996, 7, 12) - start).days
        cols = week_columns(july12, 366)
        assert len(cols) == 7
        assert cols[-1] == july12


class TestMonths:
    START = datetime.date(1996, 1, 1)

    def test_january(self):
        cols = month_columns(1996, 1, self.START, 366)
        assert cols == list(range(31))

    def test_leap_february(self):
        cols = month_columns(1996, 2, self.START, 366)
        assert len(cols) == 29  # 1996 is a leap year
        assert cols[0] == 31

    def test_december_ends_the_year(self):
        cols = month_columns(1996, 12, self.START, 366)
        assert cols[-1] == 365

    def test_outside_range_rejected(self):
        with pytest.raises(QueryError):
            month_columns(1997, 3, self.START, 366)
        with pytest.raises(QueryError):
            month_columns(1996, 13, self.START, 366)

    def test_partial_month_clipped(self):
        cols = month_columns(1996, 1, self.START, 20)  # matrix ends mid-Jan
        assert cols == list(range(20))

    def test_usable_in_queries(self):
        data = np.arange(366, dtype=float)[None, :].repeat(3, axis=0)
        engine = QueryEngine(data)
        january = Selection(cols=month_columns(1996, 1, self.START, 366))
        value = engine.aggregate(AggregateQuery("avg", january)).value
        assert value == pytest.approx(np.mean(np.arange(31)))


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(num_cols=st.integers(1, 500), start=st.integers(0, 6))
def test_property_day_filters_partition_the_columns(num_cols, start):
    """For any length and week alignment, weekday + weekend columns
    partition [0, num_cols) with a 5:2 day-type ratio."""
    weekdays = weekday_columns(num_cols, first_day_of_week=start)
    weekends = weekend_columns(num_cols, first_day_of_week=start)
    assert sorted(weekdays + weekends) == list(range(num_cols))
    if num_cols >= 7:
        full_weeks = num_cols // 7
        assert len(weekdays) >= 5 * full_weeks
        assert len(weekends) >= 2 * full_weeks
