"""``QueryResult``'s contract: what callers may rely on.

It is an immutable value with six named fields: three that say what
was answered and count it (``value``, ``cells_touched``,
``rows_fetched``), and three that describe how it was answered
(``profile``, ``route``, ``error_bound``).  Equality and hashing read the
first three only.  Results cross the process executor's pipe, so a
pickle round-trip keeps every field.  Every check here held for the
frozen dataclass the class used to be.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.obs.profile import QueryProfile
from repro.query.engine import QueryResult

FIELDS = ("value", "cells_touched", "rows_fetched", "profile", "route", "error_bound")


def _profiled() -> QueryResult:
    profile = QueryProfile("factor", "sum", 12, 3, 5, total_ns=1_000, backend="m")
    return QueryResult(2.5, 12, 3, profile, "factor", 0.0)


class TestFields:
    def test_names_and_defaults(self):
        result = QueryResult(1.0, 1, 1)
        assert (result.profile, result.route, result.error_bound) == (None, "", 0.0)
        assert QueryResult(value=1.0, cells_touched=1, rows_fetched=1) == result
        named = QueryResult(
            value=3.0, cells_touched=4, rows_fetched=2, profile=None, route="svd", error_bound=None
        )
        assert [getattr(named, name) for name in FIELDS] == [3.0, 4, 2, None, "svd", None]


class TestFrozen:
    @pytest.mark.parametrize("name", FIELDS + ("other",))
    def test_assignment_raises(self, name):
        result = _profiled()
        with pytest.raises(FrozenInstanceError):
            setattr(result, name, 0)
        assert result.value == 2.5 and result.route == "factor"

    @pytest.mark.parametrize("name", FIELDS)
    def test_deletion_raises(self, name):
        result = _profiled()
        before = getattr(result, name)
        with pytest.raises(FrozenInstanceError):
            delattr(result, name)
        assert getattr(result, name) is before


class TestEquality:
    def test_only_the_answer_and_its_counts_compare(self):
        plain = QueryResult(2.5, 12, 3)
        described = _profiled()
        other = QueryResult(2.5, 12, 3, None, "svd", 0.01)
        assert plain == described == other
        assert hash(plain) == hash(described) == hash(other)
        assert len({plain, described, other}) == 1

    @pytest.mark.parametrize("changed", [(2.0, 12, 3), (2.5, 11, 3), (2.5, 12, 4)])
    def test_a_different_answer_or_count_is_unequal(self, changed):
        assert QueryResult(*changed) != QueryResult(2.5, 12, 3)

    def test_not_equal_to_a_tuple_of_its_fields(self):
        assert QueryResult(2.5, 12, 3) != (2.5, 12, 3)


class TestCopies:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_keeps_all_six_fields(self, protocol):
        result = QueryResult(2.5, 12, 3, None, "svd", 0.125)
        back = pickle.loads(pickle.dumps(result, protocol))
        assert type(back) is QueryResult
        assert [getattr(back, name) for name in FIELDS] == [2.5, 12, 3, None, "svd", 0.125]

    def test_a_profile_survives_the_pickle(self):
        back = pickle.loads(pickle.dumps(_profiled()))
        assert back.profile.to_dict() == _profiled().profile.to_dict()
        assert (back.route, back.error_bound) == ("factor", 0.0)

    def test_copies_keep_all_six_fields(self):
        result = _profiled()
        for twin in (copy.copy(result), copy.deepcopy(result)):
            assert twin == result and twin.profile.to_dict() == result.profile.to_dict()
            assert (twin.route, twin.error_bound) == ("factor", 0.0)


class TestRepr:
    def test_repr_names_every_field(self):
        text = repr(QueryResult(2.5, 12, 3, None, "svd", None))
        assert text.startswith("QueryResult(")
        for name in FIELDS:
            assert f"{name}=" in text
        assert "value=2.5" in text and "route='svd'" in text and "error_bound=None" in text
