"""Tests for span tracing."""

from __future__ import annotations

import os
import re

import pytest

from repro.obs import NULL_SPAN, current_span, registry, span
from repro.obs.tracing import (
    Span,
    current_trace_id,
    new_trace_id,
    trace,
)


class TestDisabled:
    def test_span_returns_shared_null_singleton(self):
        assert registry.enabled is False
        assert span("anything") is NULL_SPAN
        assert span("other", rows=3) is NULL_SPAN

    def test_null_span_is_inert(self):
        with span("x") as active:
            assert active is NULL_SPAN
        assert NULL_SPAN.duration_ns == 0
        assert NULL_SPAN.find("x") is None
        assert NULL_SPAN.total_ns("x") == 0
        assert NULL_SPAN.set(rows=1) is NULL_SPAN

    def test_no_histograms_recorded_when_disabled(self):
        registry.reset()
        with span("quiet"):
            pass
        assert registry.snapshot()["histograms"] == {}


class TestEnabled:
    def test_real_span_times_and_records(self, enabled_registry):
        with span("work", rows=5) as active:
            assert isinstance(active, Span)
            assert current_span() is active
        assert active.duration_ns > 0
        assert active.attrs == {"rows": 5}
        assert enabled_registry.histogram("span.work").count == 1
        assert current_span() is None

    def test_nesting_attaches_children(self, enabled_registry):
        with span("outer") as outer:
            with span("inner") as inner:
                with span("leaf"):
                    pass
        assert outer.children == [inner]
        assert outer.find("leaf") is inner.children[0]
        assert outer.find("missing") is None

    def test_total_ns_sums_repeated_descendants(self, enabled_registry):
        with span("root") as root:
            for _ in range(3):
                with span("step"):
                    pass
        total = root.total_ns("step")
        assert total > 0
        assert total == sum(child.duration_ns for child in root.children)
        assert total <= root.duration_ns

    def test_set_updates_attributes(self, enabled_registry):
        with span("s") as active:
            active.set(path="factor", rows=7)
        assert active.attrs == {"path": "factor", "rows": 7}

    def test_to_dict_round_trips_tree(self, enabled_registry):
        with span("root", depth=0) as root:
            with span("child"):
                pass
        tree = root.to_dict()
        assert tree["name"] == "root"
        assert tree["attrs"] == {"depth": 0}
        assert [child["name"] for child in tree["children"]] == ["child"]


class TestTracePropagation:
    def test_new_trace_ids_are_distinct_hex(self):
        first, second = new_trace_id(), new_trace_id()
        assert first != second
        assert len(first) == 16
        int(first, 16)  # must parse as hex

    def test_100k_trace_ids_are_distinct_and_keep_the_format(self):
        ids = [new_trace_id() for _ in range(100_000)]
        assert len(set(ids)) == len(ids)
        assert all(re.fullmatch(r"[0-9a-f]{16}", trace_id) for trace_id in ids)

    def test_trace_context_binds_and_restores(self):
        assert current_trace_id() is None
        with trace("abc123") as bound:
            assert bound == "abc123"
            assert current_trace_id() == "abc123"
        assert current_trace_id() is None

    def test_trace_without_id_mints_one(self):
        with trace() as bound:
            assert current_trace_id() == bound
            assert len(bound) == 16

    def test_root_span_adopts_ambient_trace(self, enabled_registry):
        with trace("feedbeef00000000"):
            with span("root") as root:
                with span("child") as child:
                    pass
        assert root.trace_id == "feedbeef00000000"
        assert child.trace_id == "feedbeef00000000"

    def test_root_span_mints_trace_when_no_ambient(self, enabled_registry):
        with span("lonely") as lonely:
            pass
        assert lonely.trace_id is not None
        assert len(lonely.trace_id) == 16

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_does_not_replay_the_parents_trace_ids(self):
        """Ids come from one seeded generator per process: a forked
        child inherits its parent's generator state and must re-seed,
        or parent and child would draw the same ids next."""
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            os.close(read_end)
            os.write(write_end, " ".join(new_trace_id() for _ in range(500)).encode())
            os._exit(0)
        os.close(write_end)
        mine = [new_trace_id() for _ in range(500)]
        with os.fdopen(read_end) as pipe:
            theirs = pipe.read().split()
        os.waitpid(pid, 0)
        assert len(theirs) == 500
        assert len(set(mine + theirs)) == 1000
