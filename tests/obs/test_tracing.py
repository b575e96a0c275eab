"""Tests for span tracing."""

from __future__ import annotations

import re

from repro.obs import NULL_SPAN, current_span, registry, span
from repro.obs.tracing import (
    Span,
    current_trace_id,
    graft,
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

    def test_from_dict_preserves_tree_and_durations(self, enabled_registry):
        with trace("cafe000000000000"), span("worker") as worker:
            with span("step", rows=4):
                pass
        rebuilt = Span.from_dict(worker.to_dict())
        assert rebuilt.name == "worker"
        assert rebuilt.trace_id == "cafe000000000000"
        assert rebuilt.duration_ns == worker.duration_ns
        (step,) = rebuilt.children
        assert step.name == "step"
        assert step.attrs == {"rows": 4}
        assert step.duration_ns == worker.children[0].duration_ns

    def test_from_dict_does_not_rerecord_histograms(self, enabled_registry):
        with span("once") as once:
            pass
        assert enabled_registry.histogram("span.once").count == 1
        Span.from_dict(once.to_dict())
        assert enabled_registry.histogram("span.once").count == 1

    def test_graft_attaches_under_active_span(self, enabled_registry):
        with span("remote") as remote:
            with span("remote.step"):
                pass
        wire = remote.to_dict()
        with span("caller") as caller:
            grafted = graft(wire)
        assert grafted is not None
        assert grafted in caller.children
        assert caller.find("remote.step") is not None

    def test_graft_without_active_span_is_noop(self, enabled_registry):
        with span("remote") as remote:
            pass
        assert current_span() is None
        assert graft(remote.to_dict()) is None

    def test_graft_none_is_noop(self, enabled_registry):
        with span("caller") as caller:
            assert graft(None) is None
        assert caller.children == []
