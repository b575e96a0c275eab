"""Tests for the benchmark results' commit stamp and structured logs."""

from __future__ import annotations

import json

from repro.obs.bench import git_sha


class TestGitSha:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("GITHUB_SHA", "cafe1234")
        assert git_sha() == "cafe1234"

    def test_falls_back_to_git(self, monkeypatch):
        monkeypatch.delenv("GITHUB_SHA", raising=False)
        monkeypatch.delenv("GIT_SHA", raising=False)
        sha = git_sha()
        # This test runs inside the repository checkout.
        assert sha is None or len(sha) == 40

    def test_none_outside_a_checkout(self, monkeypatch, tmp_path):
        monkeypatch.delenv("GITHUB_SHA", raising=False)
        monkeypatch.delenv("GIT_SHA", raising=False)
        assert git_sha(cwd=tmp_path) is None


class TestLogging:
    def test_log_event_json_lines(self, enabled_registry):
        import io

        from repro.obs import log_event, set_log_stream

        stream = io.StringIO()
        set_log_stream(stream)
        try:
            log_event("build.pass", number=1, seconds=0.5)
        finally:
            set_log_stream(None)
        line = json.loads(stream.getvalue())
        assert line["event"] == "build.pass"
        assert line["number"] == 1
        assert "ts" in line
        # ISO-8601 UTC companion timestamp on every record.
        assert line["time"].endswith("+00:00")
        assert line["time"][:4].isdigit()

    def test_log_event_carries_ambient_trace_id(self, enabled_registry):
        import io

        from repro.obs import log_event, set_log_stream, trace

        stream = io.StringIO()
        set_log_stream(stream)
        try:
            log_event("untraced")
            with trace("feed0000deadbeef"):
                log_event("traced")
        finally:
            set_log_stream(None)
        untraced, traced = (
            json.loads(line) for line in stream.getvalue().splitlines()
        )
        assert "trace_id" not in untraced
        assert traced["trace_id"] == "feed0000deadbeef"

    def test_log_event_silent_when_disabled(self):
        import io

        from repro.obs import log_event, registry, set_log_stream

        assert registry.enabled is False
        stream = io.StringIO()
        set_log_stream(stream)
        try:
            log_event("noisy", value=1)
        finally:
            set_log_stream(None)
        assert stream.getvalue() == ""
