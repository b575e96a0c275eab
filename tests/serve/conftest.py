"""Fixtures for the serving-tier tests: one small model per session."""

from __future__ import annotations

import shutil
import socket
import sys

import numpy as np
import pytest

from repro.core.build import build_compressed
from repro.core.update import append_columns
from repro.serve.server import _QueryHandler


def build_serve_model(directory) -> None:
    """Build the serve tests' model (80 x 50, low rank + noise) into
    ``directory``."""
    rng = np.random.default_rng(7)
    data = rng.standard_normal((80, 4)) @ rng.standard_normal((4, 50))
    data += 0.01 * rng.standard_normal((80, 50))
    build_compressed(data, directory, budget_fraction=0.2).close()


def serve_once(query_server, target: str, headers=(), profile=None) -> bytes:
    """The raw response to ``GET target`` served by one of
    ``query_server``'s handlers over a socket pair, in this thread;
    ``profile``, when given, is the ``sys.setprofile`` function for
    exactly its ``handle()`` call."""
    client, server = socket.socketpair()
    try:
        head = f"GET {target} HTTP/1.1\r\nHost: x\r\n"
        head += "".join(f"{name}: {value}\r\n" for name, value in headers)
        client.sendall((head + "\r\n").encode("latin-1"))
        handler = _QueryHandler(query_server, server)
        sys.setprofile(profile)
        try:
            handler.handle()
        finally:
            sys.setprofile(None)
        server.close()
        reply = b""
        while chunk := client.recv(65536):
            reply += chunk
        return reply
    finally:
        client.close()
        server.close()


@pytest.fixture(scope="session")
def serve_model_dir(tmp_path_factory):
    """A compact compressed model (80 x 50, low rank + noise)."""
    directory = tmp_path_factory.mktemp("serve") / "model"
    build_serve_model(directory)
    return directory


@pytest.fixture(scope="session")
def stale_model_dir(serve_model_dir, tmp_path_factory):
    """The serve model after a deferred append: it has no usable summary
    store, so a full-axis min/max plans ``stream``."""
    directory = tmp_path_factory.mktemp("serve-stale") / "model"
    shutil.copytree(serve_model_dir, directory)
    append_columns(directory, np.zeros((80, 2)), refresh_summaries=False)
    return directory


@pytest.fixture()
def spy_on_execute(monkeypatch):
    """``spy_on_execute(dispatcher, before=None)`` wraps the
    dispatcher's engine's ``execute`` for this test: returns the list of queries it
    has been handed so far; ``before(query)`` runs first (to sleep,
    block or raise)."""

    def install(dispatcher, before=None):
        executed: list = []
        execute = dispatcher._engine.execute

        def spy(query, plan=None):
            executed.append(query)
            if before is not None:
                before(query)
            return execute(query, plan=plan)

        monkeypatch.setattr(dispatcher._engine, "execute", spy)
        return executed

    return install
