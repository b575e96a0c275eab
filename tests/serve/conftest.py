"""Fixtures for the serving-tier tests: one small model per session."""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.core.build import build_compressed
from repro.core.update import append_columns


@pytest.fixture(scope="session")
def serve_model_dir(tmp_path_factory):
    """A compact compressed model (80 x 50, low rank + noise)."""
    rng = np.random.default_rng(7)
    data = rng.standard_normal((80, 4)) @ rng.standard_normal((4, 50))
    data += 0.01 * rng.standard_normal((80, 50))
    directory = tmp_path_factory.mktemp("serve") / "model"
    build_compressed(data, directory, budget_fraction=0.2).close()
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
