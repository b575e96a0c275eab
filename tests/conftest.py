"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.data import phone_matrix, stocks_matrix, toy_matrix


def run_route(engine, query, route: str, plan=None):
    """Answer ``query`` along the admissible ``route``, whichever route
    the planner prefers: its plan (``plan``, when the caller holds it),
    with that candidate as the route, handed to ``execute`` (the seam
    the serving tier routes by)."""
    plan = engine.plan(query) if plan is None else plan
    (forced,) = [c for c in plan.candidates if c.name == route]
    return engine.execute(query, plan=dataclasses.replace(plan, route=forced))


def lose_deltas(directory) -> None:
    """Flip a byte of a model's ``deltas.bin`` (size kept, CRC broken):
    it then opens only with ``on_corrupt="degraded"``, without deltas."""
    path = Path(directory) / "deltas.bin"
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0xFF
    path.write_bytes(bytes(raw))


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Deterministic generator for ad hoc random inputs."""
    return np.random.default_rng(20260704)


@pytest.fixture(scope="session")
def toy() -> np.ndarray:
    """The paper's Table 1 matrix."""
    return toy_matrix()


@pytest.fixture(scope="session")
def phone_small() -> np.ndarray:
    """A small phone-like matrix (200 x 366) for fast method tests."""
    return phone_matrix(200)


@pytest.fixture(scope="session")
def phone_medium() -> np.ndarray:
    """A medium phone-like matrix (600 x 366) for integration tests."""
    return phone_matrix(600)


@pytest.fixture(scope="session")
def stocks_small() -> np.ndarray:
    """A small stocks matrix (120 x 128)."""
    return stocks_matrix(120)


@pytest.fixture()
def low_rank(rng) -> np.ndarray:
    """An exactly rank-3 matrix with known structure."""
    u = rng.standard_normal((80, 3))
    v = rng.standard_normal((3, 40))
    return u @ v


@pytest.fixture()
def enabled_registry():
    """The process-wide telemetry registry, enabled for one test.

    Restores the disabled/empty state afterwards so later tests neither
    observe leaked counters nor pay the enabled-path cost.
    """
    from repro.obs import registry

    registry.reset()
    registry.enable()
    try:
        yield registry
    finally:
        registry.disable()
        registry.reset()
