"""Stateful property test: BatchUpdater + MatrixStore vs an in-memory
reference model, over arbitrary interleavings of operations."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.lab.updates import BatchUpdater
from repro.storage import MatrixStore

_COLS = 6


class UpdaterMachine(RuleBasedStateMachine):
    """Random cell updates, appends and rebuilds must always leave the
    on-disk store equal to a plain in-memory ndarray reference."""

    def __init__(self) -> None:
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory()
        self._root = Path(self._tmp.name)
        self._generation = 0
        self.store: MatrixStore | None = None
        self.reference: np.ndarray | None = None
        self.updater: BatchUpdater | None = None

    @initialize(
        rows=st.integers(1, 8),
        seed=st.integers(0, 2**31 - 1),
    )
    def create(self, rows: int, seed: int) -> None:
        self.reference = np.random.default_rng(seed).random((rows, _COLS))
        self.store = MatrixStore.create(
            self._root / f"gen{self._generation}.mat", self.reference
        )
        self.updater = BatchUpdater(self.store)
        self._pending = self.reference.copy()

    @rule(
        row_pick=st.integers(0, 10_000),
        col=st.integers(0, _COLS - 1),
        value=st.floats(-100, 100),
    )
    def update_cell(self, row_pick: int, col: int, value: float) -> None:
        row = row_pick % self._pending.shape[0]
        self.updater.update_cell(row, col, value)
        self._pending[row, col] = value

    @rule(seed=st.integers(0, 2**31 - 1))
    def append_row(self, seed: int) -> None:
        row = np.random.default_rng(seed).random(_COLS)
        index = self.updater.append_row(row)
        assert index == self._pending.shape[0]
        self._pending = np.vstack([self._pending, row])

    @rule()
    def rebuild(self) -> None:
        self._generation += 1
        new_store, _ = self.updater.rebuild(
            self._root / f"gen{self._generation}.mat"
        )
        self.store.close()
        self.store = new_store
        self.reference = self._pending.copy()
        self.updater = BatchUpdater(self.store)

    @invariant()
    def store_matches_reference_after_rebuild(self) -> None:
        if self.store is None:
            return
        # The *store* lags the pending patches until rebuild; it must
        # always equal the last rebuilt reference.
        assert np.allclose(self.store.read_all(), self.reference)

    def teardown(self) -> None:
        if self.store is not None:
            self.store.close()
        self._tmp.cleanup()


TestUpdaterStateMachine = UpdaterMachine.TestCase
TestUpdaterStateMachine.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
