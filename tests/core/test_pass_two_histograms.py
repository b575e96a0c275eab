"""Pass 2's score histograms: the brackets they put on ``epsilon_k``, the
cut pass 3 takes at, and the rescan that settles a doubt or a short one.

A histogram keeps a count and a sum of squares per bin of ``|error|``
(the top bits of the float64 pattern), so it can only bracket the
energy of its top ``gamma``; ``DeltaSweep`` then cuts pass 3's cells
exactly.  Each is checked against a dense top-``gamma`` sort here, and
the whole selection against ``_reference_pass_two`` (the k_max-deep
tensor formulation in ``test_svdd``).
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import SVDDCompressor
from repro.core.histogram import ScoreHistogram
from repro.core.svdd import DeltaSweep
from repro.obs import set_log_stream
from repro.storage import MatrixStore
from tests.core.test_svdd import (
    _assert_brackets_hold,
    _assert_matches_reference,
    _reference_pass_two,
    _swept,
)


def _fed(gamma, floor, batches, raise_every=1):
    """A histogram fed ``batches``' scores, raising its floor every
    ``raise_every`` batches as pass 2 does every few chunks."""
    hist = ScoreHistogram(gamma, floor)
    for number, values in enumerate(batches, 1):
        hist.add(np.abs(values))
        if number % raise_every == 0:
            hist.raise_floor()
    return hist


def _cut_cells(hist, batches):
    """``(keys, values)`` of the cells pass 3 keeps for ``hist``, key =
    position in the batches' concatenation.  Each batch is a chunk of
    one-column rows (so a key is a row), whose rank-1 error under a
    zero ``V`` is the value itself."""
    sweep = DeltaSweep(hist, np.zeros((1, 1)), 1)
    for values in batches:
        sweep(np.asarray(values, dtype=np.float64).reshape(-1, 1))
    table = sweep.deltas()
    return table.rows(), table.values


def _check(batches, gamma, floor, raise_every=1):
    """Against a dense sort: ``short`` exactly when the floor lay above
    the ``gamma``-th score; then, refilled unfloored if so, the bracket
    holds the top ``gamma``'s energy, a rescan of the cut bin makes it
    exact, and pass 3 keeps the top ``gamma`` cells, the first keys of
    a tie, in key order."""
    values = np.concatenate(batches)
    scores = np.abs(values)
    ranked = np.lexsort((np.arange(values.size), -scores))  # ties: first keys
    want = float(np.sum(np.sort(scores[ranked[:gamma]]) ** 2))
    slack = 1e-12 * float(np.dot(scores, scores))

    hist = _fed(gamma, floor, batches, raise_every)
    short = hist.cut() is None
    assert short == (gamma > 0 and scores[ranked[gamma - 1]] <= floor)
    if short:  # the refill: the same batches, unfloored
        hist = _fed(gamma, -np.inf, batches, raise_every)
        assert hist.cut() is not None
    low, high = hist.bracket()
    assert low - slack <= want <= high + slack

    keys, kept = _cut_cells(hist, batches)
    np.testing.assert_array_equal(keys, np.sort(ranked[:gamma]))
    np.testing.assert_array_equal(kept, values[keys])

    hist.held = []  # the rescan a doubt takes
    for number, batch in enumerate(batches, 1):
        hist.add(np.abs(batch))
        if number % raise_every == 0:
            hist.raise_floor()
    low, high = hist.bracket()
    assert low == high == pytest.approx(want, rel=1e-12, abs=slack)
    return hist


class TestHistogramCases:
    @pytest.mark.parametrize(
        "batches, gamma, floor",
        [
            # Of three 5s at the cut, the first two keys.
            ([[2.0, 0.1, 5.0, 8.0], [0.2, -5.0, 5.0, -2.0, 9.0]], 4, -np.inf),
            # gamma 0: keeps nothing, retains no energy.
            ([np.arange(10.0)], 0, -np.inf),
            # A floor above the gamma-th score: short, then refilled.
            ([[3.0, -1.0, 7.0, 0.5], [2.0, -6.0]], 4, 2.5),
            # Zeros are candidates while the top gamma needs them.
            ([np.zeros(2), [0.0, -2.0], np.zeros(9)], 3, -np.inf),
            # One batch far larger than gamma.
            ([np.random.default_rng(2).standard_normal(1000)], 4, -np.inf),
            # Every score above one octave's worth of bins, tied in pairs.
            ([np.repeat(np.linspace(1.0, 3.0, 300), 2)], 101, 0.5),
        ],
    )
    def test_case(self, batches, gamma, floor):
        batches = [np.asarray(batch, dtype=np.float64) for batch in batches]
        hist = _check(batches, gamma, floor)
        if gamma == 0:
            assert hist.sweep_cut() == (np.inf, 0)
            assert hist.bracket() == (0.0, 0.0)

    def test_floor_only_rises_and_bins_stay_few(self):
        rng = np.random.default_rng(5)
        hist = ScoreHistogram(7, -np.inf)
        floors = [hist.floor]
        for batch in range(40):
            # Shrinking magnitudes: later batches mostly fall under it.
            hist.add(np.abs(rng.standard_normal(50)) / (1 + batch))
            hist.raise_floor()
            floors.append(hist.floor)
        assert all(a <= b for a, b in zip(floors, floors[1:]))
        assert floors[-1] > 0.0
        assert hist.bins.shape[1] < 64 * 8  # from the cut bin up, not from 0


_batched = dict(
    seed=st.integers(0, 2**31 - 1),
    gamma=st.integers(0, 40),
    sizes=st.lists(st.integers(0, 90), min_size=1, max_size=30),
    levels=st.sampled_from([None, 3, 8, 300]),
    quantile=st.one_of(st.none(), st.floats(0.0, 1.0)),
    raise_every=st.integers(1, 4),
)


@settings(max_examples=150, deadline=None)
@given(**_batched)
def test_property_histogram_against_a_dense_sort(
    seed, gamma, sizes, levels, quantile, raise_every
):
    """Batches of varying (and zero) size, from a few integer levels
    (zero among them: ties straddle the cut) or normal; a floor at a
    quantile of their scores or none."""
    rng = np.random.default_rng(seed)
    if levels is None:
        batches = [rng.standard_normal(size) for size in sizes]
    else:
        batches = [
            rng.integers(-levels, levels + 1, size=size).astype(np.float64)
            for size in sizes
        ]
    values = np.concatenate(batches)
    gamma = min(gamma, values.size)
    floor = -np.inf
    if quantile is not None and values.size:
        floor = float(np.quantile(np.abs(values), quantile))
    _check(batches, gamma, floor, raise_every)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(40, 700),
    cols=st.integers(10, 50),
    budget=st.floats(0.15, 0.6),
    sigma=st.floats(0.0, 2.5),
    levels=st.sampled_from([None, 2, 5]),
)
@example(seed=0, rows=40, cols=39, budget=0.5, sigma=2.0, levels=2)  # see below
def test_property_selection_against_the_tensor_formulation(
    seed, rows, cols, budget, sigma, levels
):
    """Random shapes, budgets and row scales, and the same rounded to a
    few integer levels (every ``|delta|`` recurs, and ties sit at the
    cuts): the same ``k_opt`` and ``(keys, values)`` as the dense
    reference, whose exact ``epsilon_k`` every bracket holds.

    Rounded data can leave several candidates at ``epsilon = 0`` (every
    nonzero error stored), where the reference's ``k_opt`` and the
    build's are each decided by their sums' rounding: then ``k_opt``
    must be one of those tied to the rounding.  A bracket's width is
    pinned on unrounded data only: on rounded data ``epsilon_k`` can be
    small beside the cut bin's energy."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, 3)) @ rng.standard_normal((3, cols))
    x += 0.1 * rng.standard_normal((rows, cols))
    x *= rng.lognormal(0.0, sigma, size=(rows, 1))
    if levels is not None:
        x = np.round(np.clip(x / (np.abs(x).max() or 1.0), -1, 1) * levels)
    fitter = SVDDCompressor(budget)
    v = fitter.select_cutoff(x).all_v
    reference = _reference_pass_two(fitter, x, v)
    epsilon = reference[1]
    tied = np.flatnonzero(epsilon <= epsilon.min() + 1e-12 * float((x * x).sum()))
    if tied.size > 1:
        selection = fitter.select_cutoff(x)
        assert selection.k_opt - 1 in tied
        _assert_brackets_hold(selection.candidate_errors, epsilon, x, max_width=None)
        return
    width = 2e-3 if levels is None else None
    _assert_matches_reference(
        fitter, x, expect_unique=None, max_width=width, reference=reference
    )


def test_an_epsilon_within_rounding_of_zero_ties_to_the_first_k():
    """40 x 39 rounded to 2 levels at s = 0.5: k = 1 and k = 2 store every
    nonzero error, so both epsilons are 0 in exact arithmetic, and the
    dense reference reads them so.  The build's ``sse - retained`` for
    k = 1 left 7.1e-15 beside k = 2's 0 and picked k = 2; within rounding
    of 0 is 0, and the first k takes the tie."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 39))
    x += 0.1 * rng.standard_normal((40, 39))
    x *= rng.lognormal(0.0, 2.0, size=(40, 1))
    x = np.round(np.clip(x / np.abs(x).max(), -1, 1) * 2)
    fitter = SVDDCompressor(0.5)
    selection = fitter.select_cutoff(x)
    reference = _reference_pass_two(fitter, x, selection.all_v)
    assert reference[0] == 1 and not reference[1][:2].any()
    assert selection.k_opt == 1
    assert not selection.candidate_errors[:2].any()
    _assert_matches_reference(fitter, x, expect_unique=None, max_width=None, reference=reference)


def _tied_candidates(seed: int) -> tuple[np.ndarray, SVDDCompressor]:
    """Two candidates with exactly the same ``epsilon``.  Each row has one
    nonzero cell, so the columns are orthogonal, ``V`` is exact unit
    vectors and every error is an exact integer.  Column 0 is rank 1's,
    column 1 rank 2's; the ``gamma_1 - gamma_2`` cells of column 1 are
    the deltas rank 1 spends on it, so both candidates store the same
    odd integers of the rest (two to a bin: the brackets are not
    points) and leave the same energy."""
    rows, cols = 1000, 20
    fitter = SVDDCompressor(0.131)
    assert fitter.candidate_cutoffs(rows, cols) == 2
    spent = fitter._gamma(rows, cols, 1) - fitter._gamma(rows, cols, 2)
    assert fitter._gamma(rows, cols, 2) < rows - 100 - spent  # the rest meet a cut
    rng = np.random.default_rng(seed)
    x = np.zeros((rows, cols))
    order = rng.permutation(rows)
    x[order[:100], 0] = 5000.0
    x[order[100 : 100 + spent], 1] = 1000.0
    rest = order[100 + spent :]
    x[rest, rng.integers(2, cols, rest.size)] = 2 * rng.integers(64, 128, rest.size) + 1
    return x, fitter


def test_a_tie_takes_the_fourth_scan(tmp_path, enabled_registry):
    x, fitter = _tied_candidates(seed=1)
    # Equal integers straddle the cut: which of them is kept is the
    # first keys' rule here and nobody's in the reference.
    selection = _assert_matches_reference(fitter, x, expect_unique=None)
    low, high = selection.candidate_errors.T
    assert np.array_equal(low, high) and low[0] == low[1]  # both settled, tied
    assert selection.k_opt == 1  # np.argmin's rule: the first k
    # Rank 1's errors are the matrix less column 0, exactly: the kept
    # cells are its top gamma, of those tied at the cut the first keys.
    scores = np.abs(np.where(np.arange(x.shape[1]) == 0, 0.0, x)).ravel()
    ranked = np.lexsort((np.arange(scores.size), -scores))
    keys, _ = _swept(selection, x)
    np.testing.assert_array_equal(keys, np.sort(ranked[: selection.histogram.gamma]))
    set_log_stream(io.StringIO())
    try:
        with MatrixStore.create(tmp_path / "x.mat", x) as source:
            model = fitter.fit(source)
            assert source.pass_count == 4  # Gram, errors, the cut bins, U
    finally:
        set_log_stream(None)
    assert enabled_registry.gauge("build.pass2.short_queues").value == 0
    assert model.cutoff == _reference_pass_two(fitter, x, selection.all_v)[0]
