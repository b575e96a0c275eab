"""Tests for the three-pass SVDD compressor (paper Section 4.2, Fig. 5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SVDCompressor, SVDDCompressor
from repro.core.svd import _row_chunks
from repro.data import PhoneConfig, phone_matrix
from repro.exceptions import ConfigurationError
from repro.metrics import rmspe, worst_case_error
from repro.storage import MatrixStore


@pytest.fixture(scope="module")
def spiky_matrix():
    """Low-rank data plus a handful of gross outlier cells."""
    rng = np.random.default_rng(11)
    base = np.outer(rng.random(150) * 10, rng.random(40) + 0.5)
    noise = rng.standard_normal((150, 40)) * 0.05
    x = base + noise
    for row, col in [(3, 7), (50, 0), (99, 39), (120, 20), (7, 7)]:
        x[row, col] += 500.0
    return x


class TestConstruction:
    def test_invalid_budget(self):
        with pytest.raises(ConfigurationError):
            SVDDCompressor(budget_fraction=0.0)
        with pytest.raises(ConfigurationError):
            SVDDCompressor(budget_fraction=1.5)
        with pytest.raises(ConfigurationError):
            SVDDCompressor(budget_fraction=0.1, k_max=0)

    def test_three_passes_on_store(self, tmp_path, phone_small):
        store = MatrixStore.create(tmp_path / "x.mat", phone_small)
        SVDDCompressor(budget_fraction=0.10).fit(store)
        assert store.pass_count == 3  # the paper's headline claim
        store.close()

    def test_store_and_array_agree(self, tmp_path, phone_small):
        store = MatrixStore.create(tmp_path / "x.mat", phone_small)
        a = SVDDCompressor(budget_fraction=0.08).fit(phone_small)
        b = SVDDCompressor(budget_fraction=0.08).fit(store)
        assert a.cutoff == b.cutoff
        assert a.num_deltas == b.num_deltas
        assert np.allclose(a.reconstruct(), b.reconstruct(), atol=1e-8)
        store.close()

    def test_deterministic(self, phone_small):
        a = SVDDCompressor(budget_fraction=0.05).fit(phone_small)
        b = SVDDCompressor(budget_fraction=0.05).fit(phone_small)
        assert a.cutoff == b.cutoff
        assert a.outlier_cells() == b.outlier_cells()


class TestBudgetRespect:
    @pytest.mark.parametrize("budget", [0.02, 0.05, 0.10, 0.25])
    def test_space_within_budget(self, phone_small, budget):
        model = SVDDCompressor(budget_fraction=budget).fit(phone_small)
        assert model.space_fraction() <= budget + 1e-12

    def test_k_opt_does_not_exceed_k_max(self, phone_small):
        model = SVDDCompressor(budget_fraction=0.10, k_max=5).fit(phone_small)
        assert model.cutoff <= 5

    def test_tiny_budget_all_pcs_no_deltas_regime(self):
        """Very small s: optimal choice can be k_max with gamma ~ 0
        (paper Section 5.1, fourth bullet)."""
        rng = np.random.default_rng(5)
        # Smooth low-rank data with NO outliers: deltas are never worth it.
        x = np.outer(rng.random(200) * 5, rng.random(30) + 1.0)
        model = SVDDCompressor(budget_fraction=0.04).fit(x)
        assert model.num_deltas == 0 or model.cutoff == model.k_max


class TestDeltas:
    def test_planted_spikes_end_up_accurate(self, spiky_matrix):
        """Every planted spike is either absorbed by a principal component
        or stored as a delta — both ways it reconstructs accurately.
        (Two of the five spikes share column 7 and form a pattern the
        SVD itself captures; the rest must become deltas.)"""
        model = SVDDCompressor(budget_fraction=0.10).fit(spiky_matrix)
        stored = {(row, col) for row, col, _ in model.outlier_cells()}
        for planted in [(3, 7), (50, 0), (99, 39), (120, 20), (7, 7)]:
            recon = model.reconstruct_cell(*planted)
            absorbed = abs(recon - spiky_matrix[planted]) < 25.0  # << spike of 500
            assert absorbed or planted in stored
            assert absorbed  # and in fact accurate either way

    def test_deltas_are_the_worst_cells(self, spiky_matrix):
        """The stored cells are exactly the gamma worst under plain SVD."""
        model = SVDDCompressor(budget_fraction=0.10).fit(spiky_matrix)
        plain = model.svd.reconstruct()
        errors = np.abs(spiky_matrix - plain)
        threshold = np.sort(errors.ravel())[::-1][model.num_deltas - 1]
        for row, col, _delta in model.outlier_cells():
            assert errors[row, col] >= threshold - 1e-9

    def test_outlier_cells_reconstruct_exactly(self, spiky_matrix):
        model = SVDDCompressor(budget_fraction=0.10).fit(spiky_matrix)
        for row, col, _delta in model.outlier_cells()[:50]:
            assert model.reconstruct_cell(row, col) == pytest.approx(
                spiky_matrix[row, col], abs=1e-6
            )

    def test_svdd_beats_svd_rmspe(self, spiky_matrix):
        svdd = SVDDCompressor(budget_fraction=0.10).fit(spiky_matrix)
        svd = SVDCompressor(budget_fraction=0.10).fit(spiky_matrix)
        assert rmspe(spiky_matrix, svdd.reconstruct()) <= rmspe(
            spiky_matrix, svd.reconstruct()
        )

    def test_svdd_bounds_worst_case(self, spiky_matrix):
        """Table 3's phenomenon: SVDD's worst cell error is far below SVD's."""
        svdd = SVDDCompressor(budget_fraction=0.10).fit(spiky_matrix)
        svd = SVDCompressor(budget_fraction=0.10).fit(spiky_matrix)
        _, norm_svdd = worst_case_error(spiky_matrix, svdd.reconstruct())
        _, norm_svd = worst_case_error(spiky_matrix, svd.reconstruct())
        assert norm_svdd < norm_svd / 5

    def test_reconstruct_row_applies_deltas(self, spiky_matrix):
        model = SVDDCompressor(budget_fraction=0.10).fit(spiky_matrix)
        row_idx, col_idx, _ = model.outlier_cells()[0]
        row = model.reconstruct_row(row_idx)
        assert row[col_idx] == pytest.approx(spiky_matrix[row_idx, col_idx], abs=1e-6)

    def test_full_reconstruct_matches_cellwise(self, spiky_matrix):
        model = SVDDCompressor(budget_fraction=0.08).fit(spiky_matrix)
        full = model.reconstruct()
        for row, col in [(0, 0), (3, 7), (149, 39), (75, 20)]:
            assert full[row, col] == pytest.approx(
                model.reconstruct_cell(row, col), abs=1e-9
            )


class TestEpsilonCurve:
    def test_candidate_errors_recorded(self, phone_small):
        model = SVDDCompressor(budget_fraction=0.10).fit(phone_small)
        assert model.candidate_errors is not None
        assert model.candidate_errors.shape == (model.k_max, 2)  # [low, high]
        assert np.all(model.candidate_errors >= 0)
        assert np.all(model.candidate_errors[:, 0] <= model.candidate_errors[:, 1])

    def test_k_opt_minimizes_epsilon(self, phone_small):
        model = SVDDCompressor(budget_fraction=0.10).fit(phone_small)
        low, high = model.candidate_errors.T
        others = np.arange(model.k_max) != model.cutoff - 1
        assert np.all(high[model.cutoff - 1] <= low[others])

    def test_epsilon_matches_realized_error(self, spiky_matrix):
        """epsilon_{k_opt}, exact after pass 3, equals the realized SSE of
        the model."""
        model = SVDDCompressor(budget_fraction=0.10).fit(spiky_matrix)
        realized = float(((model.reconstruct() - spiky_matrix) ** 2).sum())
        low, high = model.candidate_errors[model.cutoff - 1]
        assert low == high
        assert realized == pytest.approx(float(high), rel=1e-6, abs=1e-6)


class TestDeltaIndex:
    def test_index_holds_every_outlier(self, spiky_matrix):
        """``model.deltas`` is the row-major table: every stored outlier
        is found by its cell and reconstructs exactly."""
        model = SVDDCompressor(budget_fraction=0.10).fit(spiky_matrix)
        cells = model.outlier_cells()
        assert len(cells) == model.num_deltas > 0
        assert model.deltas.row_start.size == model.num_rows + 1
        assert sorted(cells) == cells and len({cell[:2] for cell in cells}) == len(cells)
        for row, col, delta in cells:
            assert model.deltas.get(row, col) == delta
            assert model.reconstruct_cell(row, col) == pytest.approx(
                spiky_matrix[row, col], abs=1e-6
            )


class TestNaiveReference:
    """The 3-pass algorithm (Fig. 5) must match the straightforward
    per-k recomputation it replaces (Fig. 4)."""

    @pytest.fixture(scope="class")
    def both(self, phone_small=None):
        from repro.lab.naive_svdd import NaiveSVDDCompressor
        from repro.data import phone_matrix

        data = phone_matrix(150)
        fast = SVDDCompressor(budget_fraction=0.10).fit(data)
        naive = NaiveSVDDCompressor(budget_fraction=0.10).fit(data)
        return data, fast, naive

    def test_same_k_opt(self, both):
        _data, fast, naive = both
        assert fast.cutoff == naive.cutoff

    def test_same_epsilon_curve(self, both):
        data, fast, naive = both
        _assert_brackets_hold(fast.candidate_errors, naive.candidate_errors[:, 0], data)

    def test_same_outlier_cells(self, both):
        _data, fast, naive = both
        np.testing.assert_array_equal(fast.deltas.row_start, naive.deltas.row_start)
        np.testing.assert_array_equal(fast.deltas.cols, naive.deltas.cols)

    def test_same_delta_values(self, both):
        _data, fast, naive = both
        np.testing.assert_allclose(
            fast.deltas.values, naive.deltas.values, rtol=0, atol=1e-9
        )

    def test_fast_uses_three_passes_naive_many(self, tmp_path):
        from repro.lab.naive_svdd import NaiveSVDDCompressor
        from repro.data import phone_matrix
        from repro.storage import MatrixStore

        data = phone_matrix(120)
        fast_store = MatrixStore.create(tmp_path / "a.mat", data)
        SVDDCompressor(budget_fraction=0.05).fit(fast_store)
        naive_store = MatrixStore.create(tmp_path / "b.mat", data)
        NaiveSVDDCompressor(budget_fraction=0.05).fit(naive_store)
        assert fast_store.pass_count == 3
        # Fig. 4: ~3 passes per candidate k.
        assert naive_store.pass_count > 2 * fast_store.pass_count
        fast_store.close()
        naive_store.close()


def _reference_pass_two(fitter, x, v):
    """Pass 2 written the way it read before it was brought down to one
    chunk: every candidate's terms at once, a cumulative sum over ``k``,
    and a full sort per ``k`` where the build keeps a bounded queue.
    The executable specification of ``select_cutoff`` past pass 1 (whose
    ``V`` at ``k_max`` it is handed).

    Returns ``(k_opt, epsilon, keys, values, unique, zero_rows)`` with
    the retained cells of ``k_opt`` in key order; ``unique`` says whether
    the smallest retained score beats the largest one left out (when it
    ties, *which* of the tied cells is kept is nobody's contract).
    """
    num_rows, num_cols = x.shape
    k_max = v.shape[1]
    gammas = [fitter._gamma(num_rows, num_cols, k) for k in range(1, k_max + 1)]
    kept = [(np.empty(0, dtype=np.int64), np.empty(0)) for _ in gammas]
    sse = np.zeros(k_max)
    # Rows per tensor: the arithmetic is cell by cell, so how a chunk is
    # cut changes memory (here ~16 MB a tensor), not one delta.
    step = max(1, 2_000_000 // (k_max * num_cols))
    for begin in range(0, num_rows, 128):
        block = x[begin : begin + 128]
        proj = block @ v
        for lo in range(0, block.shape[0], step):
            rows = slice(lo, lo + step)
            terms = proj[rows, :, None] * v.T[None, :, :]
            recon = np.cumsum(terms, axis=1)
            diff = block[rows, None, :] - recon  # (c, k_max, M)
            sse += np.einsum("ckm,ckm->k", diff, diff)
            keys = (begin + lo) * num_cols + np.arange(diff.shape[0] * num_cols)
            for ki, gamma in enumerate(gammas):
                # One past gamma survives, to tell a tie at the boundary.
                values = np.concatenate([kept[ki][1], diff[:, ki, :].ravel()])
                top = np.argsort(-np.abs(values))[: gamma + 1]
                kept[ki] = (np.concatenate([kept[ki][0], keys])[top], values[top])
    retained_sq = [
        float((values[:gamma] ** 2).sum()) for (_, values), gamma in zip(kept, gammas)
    ]
    epsilon = np.maximum(sse - np.array(retained_sq), 0.0)
    k_opt = int(np.argmin(epsilon)) + 1
    gamma = gammas[k_opt - 1]
    keys, values = kept[k_opt - 1]
    unique = values.size <= gamma or abs(values[gamma - 1]) > abs(values[gamma])
    order = np.argsort(keys[:gamma])
    zero_rows = np.flatnonzero(np.abs(x).sum(axis=1) == 0.0)
    return k_opt, epsilon, keys[:gamma][order], values[:gamma][order], unique, zero_rows


def _assert_brackets_hold(brackets, epsilon, x, max_width=2e-3):
    """Each exact ``epsilon_k`` lies in its ``[low, high]`` bracket, and
    no bracket is wider than ``max_width`` of ``epsilon_k`` (both to the
    rounding of the sums, at the matrix's energy)."""
    slack = 1e-12 * float((x * x).sum())
    low, high = brackets.T
    assert np.all(low - slack <= epsilon), (low, epsilon)
    assert np.all(epsilon <= high + slack), (epsilon, high)
    if max_width is not None:
        assert np.all(high - low <= max_width * epsilon + slack), (low, high)


def _swept(selection, x):
    """``(keys, values)`` pass 3 collects for ``selection`` from ``x``,
    each cell keyed ``row * M + col`` as the reference keys it."""
    sweep = selection.delta_sweep()
    for block in _row_chunks(x):
        sweep(block)
    table = sweep.deltas()
    assert table.row_start.size == x.shape[0] + 1
    return table.rows() * x.shape[1] + table.cols, table.values


def _assert_matches_reference(
    fitter, x, jobs=1, expect_unique=True, max_width=2e-3, reference=None
):
    selection = fitter.select_cutoff(x, jobs=jobs)
    k_opt, epsilon, ref_keys, ref_values, unique, zero_rows = (
        reference or _reference_pass_two(fitter, x, selection.all_v)
    )
    assert selection.k_opt == k_opt
    # Summed in another order than the reference's einsum, and then a
    # difference of two such sums: to the sums' own size.
    _assert_brackets_hold(selection.candidate_errors, epsilon, x, max_width)
    np.testing.assert_array_equal(selection.zero_rows, zero_rows)
    keys, values = _swept(selection, x)
    # Exactly gamma cells, none below the cut, each at most once.
    floor, count = selection.histogram.sweep_cut()
    assert keys.size == selection.histogram.gamma == ref_keys.size <= count
    assert np.all(np.abs(values) >= floor)
    assert np.all(np.diff(keys) > 0)
    np.testing.assert_array_equal(np.sort(np.abs(values)), np.sort(np.abs(ref_values)))
    assert selection.error_energy - float(np.dot(values, values)) == pytest.approx(
        epsilon[k_opt - 1], rel=1e-12, abs=1e-12 * float((x * x).sum())
    )
    if expect_unique is not None:
        assert unique == expect_unique
    if unique:
        np.testing.assert_array_equal(keys, ref_keys)
        np.testing.assert_array_equal(values, ref_values)
    return selection


class TestPassTwoAgainstTheTensorFormulation:
    """One reconstruction per chunk and one term per candidate must
    retain what the k_max-deep tensors and a full sort retain."""

    @pytest.mark.parametrize("budget", [0.05, 0.10, 0.40])
    def test_phone_budgets(self, budget):
        _assert_matches_reference(SVDDCompressor(budget), phone_matrix(300))

    @pytest.mark.parametrize("rows, budget", [(7, 0.40), (129, 0.10), (257, 0.10)])
    def test_rows_beside_the_chunk_size(self, rows, budget):
        _assert_matches_reference(SVDDCompressor(budget), phone_matrix(rows))

    def test_zero_rows_and_tied_scores(self):
        base = phone_matrix(128)
        base[[3, 77, 127]] = 0.0
        # Two identical chunks: every |delta| at least twice, bit for bit.
        x = np.vstack([base, base])
        selection = _assert_matches_reference(
            SVDDCompressor(0.10), x, expect_unique=None
        )
        assert {3, 77, 127, 131, 205, 255} <= set(selection.zero_rows.tolist())
        # One candidate and an odd gamma: the boundary splits a tied pair.
        budget = ((256 + 1 + 366) * 8 + 4 * 257 + 10 * 1001 + 8) / (256 * 366 * 8)
        fitter = SVDDCompressor(budget, k_max=1)
        assert fitter._gamma(256, 366, 1) == 1001
        _assert_matches_reference(fitter, x, expect_unique=False)

    def test_single_candidate(self):
        selection = _assert_matches_reference(
            SVDDCompressor(0.10, k_max=1), phone_matrix(200)
        )
        assert selection.k_max == selection.k_opt == 1

    def test_no_deltas_at_the_top_candidate(self):
        # Three components and 8 bytes: gamma_3 = 0 (the 1,204 bytes of
        # row starts do not fit), gamma_2 = 414.
        rows, cols = 300, 366
        budget = (3 * (rows + 1 + cols) * 8 + 8) / (rows * cols * 8)
        fitter = SVDDCompressor(budget)
        assert fitter.candidate_cutoffs(rows, cols) == 3
        assert [fitter._gamma(rows, cols, k) for k in (2, 3)] == [414, 0]
        _assert_matches_reference(fitter, phone_matrix(rows))

    def test_wide_matrix_many_candidates(self):
        # 36 candidates x 2000 columns: one 128-row chunk, k_max deep,
        # would be a 74 MB tensor.
        x = phone_matrix(200, PhoneConfig(num_days=2000))
        selection = _assert_matches_reference(SVDDCompressor(0.20), x)
        assert selection.k_max == 36

    def test_float32_accounting(self):
        _assert_matches_reference(
            SVDDCompressor(0.10, bytes_per_value=4), phone_matrix(300)
        )

    def test_banded_gram(self):
        x = phone_matrix(300)
        four = _assert_matches_reference(SVDDCompressor(0.10), x, jobs=4)
        # Against jobs=1 the Gram matrix is summed in another order, so
        # V moves in its last bits: same cells, deltas equal to rounding.
        one = SVDDCompressor(0.10).select_cutoff(x)
        assert four.k_opt == one.k_opt
        keys4, values4 = _swept(four, x)
        keys1, values1 = _swept(one, x)
        np.testing.assert_array_equal(keys4, keys1)
        np.testing.assert_allclose(values4, values1, rtol=0, atol=1e-9)

    def test_every_queue_short_is_refilled(self, tmp_path, enabled_registry):
        # The 128 sampled rows ten times louder than the rest: every
        # floor sits above all but a few of the cells it must keep.
        x = phone_matrix(1000)
        x[np.linspace(0, 999, 128).astype(np.int64)] *= 10.0
        fitter = SVDDCompressor(0.10)
        selection = _assert_matches_reference(fitter, x)
        short = enabled_registry.gauge("build.pass2.short_queues").value
        assert short == selection.k_max
        with MatrixStore.create(tmp_path / "x.mat", x) as source:
            fitter.fit(source)
            assert source.pass_count == 4  # Gram, errors, the refill, U

    def test_tied_integers(self):
        # 600 rows drawn from 40 rows of small integers: every |delta|
        # recurs, and floors land on scores many cells share.
        rng = np.random.default_rng(44)
        base = rng.integers(0, 4, size=(40, 30)).astype(np.float64)
        base[7] = 0.0
        x = base[rng.integers(0, 40, size=600)]
        _assert_matches_reference(SVDDCompressor(0.25), x, expect_unique=None)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(40, 1000),
        cols=st.integers(10, 60),
        budget=st.floats(0.15, 0.6),
        sigma=st.floats(0.0, 2.5),
        loud=st.sampled_from([1.0, 3.0, 10.0]),
    )
    def test_property_random_shapes_budgets_and_row_scales(
        self, seed, rows, cols, budget, sigma, loud
    ):
        """Low-rank data, noise, and rows scaled by a lognormal: the
        floors meet loud and quiet rows in every proportion.  ``loud``
        scales the rows the floors are sampled from, so some queues
        come out short and are refilled beside others that are not."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, 3)) @ rng.standard_normal((3, cols))
        x += 0.1 * rng.standard_normal((rows, cols))
        x *= rng.lognormal(0.0, sigma, size=(rows, 1))
        x[np.linspace(0, rows - 1, min(rows, 128)).astype(np.int64)] *= loud
        _assert_matches_reference(SVDDCompressor(budget), x, expect_unique=None)
