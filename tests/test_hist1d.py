import math

import numpy as np
import pytest

from histcmi import (
    BinSet,
    assign_labels,
    build_grid,
    candidate_cuts,
    detect_discrete_points,
    optimal_histogram_1d,
    total_score,
)
from histcmi.hist1d import _xlogx_segment_sums, bin_budget

from oracles import exhaustive_best_total, xlogx_segment_sums


def _total_of(col, binset):
    return total_score(build_grid(assign_labels(col, binset)[:, None], [binset]))


class TestBinBudget:
    def test_default_candidate_budget_at_1000(self):
        assert bin_budget(1000, 20.0) == 139  # ceil(20 ln 1000)

    def test_floor_at_one(self):
        assert bin_budget(1, 20.0) == 1


def _prefix_rows(counts):
    counts = np.asarray(counts, dtype=np.float64).reshape(len(counts), -1)
    P = np.zeros((counts.shape[0], counts.shape[1] + 1))
    np.cumsum(counts, axis=1, out=P[:, 1:])
    return P


class TestSegmentSums:
    def test_matches_brute_force_on_random_prefix_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            B = int(rng.integers(1, 40))
            rate = float(rng.choice([0.05, 0.3, 1.0, 6.0]))
            P = _prefix_rows(rng.poisson(rate, size=(int(rng.integers(1, 6)), B)))
            assert np.array_equal(_xlogx_segment_sums(P), xlogx_segment_sums(P))

    def test_small_totals_flat_rows_and_no_rows(self):
        B = 7
        rows = [np.zeros(B),                     # total 0
                np.eye(B)[3],                    # total 1
                np.eye(B)[0] + np.eye(B)[6],     # total 2, at both ends
                2 * np.eye(B)[4],                # total 2, one cell
                np.full(B, 5.0),                 # no flat stretch
                9 * np.eye(B)[6]]                # flat until the last cell
        P = _prefix_rows(rows)
        G = _xlogx_segment_sums(P)
        assert np.array_equal(G, xlogx_segment_sums(P))
        assert G[0, B] == pytest.approx(2 + 2 + 35 * math.log2(35) + 9 * math.log2(9))
        for no_mass in (P[:2], P[:0]):
            assert np.array_equal(_xlogx_segment_sums(no_mass), np.zeros((B + 1, B + 1)))


class TestCandidateCuts:
    def test_unit_range_four_cells(self):
        col = detect_discrete_points([0.0, 0.3, 0.7, 1.0], t=5)
        cand = candidate_cuts(col, 4)
        assert cand == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_symmetric_range_two_cells(self):
        col = detect_discrete_points([-2.0, 1.0, 2.0], t=5)
        cand = candidate_cuts(col, 2)
        assert cand == pytest.approx([-2.0, 0.0, 2.0])

    def test_degenerate_column_rejected(self):
        col = detect_discrete_points([1.0, 1.0, 1.0, 4.0], t=3)
        # only 4.0 is unmasked: a single distinct continuous value gets one
        # cell one ULP wide, so the grid offers no cut
        cand = candidate_cuts(col, 10)
        assert cand.tolist() == [4.0, 4.0 + np.spacing(4.0)]
        assert BinSet(col.atoms, cand).n_candidates == 0

    def test_column_without_continuous_values_has_empty_grid(self):
        col = detect_discrete_points([2.0] * 5 + [3.0] * 5, t=5)
        assert candidate_cuts(col, 10).size == 0


class TestOptimalHistogram1D:
    def test_uniform_data_keeps_single_bin(self):
        rng = np.random.default_rng(1)
        col = detect_discrete_points(rng.uniform(0, 1, 300), t=5)
        bs = optimal_histogram_1d(col, candidate_cuts(col, 20), K_max=5)
        assert bs.n_intervals == 1
        assert bs.cuts.size == 0

    def test_two_separated_clusters_isolate_the_gap(self):
        rng = np.random.default_rng(0)
        vals = np.concatenate([rng.uniform(0, 1, 100), rng.uniform(9, 10, 100)])
        col = detect_discrete_points(vals, t=5)
        cand = candidate_cuts(col, 20)
        bs = optimal_histogram_1d(col, cand, K_max=5)
        assert bs.n_intervals == 3  # dense, empty middle, dense
        assert _total_of(col, bs) == pytest.approx(exhaustive_best_total(col, cand, 5), abs=1e-9)
        lo_cut, hi_cut = cand[bs.cuts]
        assert 0.9 < lo_cut < 1.6 and 8.5 < hi_cut < 9.1

    def test_k_max_one_forces_single_bin(self):
        rng = np.random.default_rng(2)
        col = detect_discrete_points(rng.normal(size=400), t=5)
        bs = optimal_histogram_1d(col, candidate_cuts(col, 30), K_max=1)
        assert bs.n_intervals == 1

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            n = int(rng.integers(40, 160))
            vals = np.concatenate([rng.normal(size=n),
                                   np.full(int(rng.integers(0, 12)), 0.25)])
            col = detect_discrete_points(vals, t=5)
            K_init = int(rng.integers(4, 13))  # <= 12 interior candidates
            K_max = int(rng.integers(2, 5))
            cand = candidate_cuts(col, K_init)
            bs = optimal_histogram_1d(col, cand, K_max)
            assert bs.n_intervals <= K_max
            dp = _total_of(col, bs)
            assert dp == pytest.approx(exhaustive_best_total(col, cand, K_max), abs=1e-9)
        # K_max >= B: the cost table gets a row for every count up to one
        # interval per grid cell, and the walk-back may start from the last
        for _ in range(6):
            col = detect_discrete_points(rng.exponential(size=int(rng.integers(30, 90))), t=5)
            cand = candidate_cuts(col, int(rng.integers(2, 8)))
            K_max = len(cand) - 1 + int(rng.integers(0, 3))
            bs = optimal_histogram_1d(col, cand, K_max)
            dp = _total_of(col, bs)
            assert dp == pytest.approx(exhaustive_best_total(col, cand, K_max), abs=1e-9)

    def test_equal_cost_splits_keep_the_leftmost(self):
        # cell counts 50, 0, 50: the empty middle cell joins either side at
        # exactly the same cost, and the DP keeps the leftmost cut
        col = detect_discrete_points(np.concatenate([np.linspace(0.01, 0.5, 50),
                                                     np.linspace(2.01, 2.5, 50)]), t=5)
        grid = np.array([0.0, 1.0, 2.0, 3.0])
        left, right = (BinSet(col.atoms, grid, np.array([c])) for c in (1, 2))
        assert _total_of(col, left) == _total_of(col, right)
        assert optimal_histogram_1d(col, grid, K_max=2).cuts.tolist() == [1]

    def test_never_worse_than_single_bin(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            col = detect_discrete_points(rng.exponential(size=200), t=5)
            cand = candidate_cuts(col, 25)
            best = optimal_histogram_1d(col, cand, K_max=6)
            single = optimal_histogram_1d(col, cand, K_max=1)
            assert _total_of(col, best) <= _total_of(col, single) + 1e-9

    def test_bin_count_grows_sublinearly(self):
        # light version of the sqrt-growth study (full sweep in acceptance)
        rng = np.random.default_rng(9)
        medians = []
        for n in (500, 2000):
            counts = []
            for _ in range(5):
                col = detect_discrete_points(rng.normal(size=n), t=5)
                cand = candidate_cuts(col, bin_budget(n, 20.0))
                counts.append(optimal_histogram_1d(col, cand, bin_budget(n, 5.0)).n_bins)
            medians.append(np.median(counts))
        assert medians[0] < medians[1] < math.sqrt(2000)
