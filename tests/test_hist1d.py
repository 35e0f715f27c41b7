import math

import numpy as np
import pytest

from histcmi import (
    BinSet,
    InputError,
    assign_labels,
    build_grid,
    candidate_cuts,
    detect_discrete_points,
    optimal_histogram_1d,
    total_score,
)
from histcmi.data_model import _interval_index, degenerate_width
from histcmi.hist1d import _xlogx_segment_sums, bin_budget, segment_table, solve_segmentation

from oracles import exhaustive_best_total, full_segmentation, xlogx_segment_sums


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


def _random_segmentation(rng):
    """Arguments of one random ``solve_segmentation`` call: equal-width or
    irregular grid, flat, skewed or uniform counts over 1-4 other cells,
    K_max in {1, B-1, B, B+3} and fixed_bits of either sign."""
    B = int(rng.integers(1, 41))
    if rng.random() < 0.5:
        boundaries = np.linspace(-1.0, rng.uniform(0.1, 50.0), B + 1)
    else:
        boundaries = np.cumsum(np.append(rng.normal(), rng.exponential(size=B) + 1e-3))
    shape = rng.choice(["flat", "skewed", "uniform"])
    if shape == "flat":
        cell_idx = np.repeat(np.arange(B), int(rng.integers(1, 6)))
    elif shape == "skewed":
        weights = rng.uniform(0.05, 0.6) ** np.arange(B)
        cell_idx = rng.choice(B, size=int(rng.integers(1, 400)), p=weights / weights.sum())
    else:
        cell_idx = rng.integers(0, B, size=int(rng.integers(1, 400)))
    n_other = int(rng.integers(1, 5))
    n_singletons = int(rng.integers(0, 3))
    return dict(n_total=cell_idx.size + n_singletons * int(rng.integers(0, 20)),
                boundaries=boundaries, cell_idx=cell_idx,
                K_max=int(rng.choice([1, max(1, B - 1), B, B + 3])),
                n_singletons=n_singletons, fixed_bits=float(rng.normal(0.0, 2000.0)),
                K_other=n_other + int(rng.integers(0, 3)),
                other_cell_ids=rng.integers(0, n_other, size=cell_idx.size))


def _solve(cell_idx, **kw):
    """``solve_segmentation`` on the table of the rows in candidate cells ``cell_idx``."""
    return solve_segmentation(table=segment_table(kw["boundaries"], cell_idx, kw["K_max"]),
                              **kw)


class TestEarlyStop:
    """The DP that stops its rounds early against the full DP, bit for bit."""

    @staticmethod
    def _assert_same_as_full_dp(kw):
        res = _solve(**kw)
        cuts, total = full_segmentation(**kw)
        assert res.cut_indices.tolist() == cuts.tolist()
        assert res.total_bits.hex() == total.hex()
        return len(cuts) + 1

    def test_matches_full_dp_on_random_instances(self):
        rng = np.random.default_rng(12)
        falling = 0
        for _ in range(2000):
            kw = _random_segmentation(rng)
            m_star = self._assert_same_as_full_dp(kw)
            falling += m_star - 1 > (len(kw["boundaries"]) - 2) / 2
        # counts past the middle, where the model cost falls as m grows
        assert falling > 200

    def test_exact_ties_between_counts_stay_with_the_full_dp(self):
        # one row on B equal cells of width w: one interval and B intervals
        # both cost log2(B·w) bits plus fixed_bits, so their floats differ
        # only by rounding, and the stop must not be what decides between them
        rng = np.random.default_rng(3)
        for _ in range(2000):
            B = int(rng.integers(2, 9))
            w = float(rng.uniform(0.01, 100.0))
            self._assert_same_as_full_dp(dict(
                n_total=1, boundaries=np.linspace(0.0, B * w, B + 1),
                cell_idx=np.array([int(rng.integers(0, B))]), K_max=B, n_singletons=0,
                fixed_bits=float(rng.normal(0.0, 10.0)), K_other=1,
                other_cell_ids=np.array([0])))


def _sparse_segmentation(rng):
    """Arguments of one random ``solve_segmentation`` call whose rows leave
    runs of candidate cells empty: at both ends, in the middle and scattered,
    over 1-4 other cells.  K_max is B//2 + 1, the largest budget at which the
    model cost never falls, or one of B-1, B and B+3."""
    B = int(rng.integers(2, 61))
    if rng.random() < 0.5:
        boundaries = np.linspace(-1.0, rng.uniform(0.1, 50.0), B + 1)
    else:
        boundaries = np.cumsum(np.append(rng.normal(), rng.exponential(size=B) + 1e-3))
    lo, hi = sorted(rng.integers(0, B, size=2))
    cells = np.arange(lo, hi + 1)
    gap = rng.integers(lo, hi + 1, size=2)
    cells = cells[(cells < gap.min()) | (cells > gap.max()) | (cells == lo) | (cells == hi)]
    cells = cells[rng.random(cells.size) < rng.choice([0.3, 0.7, 1.0])]
    if cells.size == 0:
        cells = np.array([lo])
    # row counts log-uniform in [1, 400): with few rows the penalty decides
    cell_idx = rng.choice(cells, size=int(np.exp(rng.uniform(0.0, np.log(400.0)))),
                          p=rng.dirichlet(np.full(cells.size, rng.choice([0.3, 3.0]))))
    n_other = int(rng.integers(1, 5))
    n_singletons = int(rng.integers(0, 3))
    K_max = B // 2 + 1 if rng.random() < 0.6 else int(rng.choice([B - 1, B, B + 3]))
    return dict(n_total=cell_idx.size + n_singletons * int(rng.integers(0, 20)),
                boundaries=boundaries, cell_idx=cell_idx, K_max=max(1, K_max),
                n_singletons=n_singletons, fixed_bits=float(rng.normal(0.0, 2000.0)),
                K_other=n_other + int(rng.integers(0, 3)),
                other_cell_ids=rng.integers(0, n_other, size=cell_idx.size))


def _active_cells(kw):
    """Other cells holding two or more rows: those the kernel reads."""
    return int((np.bincount(kw["other_cell_ids"]) >= 2).sum())


class TestPruning:
    """Cuts only beside occupied cells, against the full DP over every
    boundary, bit for bit."""

    def test_matches_full_dp_on_sparse_instances(self):
        rng = np.random.default_rng(21)
        pruned = {True: 0, False: 0}  # by whether the penalty may fall with m
        for _ in range(3000):
            kw = _sparse_segmentation(rng)
            res = _solve(**kw)
            cuts, total = full_segmentation(**kw)
            assert res.cut_indices.tolist() == cuts.tolist()
            assert res.total_bits.hex() == total.hex()
            B = len(kw["boundaries"]) - 1
            falls = 2 * (min(kw["K_max"], B) - 1) > B
            pruned[falls] += res.ops < _active_cells(kw) * (B + 1) ** 2
        # most instances at K_max = B//2 + 1 run on fewer boundaries; where
        # the model cost can fall, the guard keeps them all
        assert pruned[False] > 1000
        assert pruned[True] == 0

    def test_ops_count_the_kept_boundaries(self):
        # rows in cells 0, 1, 8 and 9 of ten: boundaries 3-7 sit inside an
        # empty run, so 6 of the 11 boundaries stay
        kw = dict(n_total=40, boundaries=np.arange(11.0),
                  cell_idx=np.repeat([0, 1, 8, 9], 10), n_singletons=0,
                  fixed_bits=0.0, K_other=1, other_cell_ids=np.zeros(40, dtype=np.int64))
        assert _solve(**kw, K_max=3).ops == 6 ** 2
        # at K_max = B the model cost falls past m = 6, and every boundary stays
        assert _solve(**kw, K_max=10).ops == 11 ** 2


class TestSegmentTable:
    def test_intervals_match_assign_labels(self):
        # labels of an accepted re-cut come from the table's cell of each row
        rng = np.random.default_rng(5)
        for _ in range(200):
            vals = np.concatenate([rng.exponential(size=int(rng.integers(2, 300))),
                                   np.full(6, 0.5)])
            col = detect_discrete_points(vals, t=5)
            grid = candidate_cuts(col, int(rng.integers(2, 40)))
            table = segment_table(grid, _interval_index(col.unmasked, grid),
                                  int(rng.integers(1, len(grid) + 2)))
            inner = table.pos[1:-1]
            cuts = np.sort(rng.choice(inner, size=int(rng.integers(0, inner.size + 1)),
                                      replace=False))
            bs = BinSet(col.atoms, grid, cuts)
            assert np.array_equal(bs.n_singletons + table.intervals(cuts),
                                  assign_labels(col, bs)[~col.discrete_mask])

    def test_table_of_another_grid_or_budget_rejected(self):
        kw = dict(n_total=40, boundaries=np.arange(11.0), n_singletons=0, fixed_bits=0.0,
                  K_other=1, other_cell_ids=np.zeros(40, dtype=np.int64))
        cell_idx = np.repeat([0, 1, 7, 8], 10)
        for boundaries, K_max in ((np.arange(10.0), 3), (np.arange(11.0), 4)):
            with pytest.raises(InputError, match="another grid or K_max"):
                solve_segmentation(table=segment_table(boundaries, cell_idx, K_max),
                                   K_max=3, **kw)


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_range_wider_than_float64_named_before_any_grid(self):
        # hi - lo overflows to inf: linspace would warn and yield a grid of
        # nans and infs that BinSet rejects without naming the cause
        col = detect_discrete_points([-1e308, 0.0, 1e308], t=5)
        with pytest.raises(InputError, match=r"range \[-1e\+308, 1e\+308\] is wider than float64"):
            candidate_cuts(col, 10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.finfo(float).max, -np.finfo(float).max])
    def test_single_value_at_max_float_gets_a_finite_one_ulp_cell(self, value):
        # no float lies past ±max, so the cell is built on the finite side
        col = detect_discrete_points([value] + [0.0] * 6, t=5)
        cand = candidate_cuts(col, 10)
        assert np.all(np.isfinite(cand)) and cand[0] < cand[1]
        assert value in cand.tolist()
        assert cand[1] - cand[0] == degenerate_width(value)
        assert np.nextafter(cand[0], np.inf) == cand[1]
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
