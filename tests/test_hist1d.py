import math

import numpy as np
import pytest

from histcmi import FitConfig, InputError, VariableGroup, cmi_estimate, hist1d
from histcmi.complexity import total_score
from histcmi.data_model import (
    BinSet,
    assign_labels,
    build_grid,
    degenerate_width,
    detect_discrete_points,
)
from histcmi.hist1d import (
    _dual_bound,
    _xlogx_segment_sums,
    bin_budget,
    candidate_cuts,
    segment_table,
    solve_segmentation,
)
from histcmi.histmd import start_column

from oracles import (
    exhaustive_best_total,
    first_recut,
    full_dp,
    full_segmentation,
    grid_start,
    interval_index,
    xlogx_segment_sums,
)


def _total_of(col, binset):
    return total_score(build_grid(assign_labels(col, binset)[:, None], [binset]))


class TestBinBudget:
    def test_default_candidate_budget_at_1000(self):
        assert bin_budget(1000, 20.0) == 139  # ceil(20 ln 1000)

    def test_floor_at_one(self):
        assert bin_budget(1, 20.0) == 1

    @pytest.mark.parametrize("factor", [1e300, 1e308, 2.0**64 / math.log(3)])
    def test_budget_past_the_largest_array_index_is_an_input_error(self, factor):
        # 1e308 · ln n is inf, 1e300 · ln n a finite count no array can hold
        with pytest.raises(InputError, match="bin budget"):
            bin_budget(3, factor)

    def test_budget_below_the_largest_array_index_is_a_count(self):
        assert bin_budget(3, 2.0**62 / math.log(3)) == pytest.approx(2**62, rel=1e-15)


def _prefix_rows(counts):
    counts = np.asarray(counts, dtype=np.int64).reshape(len(counts), -1)
    P = np.zeros((counts.shape[0], counts.shape[1] + 1), dtype=np.int64)
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

    def test_matches_brute_force_at_row_totals_in_the_thousands(self):
        # network-sized cells: the table reaches c = 1621, 3242, ..., where
        # math.log2 is one ULP off numpy's
        rng = np.random.default_rng(17)
        tops = []
        for _ in range(12):
            B = int(rng.integers(2, 30))
            rate = float(rng.choice([40.0, 150.0, 400.0]))
            P = _prefix_rows(rng.poisson(rate, size=(int(rng.integers(1, 4)), B)))
            assert np.array_equal(_xlogx_segment_sums(P), xlogx_segment_sums(P))
            tops.append(int(P[:, -1].max()))
        assert max(tops) > 3242
        P = _prefix_rows([[1000, 621, 0, 1621]])
        G = _xlogx_segment_sums(P)
        assert G[0, 2].hex() == (1621 * np.log2(1621.0)).hex()
        assert np.array_equal(G, xlogx_segment_sums(P))

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_late_and_early_start_rows_in_every_count_type(self, dtype):
        # a row whose first count >= 2 lies past half the width adds into its
        # block, any other row into whole leading rows; the prefix counts come
        # in every type the solve picks, with totals up to int8's largest
        rng = np.random.default_rng(23)
        B = 24
        rows = []
        for _ in range(10):
            start = int(rng.integers(0, B))
            row = np.zeros(B, dtype=np.int64)
            row[start:] = rng.poisson(rng.choice([0.3, 2.0]), size=B - start)
            rows.append(row)
        rows += [np.eye(B, dtype=np.int64)[B - 1] * 127,   # all at the right end
                 np.eye(B, dtype=np.int64)[0] * 127,       # all at the left end
                 np.full(B, 5, dtype=np.int64)]            # total 120, no flat stretch
        P = _prefix_rows(rows)
        assert P[:, -1].max() == np.iinfo(np.int8).max
        late = 2 * (P < 2).sum(axis=1) > B + 1
        assert late.any() and (~late & (P[:, -1] >= 2)).any()
        G = _xlogx_segment_sums(P.astype(dtype))
        assert np.array_equal(G, xlogx_segment_sums(P))


class TestPrefixCountType:
    """The prefix counts take the narrowest signed type whose maximum holds
    n_total; at each side of int8's and int16's largest value, a one-column
    histogram and a two-column estimate are those of int64 counts."""

    # Î of the estimate below, computed with int64 prefix counts
    ESTIMATES = {127: "0x1.995bc4fcc03f8p-2", 128: "0x1.ea79af5a5f8b8p-2",
                 32767: "0x1.5b4fcae881ec0p-2", 32768: "0x1.6476b40cef440p-2"}

    @pytest.mark.parametrize("n", [127, 128, 32767, 32768])
    def test_all_rows_in_one_cell_at_the_type_limits(self, n):
        # n continuous rows in one other cell: the count n itself must fit
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        y = x + rng.normal(size=n)
        start = start_column(detect_discrete_points(x, t=5), FitConfig())
        grid = start.binset.grid
        cuts, _ = full_segmentation(n, grid, interval_index(x, grid), start.K_max, 0, 1,
                                    np.zeros(n, dtype=np.int64))
        assert first_recut(start).cuts.tolist() == cuts.tolist()
        est = cmi_estimate(np.column_stack([x, y]), VariableGroup("X", (0,)),
                           VariableGroup("Y", (1,)))
        assert est.value.hex() == self.ESTIMATES[n]

    def test_more_rows_than_n_total_is_an_input_error(self):
        # n_total sizes the count type, so it must bound the rows
        boundaries = np.linspace(0.0, 1.0, 4)
        cell_idx = np.array([0, 1, 2, 2])
        with pytest.raises(InputError, match="n_total"):
            _solve(cell_idx, n_total=3, boundaries=boundaries, K_max=3, n_singletons=0,
                   K_other=1, other_cell_ids=np.zeros(4, dtype=np.int64))


def _random_segmentation(rng):
    """Arguments of one random ``solve_segmentation`` call: equal-width or
    irregular grid, flat, skewed or uniform counts over 1-4 other cells and
    K_max in {1, B-1, B, B+3}."""
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
    n_total = cell_idx.size + n_singletons * int(rng.integers(0, 20))
    K_max = int(rng.choice([1, max(1, B - 1), B, B + 3]))
    rng.normal(0.0, 2000.0)  # unused: keeps the later cases' random streams
    return dict(n_total=n_total, boundaries=boundaries, cell_idx=cell_idx, K_max=K_max,
                n_singletons=n_singletons, K_other=n_other + int(rng.integers(0, 3)),
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
        assert res.cut_bits.hex() == total.hex()
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
        # both cost log2(B·w) bits, so their floats differ only by rounding,
        # and the stop must not be what decides between them
        rng = np.random.default_rng(3)
        for _ in range(2000):
            B = int(rng.integers(2, 9))
            w = float(rng.uniform(0.01, 100.0))
            cell = int(rng.integers(0, B))
            rng.normal(0.0, 10.0)  # unused: keeps the later cases' random streams
            self._assert_same_as_full_dp(dict(
                n_total=1, boundaries=np.linspace(0.0, B * w, B + 1),
                cell_idx=np.array([cell]), K_max=B, n_singletons=0, K_other=1,
                other_cell_ids=np.array([0])))


class TestDualBound:
    """Dual lines against the full DP's best data cost of every count."""

    @staticmethod
    def _assert_below(lam, v, F_end):
        m = np.arange(1, len(F_end) + 1)
        tol = 1e-9 * np.maximum(1.0, np.abs(F_end))
        assert np.all(v - lam * m <= F_end + tol)

    def test_any_slope_and_round_bounds_every_count(self):
        rng = np.random.default_rng(31)
        tight = 0
        for _ in range(300):
            kw = _random_segmentation(rng)
            cost, F = full_dp(kw["boundaries"], kw["cell_idx"], kw["K_max"],
                              kw["other_cell_ids"])
            F_end = F[:, -1]
            scale = float(np.abs(np.diff(F_end)).max(initial=1.0))
            for _ in range(4):
                t = int(rng.integers(1, len(F) + 1))
                lam = float(rng.choice([0.0, -1.0, 1.0])) * scale * float(rng.exponential())
                v = _dual_bound(F, cost, t, lam)
                self._assert_below(lam, v, F_end)
                # with no excess, the line runs through E(B)
                tight += v == pytest.approx(min(F_end[:t] + lam * np.arange(1, t + 1)))
        assert tight > 300

    @staticmethod
    def _record_lines(monkeypatch):
        """The (λ, v) of every dual line the solves compute from here on."""
        lines = []
        real = hist1d._dual_bound

        def recording(F, cost, t, lam):
            lines.append((lam, real(F, cost, t, lam)))
            return lines[-1][1]
        monkeypatch.setattr(hist1d, "_dual_bound", recording)
        return lines

    def test_lines_a_solve_computes_bound_its_kept_grid(self, monkeypatch):
        rng = np.random.default_rng(32)
        lines = self._record_lines(monkeypatch)
        n_lines = 0
        for _ in range(400):
            kw = _sparse_segmentation(rng) if rng.random() < 0.5 else _random_segmentation(rng)
            table = segment_table(kw["boundaries"], kw["cell_idx"], kw["K_max"])
            lines.clear()
            _solve(**kw)
            cost, F = full_dp(kw["boundaries"][table.pos], table.cell_idx, kw["K_max"],
                              kw["other_cell_ids"])
            # the floor, the data cost of all unit cells, and the dual lines
            for lam, v in [(0.0, float(np.trace(cost, offset=1)))] + lines:
                self._assert_below(lam, v, F[:, -1])
            n_lines += len(lines)
        assert n_lines > 100

    def test_dual_stops_a_network_sized_solve_early(self, monkeypatch):
        # 10,000 rows over 150 cells, 40 other cells: the floor lies far
        # below every count's data cost, so only the dual stops near m*
        rng = np.random.default_rng(8)
        n, B, n_other = 10_000, 150, 40
        other = rng.integers(0, n_other, size=n)
        x = rng.normal(other % 5, 1.0 + other % 3)
        boundaries = np.linspace(x.min(), x.max(), B + 1)
        cell_idx = np.clip(np.searchsorted(boundaries, x, side="right") - 1, 0, B - 1)
        kw = dict(n_total=n, boundaries=boundaries, cell_idx=cell_idx, K_max=47,
                  n_singletons=0, K_other=n_other, other_cell_ids=other)
        lines = self._record_lines(monkeypatch)
        res = _solve(**kw)
        cuts, total = full_segmentation(**kw)
        assert res.cut_indices.tolist() == cuts.tolist()
        assert res.cut_bits.hex() == total.hex()
        monkeypatch.setattr(hist1d, "_DUAL_TRIES", 0)
        floor_only = _solve(**kw)
        assert floor_only.cut_bits.hex() == total.hex()
        assert len(lines) >= 1
        assert (res.rounds, floor_only.rounds) == (15, 43)


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
    n_total = cell_idx.size + n_singletons * int(rng.integers(0, 20))
    rng.normal(0.0, 2000.0)  # unused: keeps the later cases' random streams
    return dict(n_total=n_total, boundaries=boundaries, cell_idx=cell_idx, K_max=max(1, K_max),
                n_singletons=n_singletons, K_other=n_other + int(rng.integers(0, 3)),
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
            assert res.cut_bits.hex() == total.hex()
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
                  K_other=1, other_cell_ids=np.zeros(40, dtype=np.int64))
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
            table = segment_table(grid, interval_index(col.unmasked, grid),
                                  int(rng.integers(1, len(grid) + 2)))
            inner = table.pos[1:-1]
            cuts = np.sort(rng.choice(inner, size=int(rng.integers(0, inner.size + 1)),
                                      replace=False))
            bs = BinSet(col.atoms, grid, cuts)
            assert np.array_equal(bs.n_singletons + table.intervals(cuts),
                                  assign_labels(col, bs)[~col.discrete_mask])

    def test_table_of_another_grid_or_budget_rejected(self):
        kw = dict(n_total=40, boundaries=np.arange(11.0), n_singletons=0, K_other=1,
                  other_cell_ids=np.zeros(40, dtype=np.int64))
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
        bs = first_recut(grid_start(col, candidate_cuts(col, 20), 5))
        assert bs.n_intervals == 1
        assert bs.cuts.size == 0

    def test_two_separated_clusters_isolate_the_gap(self):
        rng = np.random.default_rng(0)
        vals = np.concatenate([rng.uniform(0, 1, 100), rng.uniform(9, 10, 100)])
        col = detect_discrete_points(vals, t=5)
        cand = candidate_cuts(col, 20)
        bs = first_recut(grid_start(col, cand, 5))
        assert bs.n_intervals == 3  # dense, empty middle, dense
        assert _total_of(col, bs) == pytest.approx(exhaustive_best_total(col, cand, 5), abs=1e-9)
        lo_cut, hi_cut = cand[bs.cuts]
        assert 0.9 < lo_cut < 1.6 and 8.5 < hi_cut < 9.1

    def test_k_max_one_forces_single_bin(self):
        rng = np.random.default_rng(2)
        col = detect_discrete_points(rng.normal(size=400), t=5)
        bs = first_recut(grid_start(col, candidate_cuts(col, 30), 1))
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
            bs = first_recut(grid_start(col, cand, K_max))
            assert bs.n_intervals <= K_max
            dp = _total_of(col, bs)
            assert dp == pytest.approx(exhaustive_best_total(col, cand, K_max), abs=1e-9)
        # K_max >= B: the cost table gets a row for every count up to one
        # interval per grid cell, and the walk-back may start from the last
        for _ in range(6):
            col = detect_discrete_points(rng.exponential(size=int(rng.integers(30, 90))), t=5)
            cand = candidate_cuts(col, int(rng.integers(2, 8)))
            K_max = len(cand) - 1 + int(rng.integers(0, 3))
            bs = first_recut(grid_start(col, cand, K_max))
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
        assert first_recut(grid_start(col, grid, 2)).cuts.tolist() == [1]

    def test_never_worse_than_single_bin(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            col = detect_discrete_points(rng.exponential(size=200), t=5)
            cand = candidate_cuts(col, 25)
            best = first_recut(grid_start(col, cand, 6))
            single = first_recut(grid_start(col, cand, 1))
            assert _total_of(col, best) <= _total_of(col, single) + 1e-9

    def test_bin_count_grows_sublinearly(self):
        # light version of the sqrt-growth study (full sweep in acceptance)
        rng = np.random.default_rng(9)
        medians = []
        for n in (500, 2000):
            counts = []
            for _ in range(5):
                col = detect_discrete_points(rng.normal(size=n), t=5)
                counts.append(first_recut(start_column(col, FitConfig())).n_bins)
            medians.append(np.median(counts))
        assert medians[0] < medians[1] < math.sqrt(2000)
