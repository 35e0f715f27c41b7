from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histcmi import FitConfig, InputError, LabelingError
from histcmi import data_model
from histcmi.data_model import (
    BinSet,
    assign_labels,
    build_grid,
    count_cells,
    degenerate_width,
    detect_discrete_points,
)
from histcmi.hist1d import candidate_cuts
from histcmi.histmd import start_column

from oracles import interval_index, row_labels


class TestDetectDiscretePoints:
    def test_multiplicity_meets_threshold_exactly(self):
        col = detect_discrete_points([1.0, 1.0, 1.0, 1.0, 1.0, 2.3], t=5)
        assert col.discrete_mask.tolist() == [True] * 5 + [False]

    def test_all_distinct_is_purely_continuous(self):
        col = detect_discrete_points(np.linspace(0, 1, 50), t=5)
        assert not col.discrete_mask.any()

    def test_binomial_sample_fully_masked(self):
        # all four support points of Binomial(3, 0.2) occur >= 5 times for this seed
        rng = np.random.default_rng(0)
        vals = rng.binomial(3, 0.2, size=500).astype(float)
        _, counts = np.unique(vals, return_counts=True)
        assert counts.min() >= 5  # seed chosen so the rare point clears t
        col = detect_discrete_points(vals, t=5)
        assert col.discrete_mask.all()

    def test_mask_matches_multiplicity_oracle(self):
        rng = np.random.default_rng(8)
        vals = np.round(rng.normal(size=300), 1)
        col = detect_discrete_points(vals, t=4)
        for v, m in zip(vals, col.discrete_mask):
            assert m == (np.sum(vals == v) >= 4)

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            detect_discrete_points([1.0, np.nan], t=5)
        with pytest.raises(InputError):
            detect_discrete_points([1.0, np.inf], t=5)

    def test_rejects_bad_threshold_and_empty(self):
        with pytest.raises(InputError):
            detect_discrete_points([1.0], t=1)
        with pytest.raises(InputError):
            detect_discrete_points([], t=5)

    @pytest.mark.parametrize("t", [2.5, 3.0, True, "3", None])
    def test_non_integer_threshold_rejected(self, t):
        # 2.5 would act as 3 in the multiplicity comparison, and "3" would
        # fail the comparison with a bare TypeError
        with pytest.raises(InputError, match="t must be an integer"):
            detect_discrete_points([1.0, 1.0, 1.0, 2.0], t=t)

    def test_numpy_integer_threshold_accepted(self):
        col = detect_discrete_points([1.0, 1.0, 1.0, 2.0], t=np.int64(3))
        assert col.discrete_mask.tolist() == [True, True, True, False]

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=60),
           st.integers(min_value=2, max_value=6))
    def test_mask_monotone_in_threshold(self, ints, t):
        vals = np.asarray(ints, dtype=float)
        lo = detect_discrete_points(vals, t=t).discrete_mask
        hi = detect_discrete_points(vals, t=t + 1).discrete_mask
        assert np.all(~hi | lo)  # mask(t+1) is a subset of mask(t)


class TestBins:
    def test_binset_volumes_match_bins(self):
        col = detect_discrete_points([0.0] * 6 + [0.1, 0.4, 0.9, 1.3], t=5)
        bs = BinSet(col.atoms, np.array([0.1, 0.5, 0.7, 1.3]), np.array([1]))
        assert bs.volumes == pytest.approx([1.0, 0.4, 0.8])
        assert bs.boundaries.tolist() == [0.1, 0.5, 1.3]
        assert (bs.n_candidates, bs.n_intervals) == (2, 2)

    @pytest.mark.parametrize("cuts", [[0], [3], [1, 1], [2, 1], [1.0]],
                             ids=["first", "last", "repeated", "descending", "float"])
    def test_chosen_cuts_must_be_candidates(self, cuts):
        # only indices 1 and 2 name interior candidates of a 4-boundary grid
        col = detect_discrete_points([0.1, 0.4, 0.9], t=5)
        with pytest.raises(InputError):
            BinSet(col.atoms, np.array([0.1, 0.4, 0.6, 0.9]), np.array(cuts))

    def test_derived_arrays_are_read_only_and_computed_once(self):
        col = detect_discrete_points([0.0] * 6 + [0.1, 0.4, 0.9, 1.3], t=5)
        for bs in (BinSet(col.atoms, np.array([0.1, 0.5, 0.7, 1.3]), np.array([1])),
                   BinSet(col.atoms, np.empty(0))):
            assert bs.boundaries is bs.boundaries and bs.volumes is bs.volumes
            for arr in (bs.boundaries, bs.volumes):
                assert not arr.flags.writeable
            with pytest.raises(ValueError):
                bs.volumes[0] = 2.0
        for arr in (col.values, col.distinct, col.inverse, col.atom, col.discrete_mask):
            assert not arr.flags.writeable

    def test_degenerate_width_positive(self):
        for x in (0.0, 1.0, -3.4, 1e12, np.finfo(float).max, -np.finfo(float).max):
            assert 0 < degenerate_width(x) < np.inf


class TestAssignLabels:
    def _column(self):
        vals = np.array([0.0] * 5 + [0.2, 0.5, 0.5001, 0.8, 1.0])
        return detect_discrete_points(vals, t=5)

    def test_singleton_and_interval_assignment(self):
        col = self._column()
        bs = BinSet(col.atoms, np.array([0.2, 0.5, 1.0]), np.array([1]))
        labs = assign_labels(col, bs)
        assert labs[:5].tolist() == [0] * 5  # masked to singleton index
        # 0.2 -> first interval; 0.5 on the cut -> right cell; max 1.0 -> last (closed)
        assert labs[5:].tolist() == [1, 2, 2, 2, 2]

    def test_value_outside_bins_raises(self):
        col = self._column()
        bs = BinSet(col.atoms, np.array([0.2, 0.5, 1.0]), np.array([1]))
        other = detect_discrete_points([0.1, 0.3], t=5)
        with pytest.raises(LabelingError):
            assign_labels(other, bs)

    def test_masked_value_without_singleton_raises(self):
        col = self._column()
        bs = BinSet(np.array([9.0]), np.array([0.2, 1.0]))
        with pytest.raises(LabelingError):
            assign_labels(col, bs)

    def test_deterministic_and_permutation_equivariant(self):
        rng = np.random.default_rng(0)
        vals = np.concatenate([np.full(7, 2.0), rng.uniform(0, 1, 40)])
        rng.shuffle(vals)
        col = detect_discrete_points(vals, t=5)
        grid = np.array([col.unmasked.min(), 0.3, 0.6, col.unmasked.max()])
        bs = BinSet(col.atoms, grid, np.array([1, 2]))
        labs = assign_labels(col, bs)
        assert np.array_equal(labs, assign_labels(col, bs))  # idempotent
        perm = rng.permutation(len(vals))
        col_p = detect_discrete_points(vals[perm], t=5)
        assert np.array_equal(assign_labels(col_p, bs), labs[perm])


# value pools whose range float64 holds: subnormals about zero, each end of
# the float range, and ordinary values; a column draws from one of them
_FLOAT_MAX = float(np.finfo(np.float64).max)
_POOLS = (
    (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308),
    (1e308, 1.5e308, _FLOAT_MAX),
    (-_FLOAT_MAX, -1.5e308, -1e308),
    (-2.0, -0.5, 0.0, 0.25, 1.0, 3.0),
)


@st.composite
def _pooled_columns(draw):
    """(values, t, K_init, edges): atoms and ties from the pool, other values
    between its ends, and ascending edges that need not cover the values."""
    pool = draw(st.sampled_from(_POOLS))
    values = st.sampled_from(pool) | st.floats(min(pool), max(pool))
    vals = np.asarray(draw(st.lists(values, min_size=1, max_size=60)), dtype=np.float64)
    edges = np.unique(draw(st.lists(values, min_size=2, max_size=8)))
    return vals, draw(st.integers(2, 6)), draw(st.integers(1, 40)), edges


class TestSharedSort:
    """Column preparation reads the column's order from its one sort; each
    read equals the row-by-row search over the unsorted values."""

    @settings(max_examples=300, deadline=None)
    @given(_pooled_columns())
    def test_cells_and_labels_equal_the_row_searches(self, case):
        vals, t, K_init, edges = case
        col = detect_discrete_points(vals, t=t)
        grid = candidate_cuts(col, K_init)
        if len(edges) >= 2:
            assert np.array_equal(col.interval_index(edges), interval_index(col.unmasked, edges))
        if len(grid):
            assert np.array_equal(col.interval_index(grid), interval_index(col.unmasked, grid))
        for cuts in (np.empty(0, dtype=np.int64), np.arange(1, len(grid) - 1, 2)):
            bs = BinSet(col.atoms, grid, cuts)
            assert np.array_equal(assign_labels(col, bs), row_labels(col, bs))
        start = start_column(col, FitConfig(t=t))
        assert np.array_equal(start.labels, row_labels(col, start.binset))

    def test_single_distinct_value(self):
        for v in (0.0, 5e-324, -_FLOAT_MAX, _FLOAT_MAX):
            for n in (1, 3):
                col = detect_discrete_points([v] * n, t=5)
                grid = candidate_cuts(col, 4)
                assert np.array_equal(col.interval_index(grid), np.zeros(n, dtype=np.intp))
                bs = BinSet(col.atoms, grid)
                assert np.array_equal(assign_labels(col, bs), row_labels(col, bs))


class TestGrid:
    @staticmethod
    def _discrete_binset(n_bins):
        return BinSet(np.arange(n_bins, dtype=float), np.empty(0))

    def test_four_distinct_cells(self):
        labs = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        grid = build_grid(labs, [self._discrete_binset(2)] * 2)
        assert grid.K == 4
        assert grid.cells.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert grid.counts.tolist() == [1, 1, 1, 1]

    def test_single_dimension_single_cell(self):
        grid = build_grid(np.zeros((9, 1), dtype=int), [self._discrete_binset(1)])
        assert grid.cells.tolist() == [[0]]
        assert grid.counts.tolist() == [9]

    def test_K_is_product_of_bin_counts(self):
        labs = np.zeros((5, 3), dtype=int)
        bins = [self._discrete_binset(k) for k in (2, 3, 4)]
        assert build_grid(labs, bins).K == 24

    def test_mismatched_lengths_rejected(self):
        # the label matrix needs exactly one column per bin set
        for labels in (np.zeros((4, 3), dtype=int), np.zeros((4, 1), dtype=int),
                       np.zeros(4, dtype=int)):
            with pytest.raises(InputError):
                build_grid(labels, [self._discrete_binset(1)] * 2)

    def test_cells_do_not_alias_the_label_matrix(self):
        # distinct rows in cell order: the one case where no gather is needed
        labels = np.array([[0, 1], [1, 0]])
        grid = build_grid(labels, [self._discrete_binset(2)] * 2)
        labels[:] = 1
        assert grid.cells.tolist() == [[0, 1], [1, 0]]

    @settings(max_examples=25)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), min_size=1, max_size=50))
    def test_count_conservation(self, rows):
        a = np.array([r[0] for r in rows])
        b = np.array([r[1] for r in rows])
        grid = build_grid(np.column_stack([a, b]), [self._discrete_binset(3), self._discrete_binset(4)])
        assert grid.counts.sum() == len(rows)
        assert grid.K == 12

    def test_float_labels_rejected_not_truncated(self):
        with pytest.raises(InputError, match="integers"):
            build_grid(np.array([[0.7], [1.2]]), [self._discrete_binset(2)])

    def test_bool_labels_count_as_integers(self):
        grid = build_grid(np.array([[True], [False], [True]]), [self._discrete_binset(2)])
        assert grid.cells.dtype == np.int64
        assert grid.cells.tolist() == [[0], [1]]
        assert grid.counts.tolist() == [1, 2]

    def test_label_outside_its_bins_rejected(self):
        with pytest.raises(InputError):
            build_grid(np.array([[0], [2]]), [self._discrete_binset(2)])

    def test_cell_ids_past_int64_stay_distinct(self):
        # 47**12 > 2**63: the first row is 2**64 in base 47 (most significant
        # digit first), which a wrapping encoding would merge with the zero row
        wrap = [7, 21, 33, 4, 41, 43, 23, 16, 26, 40, 3, 25]
        rows = np.array([wrap, [0] * 12, [46] * 12, wrap])
        grid = build_grid(rows, [self._discrete_binset(47)] * 12)
        assert grid.cells.tolist() == [[0] * 12, wrap, [46] * 12]
        assert grid.counts.tolist() == [1, 2, 1]
        assert grid.counts.sum() == grid.n == 4

    @staticmethod
    @st.composite
    def _label_matrices(draw):
        # build_grid reads only n_bins, so bin counts can reach 2**40 with no
        # bins behind them and products past 2**63 are common
        radices = draw(st.lists(st.integers(1, 3) | st.integers(1, 2 ** 40), min_size=1, max_size=6))
        n = draw(st.integers(1, 40))
        # small labels recur, so rows collide; large ones reach every radix
        cols = [draw(st.lists(st.integers(0, min(r - 1, 2)) | st.integers(0, r - 1),
                              min_size=n, max_size=n)) for r in radices]
        return radices, np.array(cols, dtype=np.int64).T

    @settings(max_examples=100, deadline=None)
    @given(_label_matrices())
    def test_matches_row_sort_reference(self, case):
        radices, mat = case
        grid = build_grid(mat, [SimpleNamespace(n_bins=r) for r in radices])
        cells, counts = np.unique(mat, axis=0, return_counts=True)
        assert np.array_equal(grid.cells, cells)
        assert np.array_equal(grid.counts, counts)


def _assert_same_as_np_unique(labels, radices):
    got = count_cells(labels, radices)
    want = np.unique(labels, axis=0, return_inverse=True, return_counts=True)[1:]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


class TestCountCells:
    @staticmethod
    @st.composite
    def _ids(draw):
        # one column of ids: a span at or under the counting bound, or a
        # largest id past it
        counted = draw(st.booleans())
        n = draw(st.integers(0 if counted else 1, 200))
        bound = data_model._COUNT_SPAN * n
        high = max(bound - 1, 0) if counted else 2 ** 62
        ids = draw(st.lists(st.integers(0, min(high, 3)) | st.integers(0, high),
                            min_size=n, max_size=n))
        if not counted and n:
            ids[draw(st.integers(0, n - 1))] = draw(st.integers(bound, 2 ** 62))
        return np.array(ids, dtype=np.int64), counted

    @settings(max_examples=300, deadline=None)
    @given(_ids())
    def test_equals_np_unique_on_both_sides_of_the_span_bound(self, case):
        ids, counted = case
        assert (int(ids.max(initial=-1)) + 1 <= data_model._COUNT_SPAN * len(ids)) == counted
        _assert_same_as_np_unique(ids[:, None], [2 ** 62 + 1])

    @pytest.mark.parametrize("ids", [
        np.empty(0, dtype=np.int64),                            # no rows
        np.zeros(50, dtype=np.int64),                           # one cell, counted
        np.full(50, 2 ** 62, dtype=np.int64),                   # one cell, sorted
        np.random.default_rng(0).permutation(100),              # all distinct, counted
        np.random.default_rng(0).permutation(100) * 3,          # all distinct, sorted
        np.array([0, 1, 2, 4 * data_model._COUNT_SPAN - 1]),    # span at the bound
        np.array([0, 1, 2, 4 * data_model._COUNT_SPAN]),        # span one past it
    ])
    def test_edge_cases_equal_np_unique(self, ids):
        _assert_same_as_np_unique(ids.astype(np.int64)[:, None], [2 ** 62 + 1])

    @settings(max_examples=100, deadline=None)
    @given(TestGrid._label_matrices())
    def test_matrices_equal_np_unique_past_int64(self, case):
        radices, mat = case
        _assert_same_as_np_unique(mat, radices)

    def test_ids_past_int64_are_compacted_once(self, monkeypatch):
        # 47**12 > 2**63: the running ids are ranked before the last column,
        # then ranked once more for the cells
        wrap = [7, 21, 33, 4, 41, 43, 23, 16, 26, 40, 3, 25]
        rows = np.array([wrap, [0] * 12, [46] * 12, wrap])
        calls = []
        rank = data_model._rank
        monkeypatch.setattr(data_model, "_rank", lambda ids: calls.append(ids) or rank(ids))
        _assert_same_as_np_unique(rows, [47] * 12)
        assert len(calls) == 2

    def test_cells_past_int64_after_compaction_are_refused(self):
        # two distinct first labels rank to ids 0 and 1, and 2 * 2**62 ids
        # still fit; three need 3 * 2**62, past int64
        radices = [2 ** 62, 2 ** 62]
        cell, counts = count_cells(np.array([[0, 0], [1, 1]]), radices)
        assert cell.tolist() == [0, 1]
        assert counts.tolist() == [1, 1]
        with pytest.raises(InputError, match="too many distinct cells to encode in int64"):
            count_cells(np.array([[0, 0], [1, 1], [2, 2]]), radices)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, object])
    def test_non_integer_labels_rejected(self, dtype):
        with pytest.raises(InputError, match="integers"):
            count_cells(np.array([[0, 1], [1, 0]], dtype=dtype), [2, 2])

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int32, np.int64])
    def test_integer_and_bool_labels_accepted(self, dtype):
        cell, counts = count_cells(np.array([[0, 1], [1, 0], [0, 1]], dtype=dtype), [2, 2])
        assert cell.tolist() == [0, 1, 0]
        assert counts.tolist() == [2, 1]

    def test_uint64_labels_near_2_to_60_stay_distinct(self):
        # int64 ids plus uint64 labels would promote to float64, where
        # 2**60 and 2**60 + 1 are one value
        labels = np.array([[2 ** 60 + 1], [2 ** 60], [2 ** 60 + 1]], dtype=np.uint64)
        cell, counts = count_cells(labels, [2 ** 60 + 2])
        assert cell.tolist() == [1, 0, 1]
        assert counts.tolist() == [1, 2]
