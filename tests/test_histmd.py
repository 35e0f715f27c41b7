import math

import numpy as np
import pytest

from histcmi import (
    BinSet,
    FitConfig,
    InputError,
    assign_labels,
    build_grid,
    candidate_cuts,
    detect_discrete_points,
    greedy_fit,
    init_discretization,
    optimal_histogram_1d,
    refine_dimension,
    start_column,
    total_score,
)
from histcmi import histmd

from oracles import exhaustive_best_total


def _starts(cols, cfg):
    return [start_column(c, cfg) for c in cols]


def _init(cols, cfg):
    return init_discretization(_starts(cols, cfg), cfg)


def _fit(cols, cfg):
    return greedy_fit(_starts(cols, cfg), cfg)


def _state(cols, binsets, labels, K_max):
    tables = [histmd.column_table(c, b.grid, K_max) for c, b in zip(cols, binsets)]
    return histmd.FitState(cols, tables, K_max, binsets, labels)


def _refuse_work(*args):
    raise AssertionError("a rejected fit built a grid")


def _refine(j, cols, binsets, K_max):
    labels = np.column_stack([assign_labels(c, b) for c, b in zip(cols, binsets)])
    return refine_dimension(j, _state(cols, binsets, labels, K_max))


class TestFitConfig:
    def test_defaults(self):
        cfg = FitConfig()
        assert (cfg.i_max, cfg.t) == (5, 5)
        assert cfg.k_init(1000) == 139
        assert cfg.k_max(1000) == 35

    def test_validation(self):
        with pytest.raises(InputError):
            FitConfig(i_max=0)
        with pytest.raises(InputError):
            FitConfig(k_init_factor=2.0, k_max_factor=5.0)
        for k_init, k_max in [(math.nan, 5.0), (math.inf, 5.0), (20.0, math.nan),
                              (20.0, math.inf), (-3.0, -5.0), (0.0, 0.0), (20.0, 0.0)]:
            with pytest.raises(InputError):
                FitConfig(k_init_factor=k_init, k_max_factor=k_max)

    @pytest.mark.parametrize("field", ["i_max", "t"])
    @pytest.mark.parametrize("value", [2.5, 5.0, True, False, "5", None])
    def test_non_integer_counts_rejected_at_construction(self, field, value):
        # a float would fail deep in the fit or be silently rounded as a
        # threshold, and True would silently mean one iteration
        with pytest.raises(InputError, match=f"{field} must be an integer"):
            FitConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = FitConfig(i_max=np.int64(3), t=np.int32(4))
        assert (cfg.i_max, cfg.t) == (3, 4)


class TestInitDiscretization:
    def test_two_continuous_dims_single_cell(self):
        rng = np.random.default_rng(0)
        cols = [detect_discrete_points(rng.normal(size=100), 5) for _ in range(2)]
        grid, binsets, _ = _init(cols, FitConfig())
        assert grid.K == 1
        assert all(b.n_intervals == 1 and b.n_singletons == 0 for b in binsets)

    def test_atoms_plus_remainder(self):
        vals = np.concatenate([np.repeat([1.0, 2.0, 3.0], 6), np.linspace(0, 5, 30)])
        col = detect_discrete_points(vals, 5)
        _, binsets, _ = _init([col], FitConfig())
        assert binsets[0].n_singletons == 3
        assert binsets[0].n_intervals == 1
        assert binsets[0].n_bins == 4

    def test_purely_discrete_dim(self):
        col = detect_discrete_points(np.repeat([0.0, 1.0, 2.0], 10), 5)
        grid, binsets, labels = _init([col], FitConfig())
        assert binsets[0].n_bins == 3
        assert binsets[0].n_intervals == 0
        assert grid.K == 3
        assert labels.shape == (30, 1)
        assert np.array_equal(labels[:, 0], assign_labels(col, binsets[0]))

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            init_discretization([], FitConfig())

    @pytest.mark.parametrize("other", [FitConfig(t=6), FitConfig(k_init_factor=25.0),
                                       FitConfig(k_max_factor=4.0)])
    def test_start_of_another_config_rejected_before_any_work(self, other, monkeypatch):
        col = detect_discrete_points(np.random.default_rng(0).normal(size=100), 5)
        starts = _starts([col, col], FitConfig())
        monkeypatch.setattr(histmd, "build_grid", _refuse_work)
        with pytest.raises(InputError, match="cannot be fitted under"):
            greedy_fit(starts, other)

    def test_starts_of_another_length_rejected_before_any_work(self, monkeypatch):
        rng = np.random.default_rng(0)
        cols = [detect_discrete_points(rng.normal(size=n), 5) for n in (100, 101)]
        starts = [start_column(c, FitConfig()) for c in cols]  # each for its own n
        monkeypatch.setattr(histmd, "build_grid", _refuse_work)
        with pytest.raises(InputError, match="disagree on sample size"):
            greedy_fit(starts, FitConfig())


class TestRefineDimension:
    def test_single_dim_equals_unconditional_dp(self):
        rng = np.random.default_rng(4)
        col = detect_discrete_points(rng.normal(size=600), 5)
        cfg = FitConfig()
        _, binsets, _ = _init([col], cfg)
        res = _refine(0, [col], binsets, cfg.k_max(600))
        unc = optimal_histogram_1d(col, candidate_cuts(col, cfg.k_init(600)), cfg.k_max(600))
        assert np.array_equal(res.binset.cuts, unc.cuts)
        labs = assign_labels(col, unc)
        assert res.total_bits == pytest.approx(
            total_score(build_grid(labs[:, None], [unc])), abs=1e-6)

    def test_independent_dims_same_cuts_at_fixed_budget(self):
        # conditioning on an independently-cut dimension leaves the per-budget
        # optimizer unchanged (the shared regret term can still shift *how
        # many* bins win, so the interval budget is pinned here)
        n = 800
        rng = np.random.default_rng(0)
        cols = [detect_discrete_points(rng.normal(size=n), 5) for _ in range(2)]
        cfg = FitConfig(k_max_factor=3 / math.log(n))
        assert cfg.k_max(n) == 3
        fit1 = _fit([cols[1]], cfg)
        _, binsets, _ = _init(cols, cfg)
        binsets = list(binsets)
        binsets[1] = fit1.grid.dims[0]
        res = _refine(0, cols, binsets, cfg.k_max(n))
        unc = optimal_histogram_1d(cols[0], candidate_cuts(cols[0], cfg.k_init(n)), 3)
        assert np.array_equal(res.binset.cuts, unc.cuts)

    def test_conditioning_beats_unconditional_cuts(self):
        # Y clusters at sign(X): refining Y against X's cells must score
        # strictly below Y's unconditional cuts evaluated in the same joint
        n = 1000
        rng = np.random.default_rng(0)
        x = rng.normal(size=n)
        y = np.sign(x) + 0.3 * rng.normal(size=n)
        cols = [detect_discrete_points(x, 5), detect_discrete_points(y, 5)]
        cfg = FitConfig()
        _, binsets, _ = _init(cols, cfg)
        binsets = list(binsets)
        gridx = binsets[0].grid
        cut0 = 1 + np.argmin(np.abs(gridx[1:-1]))  # the interior candidate nearest 0
        binsets[0] = BinSet(cols[0].atoms, gridx, np.array([cut0]))
        res = _refine(1, cols, binsets, cfg.k_max(n))

        unc = optimal_histogram_1d(cols[1], candidate_cuts(cols[1], cfg.k_init(n)),
                                   cfg.k_max(n))
        alt = list(binsets)
        alt[1] = unc
        labs = np.column_stack([assign_labels(c, b) for c, b in zip(cols, alt)])
        s_unc = total_score(build_grid(labs, alt))
        assert res.total_bits < s_unc - 1e-9

    def test_conditional_dp_matches_exhaustive_search(self):
        # dimension 0 is re-cut against the fixed cells of dimension 1, which is
        # continuous with chosen cuts, purely discrete, or mixed; then dimension
        # 1 against two fixed dimensions, one on each side of it
        rng = np.random.default_rng(8)
        cfg = FitConfig(k_init_factor=2.0, k_max_factor=0.8)

        def check(j, cols, binsets):
            n_total = cols[j].n
            cand = candidate_cuts(cols[j], cfg.k_init(n_total))
            assert len(cand) - 2 <= 10
            res = _refine(j, cols, binsets, cfg.k_max(n_total))
            others = [(c, b) for d, (c, b) in enumerate(zip(cols, binsets)) if d != j]
            best = exhaustive_best_total(cols[j], cand, cfg.k_max(n_total), others=others)
            assert res.total_bits == pytest.approx(best, abs=1e-9)
            chosen = list(binsets)
            chosen[j] = res.binset
            labs = np.column_stack([assign_labels(c, b) for c, b in zip(cols, chosen)])
            assert total_score(build_grid(labs, chosen)) == pytest.approx(
                res.total_bits, abs=1e-9)

        def mixed_x():
            n = int(rng.integers(50, 120))
            return np.concatenate([rng.normal(size=n), np.full(int(rng.integers(0, 10)), 0.25)])

        for trial in range(6):
            x = mixed_x()
            noise = rng.normal(size=len(x))
            y = [x + noise, rng.integers(0, 3, len(x)).astype(float),
                 np.where(noise > 0.5, 2.0, x + noise)][trial % 3]
            cols = [detect_discrete_points(x, 5), detect_discrete_points(y, 5)]
            _, binsets, _ = _init(cols, cfg)
            if binsets[1].n_intervals:
                binsets[1] = BinSet(cols[1].atoms, candidate_cuts(cols[1], 6), np.array([2, 4]))
            check(0, cols, binsets)

        for trial in range(3):
            x = mixed_x()
            noise = rng.normal(size=len(x))
            cols = [detect_discrete_points(v, 5)
                    for v in (x + noise, x, np.where(noise > 0.5, 2.0, x - noise))]
            _, binsets, _ = _init(cols, cfg)
            binsets[0] = BinSet(cols[0].atoms, candidate_cuts(cols[0], 6), np.array([2, 4]))
            binsets[2] = BinSet(cols[2].atoms, candidate_cuts(cols[2], 5), np.array([3]))
            check(1, cols, binsets)

    def test_degenerate_dimension_returned_unchanged(self):
        # purely discrete, and one continuous value: no candidate cut either
        # way, so the best of no re-cuts is +inf and never accepted
        col_cont = detect_discrete_points(np.random.default_rng(1).normal(size=40), 5)
        cfg = FitConfig()
        for vals in (np.repeat([0.0, 1.0], 20), np.append(np.repeat([0.0, 1.0], 19), [0.5, 0.5])):
            col = detect_discrete_points(vals, 5)
            _, binsets, _ = _init([col, col_cont], cfg)
            assert binsets[0].n_candidates == 0
            res = _refine(0, [col, col_cont], binsets, cfg.k_max(40))
            assert res.binset is binsets[0]
            assert res.total_bits == math.inf
            assert res.ops == 0

    def test_1d_histogram_builds_and_scores_no_grid(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("optimal_histogram_1d must not build or score a grid")

        monkeypatch.setattr(histmd, "build_grid", refuse)
        monkeypatch.setattr(histmd, "total_score", refuse)
        col = detect_discrete_points(np.random.default_rng(9).normal(size=300), 5)
        bs = optimal_histogram_1d(col, candidate_cuts(col, 40), 8)
        assert bs.cuts.size > 0

    def test_recut_shares_grid_and_singletons(self):
        rng = np.random.default_rng(12)
        col = detect_discrete_points(np.append(np.repeat([0.0, 3.0], 8), rng.normal(size=300)), 5)
        cfg = FitConfig()
        _, binsets, _ = _init([col], cfg)
        res = _refine(0, [col], binsets, cfg.k_max(col.n))
        assert res.binset.cuts.size > 0
        assert res.binset.grid is binsets[0].grid
        assert res.binset.singletons is binsets[0].singletons

    def test_ops_scale_linearly_with_conditioning_cells(self):
        # saturated discrete companions: doubling their joint domain doubles
        # the segment-cost work the refinement touches
        rng = np.random.default_rng(3)
        n = 4000
        x = rng.normal(size=n)
        cfg = FitConfig()
        ops = {}
        for m in (2, 4):
            z = rng.integers(0, m, size=n).astype(float)
            cols = [detect_discrete_points(x, 5), detect_discrete_points(z, 5)]
            _, binsets, _ = _init(cols, cfg)
            ops[m] = _refine(0, cols, binsets, cfg.k_max(n)).ops
        assert ops[4] == 2 * ops[2]


class TestGreedyFit:
    def test_purely_discrete_converges_immediately(self):
        rng = np.random.default_rng(0)
        cols = [detect_discrete_points(rng.integers(0, 3, 60).astype(float), 5)
                for _ in range(2)]
        fit = _fit(cols, FitConfig())
        assert fit.trace.records == []
        assert fit.trace.converged

    def test_imax_one_refines_at_most_one_dimension(self):
        rng = np.random.default_rng(1)
        cols = [detect_discrete_points(rng.normal(size=300), 5) for _ in range(3)]
        fit = _fit(cols, FitConfig(i_max=1))
        assert len(fit.trace.records) <= 1

    def test_score_never_increases(self):
        rng = np.random.default_rng(2)
        cols = [detect_discrete_points(rng.uniform(0, 1, 400), 5) for _ in range(2)]
        fit = _fit(cols, FitConfig())
        assert fit.trace.final_score <= fit.trace.init_score + 1e-6

    def test_accepted_scores_strictly_decrease(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=800)
        y = x + 0.2 * rng.normal(size=800)
        cols = [detect_discrete_points(x, 5), detect_discrete_points(y, 5)]
        fit = _fit(cols, FitConfig())
        scores = [fit.trace.init_score] + [r.score_after for r in fit.trace.records]
        assert all(b < a for a, b in zip(scores, scores[1:]))
        for before, rec in zip(scores, fit.trace.records):
            assert rec.score_before == before

    def test_terminates_within_imax(self):
        rng = np.random.default_rng(4)
        cols = [detect_discrete_points(rng.normal(size=500), 5) for _ in range(3)]
        fit = _fit(cols, FitConfig(i_max=2))
        assert len(fit.trace.records) <= 2

    def test_rebuilt_grid_reproduces_counts(self):
        rng = np.random.default_rng(5)
        vals = [np.concatenate([np.repeat(1.0, 30), rng.normal(size=300)]),
                rng.exponential(size=330)]
        cols = [detect_discrete_points(v, 5) for v in vals]
        fit = _fit(cols, FitConfig())
        rebuilt = build_grid(np.column_stack(
            [assign_labels(c, b) for c, b in zip(cols, fit.grid.dims)]), list(fit.grid.dims))
        assert np.array_equal(rebuilt.cells, fit.grid.cells)
        assert np.array_equal(rebuilt.counts, fit.grid.counts)
        assert rebuilt.K == fit.grid.K

    @pytest.mark.parametrize("converged", [False, True])
    def test_no_round_recuts_the_dimension_it_just_accepted(self, monkeypatch, converged):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200)
        if converged:
            # y clusters at sign(x), z is noise: y and x are cut, then no gain
            vals = (x, np.where(x > 0, 1.0, 0.0) + rng.uniform(0, 0.5, 200),
                    rng.uniform(size=200))
            config = FitConfig()
        else:
            # y = x + noise: both keep gaining past the cap of 3 rounds
            vals, config = (x, x + 0.3 * rng.normal(size=200)), FitConfig(i_max=3)
        cols = [detect_discrete_points(v, 5) for v in vals]
        calls = []
        refine = histmd.refine_dimension

        def counting(j, *args):
            calls.append(j)
            return refine(j, *args)

        monkeypatch.setattr(histmd, "refine_dimension", counting)
        fit = _fit(cols, config)
        k, records = len(cols), fit.trace.records
        assert fit.trace.converged == converged and len(records) >= 2
        rounds = len(records) + 1 if converged else config.i_max
        assert converged or len(records) == config.i_max
        assert len(calls) == k + (k - 1) * (rounds - 1)
        assert calls == list(range(k)) + [d for rec in records[:rounds - 1]
                                          for d in range(k) if d != rec.dim]
        # what the reuse rests on: the last accepted dimension, re-cut now,
        # gives back its own cuts at the score the fit ended on
        j = records[-1].dim
        again = refine(j, _state(cols, list(fit.grid.dims), fit.labels.astype(np.int64),
                                 config.k_max(cols[0].n)))
        assert again.binset.cuts.tolist() == fit.grid.dims[j].cuts.tolist()
        assert again.total_bits == pytest.approx(records[-1].score_after, abs=1e-6)

    def test_one_table_per_prepared_column_none_inside_a_fit(self, monkeypatch):
        # tables depend on the column and the config alone: preparing a column
        # builds its one table, and no fit, round or re-cut builds another
        rng = np.random.default_rng(7)
        x = rng.normal(size=300)
        cols = [detect_discrete_points(v, 5)
                for v in (x, x + 0.3 * rng.normal(size=300), np.sign(x) + rng.uniform(size=300))]
        built = []
        real = histmd.segment_table

        def counting(*args):
            built.append(1)
            return real(*args)

        monkeypatch.setattr(histmd, "segment_table", counting)
        starts = _starts(cols, FitConfig())
        assert len(built) == 3
        rounds = set()
        for k in (2, 3):
            for i_max in (1, 3, 5):  # i_max is no part of a start
                fit = greedy_fit(starts[:k], FitConfig(i_max=i_max))
                rounds.add(len(fit.trace.records))
        assert len(built) == 3
        assert len(rounds) >= 3
        for c, start in zip(cols, starts):
            assert not start.labels.flags.writeable
            assert np.array_equal(start.labels, assign_labels(c, start.binset))

    def test_labeling_matches_binsets(self):
        rng = np.random.default_rng(6)
        cols = [detect_discrete_points(rng.normal(size=200), 5) for _ in range(2)]
        fit = _fit(cols, FitConfig())
        for j, (c, b) in enumerate(zip(cols, fit.grid.dims)):
            assert np.array_equal(fit.labels[:, j], assign_labels(c, b))
        assert fit.labels.dtype == np.min_scalar_type(fit.labels.max())
        assert not fit.labels.flags.writeable
