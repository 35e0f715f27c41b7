import math

import numpy as np
import pytest

from histcmi import (
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
    total_score,
)
from histcmi.data_model import binset_from_cuts
from histcmi.histmd import FitState

from oracles import exhaustive_best_total


def _state(cols, binsets, config=None):
    labels = np.column_stack([assign_labels(c, b) for c, b in zip(cols, binsets)])
    total = total_score(build_grid([labels[:, j] for j in range(len(cols))], binsets),
                        binsets).total
    return FitState(columns=list(cols), binsets=list(binsets), labels=labels,
                    total_bits=total)


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


class TestInitDiscretization:
    def test_two_continuous_dims_single_cell(self):
        rng = np.random.default_rng(0)
        cols = [detect_discrete_points(rng.normal(size=100), 5) for _ in range(2)]
        grid, binsets, _ = init_discretization(cols, FitConfig())
        assert grid.K == 1
        assert all(b.n_intervals == 1 and b.n_singletons == 0 for b in binsets)

    def test_atoms_plus_remainder(self):
        vals = np.concatenate([np.repeat([1.0, 2.0, 3.0], 6), np.linspace(0, 5, 30)])
        col = detect_discrete_points(vals, 5)
        _, binsets, _ = init_discretization([col], FitConfig())
        assert binsets[0].n_singletons == 3
        assert binsets[0].n_intervals == 1
        assert binsets[0].n_bins == 4

    def test_purely_discrete_dim(self):
        col = detect_discrete_points(np.repeat([0.0, 1.0, 2.0], 10), 5)
        grid, binsets, labels = init_discretization([col], FitConfig())
        assert binsets[0].n_bins == 3
        assert binsets[0].n_intervals == 0
        assert grid.K == 3
        assert labels.shape == (30, 1)
        assert np.array_equal(labels[:, 0], assign_labels(col, binsets[0]))

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            init_discretization([], FitConfig())


class TestRefineDimension:
    def test_single_dim_equals_unconditional_dp(self):
        rng = np.random.default_rng(4)
        col = detect_discrete_points(rng.normal(size=600), 5)
        cfg = FitConfig()
        _, binsets, _ = init_discretization([col], cfg)
        res = refine_dimension(0, _state([col], binsets, cfg), cfg)
        unc = optimal_histogram_1d(col, candidate_cuts(col, cfg.k_init(600)), cfg.k_max(600))
        assert np.array_equal(res.binset.chosen_cuts, unc.chosen_cuts)
        labs = assign_labels(col, unc)
        assert res.total_bits == pytest.approx(
            total_score(build_grid([labs], [unc]), [unc]).total, abs=1e-6)

    def test_independent_dims_same_cuts_at_fixed_budget(self):
        # conditioning on an independently-cut dimension leaves the per-budget
        # optimizer unchanged (the shared regret term can still shift *how
        # many* bins win, so the interval budget is pinned here)
        n = 800
        rng = np.random.default_rng(0)
        cols = [detect_discrete_points(rng.normal(size=n), 5) for _ in range(2)]
        cfg = FitConfig(k_max_factor=3 / math.log(n))
        assert cfg.k_max(n) == 3
        fit1 = greedy_fit([cols[1]], cfg)
        _, binsets, _ = init_discretization(cols, cfg)
        binsets = list(binsets)
        binsets[1] = fit1.grid.dims[0]
        res = refine_dimension(0, _state(cols, binsets, cfg), cfg)
        unc = optimal_histogram_1d(cols[0], candidate_cuts(cols[0], cfg.k_init(n)), 3)
        assert np.array_equal(res.binset.chosen_cuts, unc.chosen_cuts)

    def test_conditioning_beats_unconditional_cuts(self):
        # Y clusters at sign(X): refining Y against X's cells must score
        # strictly below Y's unconditional cuts evaluated in the same joint
        n = 1000
        rng = np.random.default_rng(0)
        x = rng.normal(size=n)
        y = np.sign(x) + 0.3 * rng.normal(size=n)
        cols = [detect_discrete_points(x, 5), detect_discrete_points(y, 5)]
        cfg = FitConfig()
        _, binsets, _ = init_discretization(cols, cfg)
        binsets = list(binsets)
        candx = binsets[0].candidate_cuts
        cut0 = candx[np.argmin(np.abs(candx))]
        binsets[0] = binset_from_cuts(cols[0], float(binsets[0].boundaries[0]),
                                      float(binsets[0].boundaries[-1]), candx,
                                      np.array([cut0]))
        res = refine_dimension(1, _state(cols, binsets, cfg), cfg)

        unc = optimal_histogram_1d(cols[1], candidate_cuts(cols[1], cfg.k_init(n)),
                                   cfg.k_max(n))
        alt = list(binsets)
        alt[1] = unc
        labs = np.column_stack([assign_labels(c, b) for c, b in zip(cols, alt)])
        s_unc = total_score(build_grid([labs[:, 0], labs[:, 1]], alt), alt).total
        assert res.total_bits < s_unc - 1e-9

    def test_conditional_dp_matches_exhaustive_search(self):
        # dimension 0 is re-cut against the fixed cells of dimension 1, which is
        # continuous with chosen cuts, purely discrete, or mixed
        rng = np.random.default_rng(8)
        cfg = FitConfig(k_init_factor=2.0, k_max_factor=0.8)
        for trial in range(6):
            n = int(rng.integers(50, 120))
            x = np.concatenate([rng.normal(size=n), np.full(int(rng.integers(0, 10)), 0.25)])
            noise = rng.normal(size=len(x))
            y = [x + noise, rng.integers(0, 3, len(x)).astype(float),
                 np.where(noise > 0.5, 2.0, x + noise)][trial % 3]
            cols = [detect_discrete_points(x, 5), detect_discrete_points(y, 5)]
            _, binsets, _ = init_discretization(cols, cfg)
            if binsets[1].n_intervals:
                cand_y = candidate_cuts(cols[1], 6)
                binsets[1] = binset_from_cuts(cols[1], float(cand_y.boundaries[0]),
                                              float(cand_y.boundaries[-1]), cand_y.interior,
                                              cand_y.interior[[1, 3]])
            n_total = cols[0].n
            cand_x = candidate_cuts(cols[0], cfg.k_init(n_total))
            assert len(cand_x.interior) <= 10
            res = refine_dimension(0, _state(cols, binsets, cfg), cfg)
            best = exhaustive_best_total(cols[0], cand_x, cfg.k_max(n_total),
                                         others=[(cols[1], binsets[1])])
            assert res.total_bits == pytest.approx(best, abs=1e-9)
            chosen = [res.binset, binsets[1]]
            labs = [assign_labels(c, b) for c, b in zip(cols, chosen)]
            assert total_score(build_grid(labs, chosen), chosen).total == pytest.approx(
                res.total_bits, abs=1e-9)

    def test_degenerate_dimension_returned_unchanged(self):
        col_disc = detect_discrete_points(np.repeat([0.0, 1.0], 20), 5)
        col_cont = detect_discrete_points(np.random.default_rng(1).normal(size=40), 5)
        cfg = FitConfig()
        _, binsets, _ = init_discretization([col_disc, col_cont], cfg)
        state = _state([col_disc, col_cont], binsets, cfg)
        res = refine_dimension(0, state, cfg)
        assert res.binset is binsets[0]
        assert res.total_bits == state.total_bits
        assert res.ops == 0

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
            _, binsets, _ = init_discretization(cols, cfg)
            ops[m] = refine_dimension(0, _state(cols, binsets, cfg), cfg).ops
        assert ops[4] == 2 * ops[2]


class TestGreedyFit:
    def test_purely_discrete_converges_immediately(self):
        rng = np.random.default_rng(0)
        cols = [detect_discrete_points(rng.integers(0, 3, 60).astype(float), 5)
                for _ in range(2)]
        fit = greedy_fit(cols, FitConfig())
        assert fit.trace.records == []
        assert fit.trace.converged

    def test_imax_one_refines_at_most_one_dimension(self):
        rng = np.random.default_rng(1)
        cols = [detect_discrete_points(rng.normal(size=300), 5) for _ in range(3)]
        fit = greedy_fit(cols, FitConfig(i_max=1))
        assert len(fit.trace.records) <= 1

    def test_score_never_increases(self):
        rng = np.random.default_rng(2)
        cols = [detect_discrete_points(rng.uniform(0, 1, 400), 5) for _ in range(2)]
        fit = greedy_fit(cols, FitConfig())
        assert fit.trace.final_score <= fit.trace.init_score + 1e-6

    def test_accepted_scores_strictly_decrease(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=800)
        y = x + 0.2 * rng.normal(size=800)
        fit = greedy_fit([detect_discrete_points(x, 5), detect_discrete_points(y, 5)],
                         FitConfig())
        scores = [fit.trace.init_score] + [r.score_after for r in fit.trace.records]
        assert all(b < a for a, b in zip(scores, scores[1:]))
        for before, rec in zip(scores, fit.trace.records):
            assert rec.score_before == before

    def test_terminates_within_imax(self):
        rng = np.random.default_rng(4)
        cols = [detect_discrete_points(rng.normal(size=500), 5) for _ in range(3)]
        fit = greedy_fit(cols, FitConfig(i_max=2))
        assert len(fit.trace.records) <= 2

    def test_rebuilt_grid_reproduces_counts(self):
        rng = np.random.default_rng(5)
        vals = [np.concatenate([np.repeat(1.0, 30), rng.normal(size=300)]),
                rng.exponential(size=330)]
        cols = [detect_discrete_points(v, 5) for v in vals]
        fit = greedy_fit(cols, FitConfig())
        rebuilt = build_grid(
            [assign_labels(c, b) for c, b in zip(cols, fit.grid.dims)], list(fit.grid.dims))
        assert np.array_equal(rebuilt.cells, fit.grid.cells)
        assert np.array_equal(rebuilt.counts, fit.grid.counts)
        assert rebuilt.K == fit.grid.K

    def test_labeling_matches_binsets(self):
        rng = np.random.default_rng(6)
        cols = [detect_discrete_points(rng.normal(size=200), 5) for _ in range(2)]
        fit = greedy_fit(cols, FitConfig())
        for j, (c, b) in enumerate(zip(cols, fit.grid.dims)):
            assert np.array_equal(fit.labels[:, j], assign_labels(c, b))
        assert fit.labels.dtype == np.min_scalar_type(fit.labels.max())
        assert not fit.labels.flags.writeable
