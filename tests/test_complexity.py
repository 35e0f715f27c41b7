import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histcmi import (
    BinSet,
    InputError,
    ModelError,
    ScoreBreakdown,
    build_grid,
    log_regret,
    model_cost,
    neg_log_likelihood,
    total_score,
)
from histcmi.data_model import detect_discrete_points

from oracles import multinomial_regret


class TestLogRegret:
    def test_single_bin_is_free(self):
        assert log_regret(50, 1) == 0.0

    def test_two_bins_two_points(self):
        # compositions of 2 into 2 bins: 1 + 0.5 + 1 = 2.5
        assert log_regret(2, 2) == pytest.approx(math.log2(2.5), abs=1e-12)

    def test_three_bins_one_point(self):
        assert log_regret(1, 3) == pytest.approx(math.log2(3.0), abs=1e-12)

    def test_matches_direct_multinomial_sum(self):
        for n in range(1, 13):
            for K in range(1, 7):
                direct = math.log2(multinomial_regret(n, K))
                assert log_regret(n, K) == pytest.approx(direct, abs=1e-9), (n, K)

    def test_monotone_in_K_and_n(self):
        for n in range(1, 13):
            vals = [log_regret(n, K) for K in range(1, 7)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
        for K in range(1, 7):
            vals = [log_regret(n, K) for n in range(1, 13)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputError):
            log_regret(0, 3)
        with pytest.raises(InputError):
            log_regret(5, 0)

    @settings(max_examples=30)
    @given(st.integers(1, 400), st.integers(1, 40))
    def test_nonnegative(self, n, K):
        assert log_regret(n, K) >= 0.0


class TestModelCost:
    def test_examples(self):
        assert model_cost(10, 0) == 0.0
        assert model_cost(10, 3) == pytest.approx(math.log2(120), abs=1e-9)
        assert model_cost(7, 7) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_chosen_above_candidates(self):
        with pytest.raises(InputError):
            model_cost(3, 4)

    @given(st.integers(0, 60), st.integers(0, 60))
    def test_nonnegative_and_symmetric(self, n, k):
        if k > n:
            return
        c = model_cost(n, k)
        assert c >= -1e-12
        assert c == pytest.approx(model_cost(n, n - k), abs=1e-9)


def _single_interval_grid(values, width):
    col = detect_discrete_points(np.asarray(values, dtype=float), t=len(values) + 1)
    lo = float(min(values))
    bs = BinSet(col.atoms, np.array([lo, lo + width]))
    from histcmi import assign_labels

    return build_grid([assign_labels(col, bs)], [bs]), bs


class TestNegLogLikelihood:
    def test_purely_discrete_single_cell(self):
        col = detect_discrete_points([2.0] * 8, t=5)
        bs = BinSet(np.array([2.0]), np.empty(0))
        grid = build_grid([np.zeros(8, dtype=int)], [bs])
        assert neg_log_likelihood(grid) == pytest.approx(0.0, abs=1e-12)

    def test_one_interval_width_two(self):
        grid, _ = _single_interval_grid([0.0, 0.5, 1.0, 1.5], width=2.0)
        assert neg_log_likelihood(grid) == pytest.approx(4.0, abs=1e-9)

    def test_two_unit_bins_balanced(self):
        vals = [0.1, 0.2, 1.3, 1.4]
        col = detect_discrete_points(np.asarray(vals), t=9)
        bs = BinSet(col.atoms, np.array([0.0, 1.0, 2.0]), np.array([1]))
        from histcmi import assign_labels

        grid = build_grid([assign_labels(col, bs)], [bs])
        assert neg_log_likelihood(grid) == pytest.approx(4.0, abs=1e-9)

    def test_nonnegative_when_no_cell_is_narrower_than_unit(self):
        # density above 1 (and hence negative code length) needs volume < 1
        rng = np.random.default_rng(11)
        for _ in range(10):
            vals = rng.uniform(0, 5, size=rng.integers(2, 50))
            col = detect_discrete_points(vals, t=len(vals) + 1)
            lo, hi = float(vals.min()), float(vals.min()) + 6.0
            cut = lo + 1.5
            bs = BinSet(col.atoms, np.array([lo, cut, hi]), np.array([1]))
            from histcmi import assign_labels

            grid = build_grid([assign_labels(col, bs)], [bs])
            assert all(v >= 1.0 for v in bs.volumes)
            assert neg_log_likelihood(grid) >= -1e-12

    def test_negative_only_with_subunit_volume(self):
        grid, _ = _single_interval_grid([0.0, 0.05, 0.1, 0.2], width=0.25)
        assert neg_log_likelihood(grid) < 0.0  # density 1/0.25 > 1

    def test_zero_volume_cell_rejected(self):
        class BrokenBins:
            volumes = np.array([0.0])
            n_bins = 1

        grid, _ = _single_interval_grid([0.0, 1.0], width=2.0)
        broken = type(grid)(dims=(BrokenBins(),), cells=np.zeros((1, 1), dtype=np.int64),
                            counts=np.array([2]), n=2)
        with pytest.raises(ModelError):
            neg_log_likelihood(broken)


class TestTotalScore:
    def test_single_cell_discrete_model_is_free(self):
        col = detect_discrete_points([3.0] * 12, t=5)
        bs = BinSet(np.array([3.0]), np.empty(0))
        grid = build_grid([np.zeros(12, dtype=int)], [bs])
        score = total_score(grid, [bs])
        assert score.neg_log_likelihood == pytest.approx(0.0, abs=1e-12)
        assert score.regret == 0.0
        assert score.model_cost == 0.0
        assert score.total == 0.0

    def test_total_is_sum_of_parts(self):
        s = ScoreBreakdown(neg_log_likelihood=3.25, regret=1.5, model_cost=0.25)
        assert s.total == 3.25 + 1.5 + 0.25

    def test_unused_candidate_raises_model_cost(self):
        vals = [0.1, 0.2, 1.3, 1.4]
        col = detect_discrete_points(np.asarray(vals), t=9)
        from histcmi import assign_labels

        totals = []
        for cand, cuts in ((np.array([0.0, 1.0, 2.0]), [1]),
                           (np.array([0.0, 0.7, 1.0, 2.0]), [2])):
            bs = BinSet(col.atoms, cand, np.array(cuts))
            grid = build_grid([assign_labels(col, bs)], [bs])
            totals.append(total_score(grid, [bs]))
        assert totals[1].model_cost > totals[0].model_cost
        assert totals[1].total > totals[0].total  # same fit, pricier model description
