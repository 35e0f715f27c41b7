import itertools
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from histcmi import FitConfig, InputError, ModelError
from histcmi.complexity import log_regret, model_cost, neg_log_likelihood, total_score
from histcmi.data_model import BinSet, assign_labels, build_grid, detect_discrete_points
from histcmi.estimators import fit_columns, prepare_column
from histcmi import complexity

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

    def test_array_matches_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for n in rng.integers(1, 3000, size=20):
            K = rng.integers(1, 500, size=int(rng.integers(1, 30)))
            out = log_regret(int(n), K)
            assert isinstance(out, np.ndarray) and out.shape == K.shape
            assert out.tolist() == [log_regret(int(n), int(k)) for k in K]
        assert type(log_regret(7, 3)) is float

    def test_large_K_sum_matches_the_recurrence(self):
        # the O(n) sum that serves K above the table's limit, against the table
        for n in (1, 2, 3, 7, 50, 500, 3000):
            table = complexity._extend_regret(n, 5000)
            for K in (2, 3, 4, 10, 100, 1000, 5000):
                assert complexity._ln_regret_sum(n, K) == pytest.approx(
                    table[K - 1], rel=1e-12), (n, K)

    def test_large_K_is_fast_and_leaves_the_table(self):
        log_regret(500, 40)
        before = len(complexity._regret_cache[500])
        start = time.perf_counter()
        value = log_regret(500, 10**7)
        assert time.perf_counter() - start < 0.25
        assert len(complexity._regret_cache[500]) == before
        # for K >> n nearly all of the sum is its last term, (K/n)^n
        assert value == pytest.approx(500 * math.log2(10**7 / 500), rel=1e-4)
        assert log_regret(500, np.array([3, 10**7])).tolist() == [log_regret(500, 3), value]

    @pytest.mark.parametrize("K", [np.array([2, 0, 5]), np.array([-1]),
                                   np.array([], dtype=np.int64)])
    def test_array_with_bad_or_no_entry_rejected(self, K):
        with pytest.raises(InputError):
            log_regret(10, K)

    @pytest.mark.parametrize("n, K", [(10.7, 3), (10, 2.5), (10.0, 3), (np.float64(10), 3),
                                      (10, np.array([2.0, 3.0])), (True, 2)])
    def test_non_integer_argument_rejected(self, n, K):
        with pytest.raises(InputError, match="integer"):
            log_regret(n, K)

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

    def test_array_matches_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            E = int(rng.integers(0, 400))
            chosen = rng.integers(0, E + 1, size=int(rng.integers(1, 30)))
            out = model_cost(E, chosen)
            assert isinstance(out, np.ndarray) and out.shape == chosen.shape
            assert out.tolist() == [model_cost(E, int(m)) for m in chosen]
            cands = chosen + rng.integers(0, 50, size=len(chosen))
            assert model_cost(cands, chosen).tolist() == [
                model_cost(int(e), int(m)) for e, m in zip(cands, chosen)]
        assert type(model_cost(10, 3)) is float

    @pytest.mark.parametrize("chosen", [np.array([0, 6, 2]), np.array([1, -1]),
                                        np.array([], dtype=np.int64)])
    def test_array_with_bad_or_no_entry_rejected(self, chosen):
        with pytest.raises(InputError):
            model_cost(5, chosen)

    @pytest.mark.parametrize("candidates, chosen", [(5.5, 2), (5, 2.5), (5.0, 2),
                                                    (np.array([5.0, 6.0]), 2), (5, None)])
    def test_non_integer_argument_rejected(self, candidates, chosen):
        with pytest.raises(InputError, match="integer"):
            model_cost(candidates, chosen)

    @given(st.integers(0, 60), st.integers(0, 60))
    def test_nonnegative_and_symmetric(self, n, k):
        if k > n:
            return
        c = model_cost(n, k)
        assert c >= -1e-12
        assert c == pytest.approx(model_cost(n, n - k), abs=1e-9)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestScalarPath:
    """Python-int arguments take a scalar path; it reads the same tables with
    the same float operations as the array path, so the bits agree."""

    def test_model_cost_equals_the_array_path(self):
        e, m = np.tril_indices(401)  # every 0 <= m <= e <= 400
        want = _hex(model_cost(e, m))
        assert [model_cost(a, b).hex() for a, b in zip(e.tolist(), m.tolist())] == want
        top = complexity._TABLE_MAX_K + 7  # past the table, per-entry ln k!
        for chosen in (0, 3, top):
            assert model_cost(top, chosen).hex() == _hex(model_cost(np.array([top]), chosen))[0]

    @pytest.mark.parametrize("n", [1, 2, 1000, 10000])
    def test_log_regret_equals_the_array_path(self, n):
        K = np.arange(1, 2**12 + 1)
        assert [log_regret(n, k).hex() for k in K.tolist()] == _hex(log_regret(n, K))

    def test_log_regret_past_the_table_equals_the_array_path(self):
        k = complexity._TABLE_MAX_K + 1
        assert log_regret(50, k).hex() == _hex(log_regret(50, np.array([k])))[0]

    @pytest.mark.parametrize("args", [(True, 1), (3, True), (3.0, 1), (3, 1.0), (-1, 0),
                                      (3, -1), (2, 3)])
    def test_model_cost_input_checks_hold(self, args):
        with pytest.raises(InputError):
            model_cost(*args)

    @pytest.mark.parametrize("args", [(True, 1), (10, True), (10.0, 1), (10, 2.0), (0, 1),
                                      (10, 0), (-3, 2), (10, -1)])
    def test_log_regret_input_checks_hold(self, args):
        with pytest.raises(InputError):
            log_regret(*args)


class TestScipyBits:
    """ln k! and the log-sum-exp repeat scipy.special's algorithms, so their
    bits, and every code length built on them, are scipy's."""

    def test_ln_factorial_table_equals_gammaln(self):
        k = np.arange(200_001)
        assert _hex(complexity._ln_factorial_table(200_000)[k]) == _hex(gammaln(k + 1))

    @pytest.mark.parametrize("k", [10**8 - 2, 10**8 - 1, 10**8, 10**8 + 1, 3 * 10**8, 2**40])
    def test_ln_factorial_above_1e8_equals_gammaln(self, k):
        assert _hex(complexity._ln_factorial(k)) == _hex(gammaln(k + 1))

    def test_logsumexp_equals_scipy_on_the_regret_sums(self, monkeypatch):
        seen = []
        own = complexity._logsumexp
        monkeypatch.setattr(complexity, "_logsumexp", lambda a: seen.append(a) or own(a))
        for n in (1, 2, 1000, 10000):
            for K in (2, 3, 2**18 + 1):
                value = complexity._ln_regret_sum(n, K)
                assert _hex(value) == _hex(logsumexp(seen[-1])), (n, K)

    @pytest.mark.parametrize("e", [0, 1, 11, 12, 13, 998, 999, 1000, 4000, 2**18])
    def test_model_cost_equals_the_gammaln_formula(self, e):
        m = np.arange(e + 1)
        reference = (gammaln(e + 1) - gammaln(m + 1) - gammaln(e - m + 1)) / math.log(2.0)
        assert _hex(model_cost(e, m)) == _hex(reference)
        assert _hex(model_cost(e, e // 3)) == _hex(reference[e // 3])

    def test_model_cost_above_the_table_equals_the_gammaln_formula(self):
        e, m = 2**40, np.array([0, 1, 3, 2**20, 2**39])
        before = len(complexity._ln_factorials)
        reference = (gammaln(e + 1) - gammaln(m + 1) - gammaln(e - m + 1)) / math.log(2.0)
        assert _hex(model_cost(e, m)) == _hex(reference)
        assert _hex(model_cost(np.uint64(e), 3)) == _hex(reference[2])
        assert len(complexity._ln_factorials) == before

    def test_threads_grow_the_table_once_per_entry(self, monkeypatch):
        # under the lock each ln k! is computed once and the table only grows
        monkeypatch.setattr(complexity, "_ln_factorials", np.zeros(1))
        calls = []
        own = complexity._ln_factorial
        monkeypatch.setattr(complexity, "_ln_factorial", lambda k: calls.append(k) or own(k))
        sizes = list(range(4250, 250, -250))
        start = threading.Barrier(len(sizes))

        def grow(e):
            start.wait(timeout=60)
            model_cost(e, np.arange(e + 1))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(e,)) for e in sizes]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert sorted(calls) == list(range(1, max(sizes) + 1))
        table = complexity._ln_factorials
        assert _hex(table) == _hex(gammaln(np.arange(max(sizes) + 1) + 1))


def _single_interval_grid(values, width):
    col = detect_discrete_points(np.asarray(values, dtype=float), t=len(values) + 1)
    lo = float(min(values))
    bs = BinSet(col.atoms, np.array([lo, lo + width]))
    return build_grid(assign_labels(col, bs)[:, None], [bs]), bs


class TestNegLogLikelihood:
    def test_purely_discrete_single_cell(self):
        col = detect_discrete_points([2.0] * 8, t=5)
        bs = BinSet(np.array([2.0]), np.empty(0))
        grid = build_grid(np.zeros((8, 1), dtype=int), [bs])
        assert neg_log_likelihood(grid) == pytest.approx(0.0, abs=1e-12)

    def test_one_interval_width_two(self):
        grid, _ = _single_interval_grid([0.0, 0.5, 1.0, 1.5], width=2.0)
        assert neg_log_likelihood(grid) == pytest.approx(4.0, abs=1e-9)

    def test_two_unit_bins_balanced(self):
        vals = [0.1, 0.2, 1.3, 1.4]
        col = detect_discrete_points(np.asarray(vals), t=9)
        bs = BinSet(col.atoms, np.array([0.0, 1.0, 2.0]), np.array([1]))
        grid = build_grid(assign_labels(col, bs)[:, None], [bs])
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
            grid = build_grid(assign_labels(col, bs)[:, None], [bs])
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
        with pytest.raises(ModelError):
            neg_log_likelihood(broken, dims=(0,))

    def test_projection_checks_only_the_volumes_it_reads(self):
        class BrokenBins:
            volumes = np.array([0.0])
            n_bins = 1

        grid, bs = _single_interval_grid([0.0, 1.0], width=2.0)
        two = type(grid)(dims=(BrokenBins(), bs), cells=np.zeros((1, 2), dtype=np.int64),
                         counts=np.array([2]), n=2)
        with pytest.raises(ModelError):
            neg_log_likelihood(two, dims=(0,))
        assert neg_log_likelihood(two, dims=(1,)) == neg_log_likelihood(grid)

    def test_repeated_dimension_rejected(self):
        grid, _ = _single_interval_grid([0.0, 1.0], width=2.0)
        with pytest.raises(InputError, match="repeats"):
            neg_log_likelihood(grid, dims=(0, 0))


def _mixed_fit(seed):
    """A joint fit of 1-4 continuous, discrete or mixture columns, 20-400 rows."""
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(20, 401)), int(rng.integers(1, 5))
    base = rng.normal(size=n)
    cols = []
    for kind in rng.choice(["continuous", "discrete", "mixture"], size=k):
        cont = base * rng.random() + rng.normal(size=n)
        levels = np.floor(np.clip(base, -2.0, 2.0)) + rng.integers(0, 2, size=n)
        v = {"continuous": cont, "discrete": levels,
             "mixture": np.where(rng.random(n) < 0.4, levels, cont)}[kind]
        cols.append(prepare_column(v, FitConfig()))
    return fit_columns(cols, FitConfig())


class TestProjectedNegLogLikelihood:
    @pytest.mark.parametrize("seed", range(12))
    def test_equals_the_grid_built_on_projected_labels(self, seed):
        fit = _mixed_fit(seed)
        k = len(fit.grid.dims)
        for r in range(k + 1):
            for dims in itertools.combinations(range(k), r):
                built = build_grid(fit.labels[:, list(dims)], [fit.grid.dims[j] for j in dims])
                assert neg_log_likelihood(fit.grid, dims) == neg_log_likelihood(built)

    def test_all_dimensions_in_any_order_merge_nothing(self, monkeypatch):
        fit = _mixed_fit(4)
        k = len(fit.grid.dims)
        assert k == 4
        whole = neg_log_likelihood(fit.grid)

        def refuse(*args, **kwargs):
            raise AssertionError("merged the cells of a whole grid")
        monkeypatch.setattr(complexity, "count_cells", refuse)
        assert neg_log_likelihood(fit.grid, tuple(reversed(range(k)))) == whole


class TestTotalScore:
    def test_single_cell_discrete_model_is_free(self):
        col = detect_discrete_points([3.0] * 12, t=5)
        bs = BinSet(np.array([3.0]), np.empty(0))
        grid = build_grid(np.zeros((12, 1), dtype=int), [bs])
        assert neg_log_likelihood(grid) == pytest.approx(0.0, abs=1e-12)
        assert total_score(grid) == 0.0

    def test_unused_candidate_raises_model_cost(self):
        vals = [0.1, 0.2, 1.3, 1.4]
        col = detect_discrete_points(np.asarray(vals), t=9)
        nlls, totals = [], []
        for cand, cuts in ((np.array([0.0, 1.0, 2.0]), [1]),
                           (np.array([0.0, 0.7, 1.0, 2.0]), [2])):
            bs = BinSet(col.atoms, cand, np.array(cuts))
            grid = build_grid(assign_labels(col, bs)[:, None], [bs])
            nlls.append(neg_log_likelihood(grid))
            totals.append(total_score(grid))
        assert nlls[1] == nlls[0]
        assert totals[1] > totals[0]  # same fit, pricier model description
