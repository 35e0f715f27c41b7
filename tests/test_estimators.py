import dataclasses
import math

import numpy as np
import pytest

from histcmi import (
    FitConfig,
    InputError,
    ModelError,
    ScenarioSpec,
    VariableGroup,
    cmi_estimate,
    continuous_entropy_terms,
    detect_discrete_points,
    fit_columns,
    generate,
    ground_truth,
    plugin_entropy,
    prepare_column,
    replicate_seed,
)

X = VariableGroup("X", (0,))
Y = VariableGroup("Y", (1,))
Z = VariableGroup("Z", (2,))


class TestPluginEntropy:
    def test_equiprobable_four_labels(self):
        labels = np.repeat(np.arange(4), 25)
        assert plugin_entropy(labels) == pytest.approx(math.log(4), abs=1e-12)

    def test_single_label(self):
        h = plugin_entropy(np.zeros(10, dtype=int))
        assert h == 0.0
        assert math.copysign(1.0, h) == 1.0

    def test_three_one_split(self):
        labels = np.array([0, 0, 0, 1])
        expected = 0.75 * math.log(4 / 3) + 0.25 * math.log(4)
        assert plugin_entropy(labels) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5623, abs=1e-4)

    def test_rows_past_int64_ids_stay_distinct(self):
        # 47**12 > 2**63 and the first row is 2**64 in base 47, least
        # significant digit first: a wrapping encoding merges it with row two
        labels = np.array([[25, 3, 40, 26, 16, 23, 43, 41, 4, 33, 21, 7],
                           [0] * 12, [46] * 12])
        assert plugin_entropy(labels) == pytest.approx(math.log(3), abs=1e-12)

    def test_narrow_labels_at_their_dtype_maximum(self):
        # the radix 255 + 1 must not wrap to 0 in uint8
        labels = np.array([[255], [0]], dtype=np.uint8)
        assert plugin_entropy(labels) == pytest.approx(math.log(2), abs=1e-12)

    def test_empty_projection_is_zero(self):
        h = plugin_entropy(np.empty((7, 0), dtype=int))
        assert h == 0.0
        assert math.copysign(1.0, h) == 1.0

    def test_float_labels_rejected(self):
        # (0.5, 0.4) and (0.4, 0.5) are distinct rows, but both truncate to one id
        with pytest.raises(InputError, match="integers"):
            plugin_entropy(np.array([[0.5, 0.4], [0.4, 0.5]]))

    def test_bool_labels_are_two_symbols(self):
        expected = -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3)
        assert plugin_entropy(np.array([True, False, True])) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.6365, abs=1e-4)

    def test_empty_sample_rejected(self):
        with pytest.raises(InputError):
            plugin_entropy(np.empty(0, dtype=int))

    def test_bounded_by_log_support(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            labels = rng.integers(0, 6, size=rng.integers(1, 80))
            h = plugin_entropy(labels)
            assert -1e-12 <= h <= math.log(len(np.unique(labels))) + 1e-12


class TestVariableGroups:
    def test_duplicate_dim_rejected(self):
        with pytest.raises(InputError):
            VariableGroup("X", (0, 0))

    def test_groups_must_cover_dataset(self):
        data = np.random.default_rng(0).normal(size=(50, 3))
        with pytest.raises(InputError):
            cmi_estimate(data, X, Y)  # dim 2 unassigned

    def test_overlapping_groups_rejected(self):
        data = np.random.default_rng(0).normal(size=(50, 2))
        with pytest.raises(InputError):
            cmi_estimate(data, X, VariableGroup("Y", (0,)), VariableGroup("Z", (1,)))


class TestCmiEstimate:
    def test_self_information_equals_plugin_entropy(self):
        rng = np.random.default_rng(0)
        a = np.concatenate([np.repeat(2.0, 40), rng.normal(size=200)])
        est = cmi_estimate(np.column_stack([a, a]), X, Y)
        h0 = plugin_entropy(est.fit.labels[:, 0])
        assert est.value == pytest.approx(h0, abs=1e-12)
        assert est.value >= 0.0

    def test_value_is_exact_entropy_sum(self):
        ds = generate(ScenarioSpec("exp5", 400, 1))
        est = cmi_estimate(ds.data, X, Y, Z)
        assert est.value == est.h_xz + est.h_yz - est.h_xyz - est.h_z

    def test_exp4_near_zero(self):
        ds = generate(ScenarioSpec("exp4", 1000, 3))
        est = cmi_estimate(ds.data, X, Y, Z)
        assert abs(est.value) < 0.1

    def test_exp5_near_benchmark_value(self):
        ds = generate(ScenarioSpec("exp5", 1000, 3))
        est = cmi_estimate(ds.data, X, Y, Z)
        assert est.value == pytest.approx(0.352, abs=0.1)

    def test_mi_nonnegative_without_conditioning(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            data = np.column_stack([rng.normal(size=120),
                                    rng.integers(0, 3, 120).astype(float)])
            assert cmi_estimate(data, X, Y).value >= -1e-12

    def test_fit_reuse_gives_identical_result(self):
        ds = generate(ScenarioSpec("exp5", 400, 6))
        first = cmi_estimate(ds.data, X, Y, Z)
        again = cmi_estimate(ds.data, X, Y, Z, fit=first.fit)
        assert again.value == first.value
        assert again.fit is first.fit

    def test_mismatched_fit_rejected(self):
        ds = generate(ScenarioSpec("exp5", 400, 6))
        fit = cmi_estimate(ds.data, X, Y, Z).fit
        with pytest.raises(InputError, match="does not match"):
            cmi_estimate(ds.data[:, :2], X, Y, fit=fit)
        with pytest.raises(InputError, match="does not match"):
            cmi_estimate(ds.data[:300], X, Y, Z, fit=fit)

    def test_permutation_invariance(self):
        ds = generate(ScenarioSpec("exp5", 500, 4))
        est = cmi_estimate(ds.data, X, Y, Z)
        perm = np.random.default_rng(0).permutation(ds.n)
        est_p = cmi_estimate(ds.data[perm], X, Y, Z)
        assert est_p.value == est.value
        assert est_p.bins_per_dim == est.bins_per_dim

    def test_monotone_under_group_extension_on_fixed_labels(self):
        # plug-in I(X;Y) <= I(X; Y u Z) on one shared discretization
        ds = generate(ScenarioSpec("exp4", 800, 5))
        starts = [prepare_column(ds.data[:, j], FitConfig()) for j in range(3)]
        labels = fit_columns(starts, FitConfig()).labels
        i_xy = (plugin_entropy(labels[:, [0]]) + plugin_entropy(labels[:, [1]])
                - plugin_entropy(labels[:, [0, 1]]))
        i_x_yz = (plugin_entropy(labels[:, [0]]) + plugin_entropy(labels[:, [1, 2]])
                  - plugin_entropy(labels[:, [0, 1, 2]]))
        assert i_xy <= i_x_yz + 1e-12

    def test_mse_shrinks_with_sample_size(self):
        truth = ground_truth(ScenarioSpec("exp1", 100, 0))
        mses = []
        for n in (100, 316, 1000):
            errs = []
            for rep in range(60):
                ds = generate(ScenarioSpec("exp1", n, replicate_seed(17, rep)))
                errs.append(cmi_estimate(ds.data, X, Y).value - truth)
            mses.append(float(np.mean(np.square(errs))))
        assert mses[0] > mses[1] > mses[2]


class TestContinuousEntropyTerms:
    def test_purely_discrete_grid_has_no_volume_term(self):
        rng = np.random.default_rng(0)
        data = np.column_stack([rng.integers(0, 3, 90).astype(float),
                                rng.integers(0, 2, 90).astype(float)])
        starts = [prepare_column(data[:, j], FitConfig()) for j in range(2)]
        fit = fit_columns(starts, FitConfig())
        terms = continuous_entropy_terms(fit.grid, {"all": (0, 1)})
        assert terms["all"] == pytest.approx(plugin_entropy(fit.labels), abs=1e-12)

    def test_single_interval_width_two(self):
        vals = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        col = detect_discrete_points(vals, 9)
        from histcmi import assign_labels, build_grid
        from histcmi.data_model import BinSet

        bs = BinSet(col.atoms, np.array([0.0, 2.0]))
        grid = build_grid(assign_labels(col, bs)[:, None], [bs])
        terms = continuous_entropy_terms(grid, {"g": (0,)})
        assert terms["g"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_four_term_volume_cancellation(self):
        for rep in range(6):
            ds = generate(ScenarioSpec("exp5", 300, rep))
            est = cmi_estimate(ds.data, X, Y, Z)
            groups = {"xz": (0, 2), "yz": (1, 2), "xyz": (0, 1, 2), "z": (2,)}
            terms = continuous_entropy_terms(est.fit.grid, groups)
            i_cont = terms["xz"] + terms["yz"] - terms["xyz"] - terms["z"]
            assert i_cont == pytest.approx(est.value, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_grid_that_disagrees_with_the_labels_is_caught(self, seed):
        # one row moved from the fullest cell to the emptiest: the grid-side
        # estimate no longer matches the plug-in estimate of the labels
        ds = generate(ScenarioSpec("exp5", 300, seed))
        fit = cmi_estimate(ds.data, X, Y, Z).fit
        counts = fit.grid.counts.copy()
        src, dst = int(np.argmax(counts)), int(np.argmin(counts))
        counts[src] -= 1
        counts[dst] += 1
        bad = dataclasses.replace(fit, grid=dataclasses.replace(fit.grid, counts=counts))
        with pytest.raises(ModelError, match="cancellation"):
            cmi_estimate(ds.data, X, Y, Z, fit=bad)
