import csv
import json

import numpy as np
import pytest

from histcmi import (
    FitConfig,
    InputError,
    ScenarioSpec,
    VariableGroup,
    cmi_estimate,
    generate,
    pc_stable_skeleton,
    prepare_column,
)
from histcmi import cli, estimators, histmd
from histcmi.cli import main, make_ci_test, read_csv_dataset


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestDatagen:
    def test_identical_files(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(["datagen", "exp1", "--n", "100", "--seed", "7",
                              "--out", str(p)], capsys)
            assert code == 0
        assert paths[0].read_text() == paths[1].read_text()

    def test_header_names_rng(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        run(["datagen", "exp4", "--n", "50", "--seed", "1", "--out", str(p)], capsys)
        first = p.read_text().splitlines()[0]
        assert first.startswith("#") and "pcg64" in first and "seed=1" in first

    def test_unknown_scenario_is_data_error(self, capsys):
        code, _, err = run(["datagen", "nope", "--n", "10"], capsys)
        assert code == 2
        assert "unknown scenario" in err

    def test_unwritable_out_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        code, _, err = run(["datagen", "exp1", "--n", "10", "--out", str(path)], capsys)
        assert code == 2
        assert "cannot write" in err
        assert not path.exists()


@pytest.mark.parametrize("argv", [["datagen", "exp1"], ["estimate", "exp1"],
                                  ["discover", "network"], ["benchmark", "exp1", "--reps", "1"]],
                         ids=["datagen", "estimate", "discover", "benchmark"])
def test_negative_seed_is_data_error(argv, capsys):
    code, out, err = run(argv + ["--n", "10", "--seed", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert ">= 0" in err


class TestEstimate:
    def test_self_information(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        run(["datagen", "exp2", "--n", "400", "--seed", "3", "--out", str(p)], capsys)
        code, out, _ = run(["estimate", str(p), "--x", "X", "--y", "X"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert report["results"]["estimate_nats"] >= 0.0
        # self-information: the four-entropy sum collapses to one entropy
        r = report["results"]["entropies_nats"]
        assert r["h_xz"] + r["h_yz"] - r["h_xyz"] - r["h_z"] == pytest.approx(
            report["results"]["estimate_nats"])

    def test_exp5_value_near_benchmark(self, tmp_path, capsys):
        p = tmp_path / "exp5.csv"
        run(["datagen", "exp5", "--n", "1000", "--seed", "3", "--out", str(p)], capsys)
        code, out, _ = run(["estimate", str(p), "--x", "X", "--y", "Y", "--z", "Z"], capsys)
        assert code == 0
        value = json.loads(out)["results"]["estimate_nats"]
        assert abs(value - 0.352) < 0.1

    def test_missing_column_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        run(["datagen", "exp1", "--n", "50", "--seed", "0", "--out", str(p)], capsys)
        code, _, err = run(["estimate", str(p), "--x", "Q", "--y", "Y"], capsys)
        assert code == 2
        assert "unknown column" in err

    def test_non_numeric_cell_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("A,B\n1.0,hello\n")
        code, _, err = run(["estimate", str(p), "--x", "A", "--y", "B"], capsys)
        assert code == 2

    @pytest.mark.parametrize("text, row", [("A,B\n1,2\n3\n", 2), ("A,B\n1,2,3\n4,5\n", 1)])
    def test_ragged_rows_are_data_error(self, tmp_path, capsys, text, row):
        p = tmp_path / "ragged.csv"
        p.write_text(text)
        code, _, err = run(["estimate", str(p), "--x", "A", "--y", "B"], capsys)
        assert code == 2
        assert f"ragged rows: data row {row} " in err
        assert "non-numeric" not in err

    def test_duplicate_header_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "dup.csv"
        p.write_text("A,A,B\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        code, _, err = run(["estimate", str(p), "--x", "A", "--y", "B"], capsys)
        assert code == 2
        assert "duplicate column names ['A']" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", ["1.7976931348623157e308", "-1.7976931348623157e308"])
    def test_single_max_float_value_gives_a_finite_estimate(self, tmp_path, capsys, value):
        # the one continuous value of column a gets its one-ULP cell on the
        # finite side of ±max float, so no volume is inf
        p = tmp_path / "maxfloat.csv"
        p.write_text("a,b\n" + f"{value},0\n" + "".join(f"0.0,{i}\n" for i in range(1, 7)))
        code, out, err = run(["estimate", str(p), "--x", "a", "--y", "b", "--z", ""], capsys)
        assert (code, err) == (0, "")
        assert np.isfinite(json.loads(out)["results"]["estimate_nats"])

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = "".join(f"{a},{a + b},{b}\n" for a, b in rng.normal(size=(80, 2)).tolist())
        p = tmp_path / "bom.csv"
        p.write_text("A,B,C\n" + rows, encoding="utf-8-sig")
        assert p.read_bytes().startswith(b"\xef\xbb\xbfA,")
        code, out, _ = run(["estimate", str(p), "--x", "A", "--y", "B"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["columns"]["x"] == ["A"]
        code, out, _ = run(["discover", str(p)], capsys)
        assert code == 0
        assert json.loads(out)["results"]["nodes"] == ["A", "B", "C"]

    def test_undecodable_csv_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"caf\xe9,B\n1.0,2.0\n3.0,4.0\n")
        code, out, err = run(["estimate", str(p), "--x", "B", "--y", "B"], capsys)
        assert code == 2
        assert out == ""
        assert "cannot decode" in err

    @pytest.mark.parametrize("argv", [["estimate", "exp1", "--n", "50", "--x", "X", "--y", "Y"],
                                      ["datagen", "exp1", "--n", "50"],
                                      ["benchmark", "exp2", "--n", "50", "--reps", "1"]],
                             ids=["estimate", "datagen", "benchmark"])
    def test_k_on_a_scenario_without_k_is_data_error(self, argv, capsys):
        code, out, err = run([*argv, "--k", "3"], capsys)
        assert code == 2
        assert out == ""
        assert "does not read" in err

    def test_k_with_a_csv_path_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        run(["datagen", "exp1", "--n", "50", "--seed", "0", "--out", str(p)], capsys)
        code, out, err = run(["estimate", str(p), "--x", "X", "--y", "Y", "--k", "3"], capsys)
        assert code == 2
        assert out == ""
        assert "--k" in err

    @pytest.mark.parametrize("argv", [["estimate", "--x", "X", "--y", "Y"],
                                      ["citest", "--x", "X", "--y", "Y"],
                                      ["discover"]],
                             ids=["estimate", "citest", "discover"])
    def test_n_with_a_csv_path_is_data_error(self, argv, tmp_path, capsys):
        p = tmp_path / "d.csv"
        run(["datagen", "exp1", "--n", "50", "--seed", "0", "--out", str(p)], capsys)
        code, out, err = run([argv[0], str(p), *argv[1:], "--n", "10"], capsys)
        assert code == 2
        assert out == ""
        assert "--n" in err

    def test_usage_error_exit_one(self, capsys):
        code, _, _ = run(["estimate"], capsys)  # missing positional
        assert code == 1
        code, _, _ = run(["frobnicate"], capsys)
        assert code == 1

    def test_test_and_alpha_are_not_estimate_options(self, capsys):
        assert main(["estimate", "exp1", "--test", "sc"]) == cli.EXIT_USAGE
        assert main(["estimate", "exp1", "--alpha", "0.7"]) == cli.EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("factors", [["--kinit-factor", "nan"], ["--kinit-factor", "inf"],
                                         ["--kinit-factor", "-3", "--kmax-factor", "-5"]],
                             ids=["nan", "inf", "negative"])
    def test_bad_bin_budget_factor_is_data_error(self, factors, capsys):
        code, out, err = run(["estimate", "exp1", "--n", "200", *factors], capsys)
        assert code == 2
        assert out == ""
        assert "must be finite and > 0" in err

    def test_scenario_id_with_roles_fallback(self, capsys):
        code, out, _ = run(["estimate", "exp1", "--n", "300", "--seed", "2"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["columns"]["x"] == ["X"]

    def test_round_trip_matches_in_process(self, tmp_path, capsys):
        p = tmp_path / "exp5.csv"
        run(["datagen", "exp5", "--n", "500", "--seed", "11", "--out", str(p)], capsys)
        ds_file = read_csv_dataset(str(p))
        ds_mem = generate(ScenarioSpec("exp5", 500, 11))
        assert np.array_equal(ds_file.data, ds_mem.data)  # repr round-trips exactly
        code, out, _ = run(["estimate", str(p), "--x", "X", "--y", "Y", "--z", "Z"], capsys)
        in_proc = cmi_estimate(ds_mem.data, VariableGroup("X", (0,)),
                               VariableGroup("Y", (1,)), VariableGroup("Z", (2,)))
        assert json.loads(out)["results"]["estimate_nats"] == in_proc.value


class TestCitest:
    def test_chi2_verdict_fields(self, capsys):
        code, out, _ = run(["citest", "exp4", "--n", "600", "--seed", "5",
                            "--test", "chi2", "--alpha", "0.01"], capsys)
        assert code == 0
        res = json.loads(out)["results"]
        assert set(res) >= {"independent", "raw_nats", "correction_nats",
                            "corrected_nats", "method"}
        assert res["method"] == "chi2"
        assert res["correction_nats"] <= 0.0

    def test_sc_method(self, capsys):
        code, out, _ = run(["citest", "exp4", "--n", "600", "--seed", "5",
                            "--test", "sc"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["method"] == "sc"

    @pytest.mark.parametrize("command,data", [("citest", "exp4"), ("discover", "network")])
    def test_alpha_outside_unit_interval_is_data_error_for_sc_too(self, command, data, capsys):
        code, out, err = run([command, data, "--n", "100", "--test", "sc", "--alpha", "5"],
                             capsys)
        assert code == 2
        assert out == ""
        assert "alpha must lie in (0, 1)" in err


class TestBenchmark:
    def test_csv_rows_and_determinism(self, tmp_path, capsys):
        argv = ["benchmark", "exp1", "--n", "150,300", "--reps", "3", "--seed", "9",
                "--format", "csv"]
        outs = []
        for _ in range(2):
            code, out, _ = run(argv, capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        rows = list(csv.DictReader(outs[0].splitlines()))
        assert [r["n"] for r in rows] == ["150", "300"]
        assert {"scenario", "n", "replicate_count", "mean_estimate", "mse", "truth"} \
            <= set(rows[0])

    def test_range_syntax(self, capsys):
        code, out, _ = run(["benchmark", "exp1", "--n", "100..300..100",
                            "--reps", "2", "--seed", "1"], capsys)
        assert code == 0
        ns = [r["n"] for r in json.loads(out)["results"]["rows"]]
        assert ns == [100, 200, 300]

    def test_structure_scenario_rejected(self, capsys):
        code, _, err = run(["benchmark", "network", "--reps", "2"], capsys)
        assert code == 2

    def test_bad_n_value_is_data_error(self, capsys):
        code, _, _ = run(["benchmark", "exp1", "--n", "abc", "--reps", "2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_reps_below_one_is_data_error(self, reps, capsys):
        code, out, err = run(["benchmark", "exp1", "--n", "100", "--reps", reps], capsys)
        assert code == 2
        assert out == ""
        assert "reps must be >= 1" in err

    def test_mse_decreases_with_n(self, capsys):
        code, out, _ = run(["benchmark", "exp4", "--n", "100,1000", "--reps", "5",
                            "--seed", "4"], capsys)
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        assert rows[0]["mse"] > rows[1]["mse"]


class TestDiscover:
    def test_small_network_report(self, capsys):
        code, out, _ = run(["discover", "network", "--n", "300", "--seed", "2",
                            "--max-level", "1", "--test", "chi2"], capsys)
        assert code == 0
        res = json.loads(out)["results"]
        assert set(res) >= {"nodes", "edges", "separating_sets", "precision", "recall"}
        assert res["nodes"] == list("ABCDEFG")

    def test_csv_format_edge_list(self, capsys):
        code, out, _ = run(["discover", "network", "--n", "300", "--seed", "2",
                            "--max-level", "0", "--format", "csv"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "node_a,node_b"

    def test_negative_max_level_is_data_error(self, capsys):
        code, out, err = run(["discover", "network", "--n", "100", "--max-level", "-1"],
                             capsys)
        assert code == 2
        assert out == ""
        assert "max_level must be >= 0" in err


def _count_fits(monkeypatch) -> list:
    calls = []
    real = estimators.greedy_fit

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(estimators, "greedy_fit", counted)
    return calls


def _skeleton_run(dataset, ci):
    """Verdicts in call order, the edges and the separating sets of one skeleton."""
    verdicts = []

    def recorded(ds, a, b, cond):
        verdicts.append(((a, b, tuple(cond)), ci(ds, a, b, cond)))
        return verdicts[-1][1]
    skel = pc_stable_skeleton(dataset, recorded)
    return verdicts, sorted(skel.edges), sorted(skel.separating_sets.items())


class TestCiTestFitReuse:
    @pytest.mark.parametrize("method", ["chi2", "sc"])
    def test_memoized_closure_matches_a_fresh_fit_per_test(self, method, monkeypatch):
        config = FitConfig()
        datasets = [generate(ScenarioSpec("network", 2000, seed)) for seed in (5, 6)]

        def fresh(ds, a, b, cond):
            return make_ci_test(config, method, 0.01)(ds, a, b, cond)
        expected = [_skeleton_run(ds, fresh) for ds in datasets]

        calls = _count_fits(monkeypatch)
        ci = make_ci_test(config, method, 0.01)
        for ds, want in zip(datasets, expected):
            before = len(calls)
            got = _skeleton_run(ds, ci)
            assert got == want
            # one fit per distinct sorted column set, none carried over datasets
            sets = {tuple(sorted((a, b, *cond))) for (a, b, cond), _ in got[0]}
            assert len(calls) - before == len(sets) < len(got[0])

    def test_fits_do_not_leak_across_datasets(self, monkeypatch):
        first = generate(ScenarioSpec("network", 500, 1))
        second = generate(ScenarioSpec("network", 500, 2))
        calls = _count_fits(monkeypatch)
        ci = make_ci_test(FitConfig(), "chi2", 0.01)
        for ds in (first, second, first):
            ci(ds, "A", "B", ("C",))
            ci(ds, "B", "C", ("A",))
        assert len(calls) == 3

    def test_each_column_prepared_once_per_dataset_and_level(self, monkeypatch):
        first = generate(ScenarioSpec("network", 500, 1))
        second = generate(ScenarioSpec("network", 500, 2))
        prepared = []
        real = estimators.detect_discrete_points

        def counted(values, *args, **kwargs):
            prepared.append(values.tobytes())
            return real(values, *args, **kwargs)
        monkeypatch.setattr(estimators, "detect_discrete_points", counted)
        ci = make_ci_test(FitConfig(), "chi2", 0.01)
        for ds in (first, second, first):
            tested = {}  # level -> (columns tested, preparations during the level)

            def recorded(ds, a, b, cond):
                before = len(prepared)
                verdict = ci(ds, a, b, cond)
                names, preps = tested.setdefault(len(cond), (set(), []))
                names.update((a, b, *cond))
                preps.extend(prepared[before:])
                return verdict
            pc_stable_skeleton(ds, recorded)
            assert len(tested) >= 2
            # each tested column once per level, though most enter several fits
            for names, preps in tested.values():
                assert sorted(preps) == sorted(ds.column(name).tobytes() for name in names)

    def test_one_table_per_column_and_level(self, monkeypatch):
        # a column's segmentation table is built with its start, once per
        # level, and every fit of the level that enters the column shares it
        first = generate(ScenarioSpec("network", 2000, 1))
        second = generate(ScenarioSpec("network", 2000, 2))
        config = FitConfig()
        with_cut = {id(ds): {name for name in ds.names
                             if prepare_column(ds.column(name), config).table is not None}
                    for ds in (first, second)}
        built = []
        real = histmd.segment_table

        def counted(*args):
            built.append(1)
            return real(*args)
        monkeypatch.setattr(histmd, "segment_table", counted)
        ci = make_ci_test(config, "chi2", 0.01)
        for ds in (first, second, first):
            tested = {}  # level -> [column sets fitted, tables built during the level]

            def recorded(ds, a, b, cond):
                before = len(built)
                verdict = ci(ds, a, b, cond)
                level = tested.setdefault(len(cond), [set(), 0])
                level[0].add(frozenset((a, b, *cond)))
                level[1] += len(built) - before
                return verdict
            pc_stable_skeleton(ds, recorded)
            assert len(tested) >= 2
            shared = False
            for sets, tables in tested.values():
                columns = set().union(*sets) & with_cut[id(ds)]
                assert tables == len(columns)
                shared |= tables < sum(len(s & with_cut[id(ds)]) for s in sets)
            assert shared

    def test_new_dataset_of_the_same_set_size_fits_its_own_columns(self, monkeypatch):
        first = generate(ScenarioSpec("network", 500, 1))
        second = generate(ScenarioSpec("network", 500, 2))
        fits = []
        real = cli.citest_chi2

        def spy(*args, **kwargs):
            fits.append(kwargs["fit"])
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, "citest_chi2", spy)
        ci = make_ci_test(FitConfig(), "chi2", 0.01)
        for ds in (first, second):
            ci(ds, "A", "B", ("C",))
            make_ci_test(FitConfig(), "chi2", 0.01)(ds, "A", "B", ("C",))
        for shared, fresh in (fits[0:2], fits[2:4]):
            assert np.array_equal(shared.labels, fresh.labels)
            assert shared.trace.final_score == fresh.trace.final_score
        assert fits[0].trace.final_score != fits[2].trace.final_score

    def test_cache_hit_hands_out_the_cached_fit(self, monkeypatch):
        ds = generate(ScenarioSpec("network", 1000, 3))
        fits = []
        real = cli.citest_chi2

        def spy(*args, **kwargs):
            fits.append(kwargs["fit"])
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, "citest_chi2", spy)
        ci = make_ci_test(FitConfig(), "chi2", 0.01)
        ci(ds, "A", "C", ("B",))
        ci(ds, "B", "C", ("A",))  # same column set: reused
        make_ci_test(FitConfig(), "chi2", 0.01)(ds, "B", "C", ("A",))
        assert fits[1] is fits[0]  # the second test reused the first fit
        reused, fresh = fits[1].labels, fits[2].labels
        assert reused.dtype == fresh.dtype
        assert np.array_equal(reused, fresh)

    @pytest.mark.parametrize("method,alpha,match", [("chi-2", 0.01, "unknown CI test"),
                                                    ("chi2", 0.0, "alpha"),
                                                    ("sc", 5.0, "alpha"),
                                                    ("sc", float("nan"), "alpha")])
    def test_factory_rejects_bad_method_or_alpha_before_any_fit(self, method, alpha, match,
                                                                monkeypatch):
        calls = _count_fits(monkeypatch)
        with pytest.raises(InputError, match=match):
            make_ci_test(FitConfig(), method, alpha)
        assert calls == []

    def test_repeated_column_rejected(self):
        ds = generate(ScenarioSpec("network", 200, 1))
        ci = make_ci_test(FitConfig(), "chi2", 0.01)
        for a, b, cond in (("A", "A", ()), ("A", "B", ("A",)), ("A", "B", ("C", "C"))):
            with pytest.raises(InputError, match="distinct"):
                ci(ds, a, b, cond)
