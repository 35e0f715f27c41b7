import csv
import json

import numpy as np
import pytest

from histcmi import ScenarioSpec, VariableGroup, cmi_estimate, generate
from histcmi.cli import main, read_csv_dataset


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

    def test_duplicate_header_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "dup.csv"
        p.write_text("A,A,B\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        code, _, err = run(["estimate", str(p), "--x", "A", "--y", "B"], capsys)
        assert code == 2
        assert "duplicate column names ['A']" in err

    def test_usage_error_exit_one(self, capsys):
        code, _, _ = run(["estimate"], capsys)  # missing positional
        assert code == 1
        code, _, _ = run(["frobnicate"], capsys)
        assert code == 1

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
