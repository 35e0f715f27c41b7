import io
import math

import numpy as np
import pytest

from histcmi import InputError, ScenarioSpec, generate, ground_truth, replicate_seed, true_network_edges
from histcmi.cli import write_csv_dataset
from histcmi.datagen import SCENARIOS


class TestSpecValidation:
    def test_unknown_scenario(self):
        with pytest.raises(InputError):
            ScenarioSpec("exp9", 100, 0)

    def test_bad_sample_size(self):
        with pytest.raises(InputError):
            ScenarioSpec("exp1", 0, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed"):
            ScenarioSpec("exp1", 10, -1)

    @pytest.mark.parametrize("n, seed, extra", [
        (10.5, 0, {}), (10.0, 0, {}), (True, 0, {}), (np.float64(10), 0, {}),
        (10, 1.5, {}), (10, False, {}), (10, "0", {}),
        (10, 0, {"k": 2.5}), (10, 0, {"k": True}), (10, 0, {"k": 2.0}), (10, 0, {"k": "2"}),
    ])
    def test_non_integer_size_seed_or_k_rejected(self, n, seed, extra):
        with pytest.raises(InputError, match="must be an integer"):
            ScenarioSpec("exp6", n, seed, extra)

    def test_numpy_integers_accepted(self):
        spec = ScenarioSpec("exp6", np.int64(10), np.uint64(3), {"k": np.int32(2)})
        assert generate(spec).data.shape == (10, 4)

    @pytest.mark.parametrize("scenario,extra", [("exp6", {"kk": 3}), ("exp1", {"k": 3}),
                                                ("network", {"k": 1}), ("exp6", {"k": 2, "n": 5})])
    def test_parameter_the_scenario_does_not_read_rejected(self, scenario, extra):
        with pytest.raises(InputError, match="does not read"):
            ScenarioSpec(scenario, 10, 0, extra)


class TestReproducibility:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_identical_seed_identical_data(self, scenario):
        spec = ScenarioSpec(scenario, 300, 12345, {"k": 2} if scenario == "exp6" else {})
        a, b = generate(spec), generate(spec)
        assert a.names == b.names
        assert np.array_equal(a.data, b.data)

    def test_identical_csv_bytes(self):
        spec = ScenarioSpec("exp1", 200, 7)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_csv_dataset(generate(spec), buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_different_seeds_differ(self):
        a = generate(ScenarioSpec("exp1", 200, 1))
        b = generate(ScenarioSpec("exp1", 200, 2))
        assert not np.array_equal(a.data, b.data)

    def test_replicate_seed_deterministic(self):
        assert replicate_seed(5, 3) == replicate_seed(5, 3)
        assert replicate_seed(5, 3) != replicate_seed(5, 4)

    @pytest.mark.parametrize("base,index", [(-1, 0), (0, -1)])
    def test_replicate_seed_rejects_negative_base_or_index(self, base, index):
        with pytest.raises(InputError, match=">= 0"):
            replicate_seed(base, index)


class TestMarginals:
    N = 100_000

    def test_exp1_correlation(self):
        ds = generate(ScenarioSpec("exp1", self.N, 0))
        assert abs(np.corrcoef(ds.data[:, 0], ds.data[:, 1])[0, 1] - 0.6) < 0.01

    def test_exp2_uniform_support_and_conditional_range(self):
        ds = generate(ScenarioSpec("exp2", self.N, 1))
        x, y = ds.data[:, 0], ds.data[:, 1]
        freqs = np.bincount(x.astype(int), minlength=5) / self.N
        assert np.all(np.abs(freqs - 0.2) < 0.01)
        assert np.all((y - x >= 0) & (y - x <= 2))

    def test_exp3_zero_inflation(self):
        ds = generate(ScenarioSpec("exp3", self.N, 2))
        assert np.mean(ds.data[:, 1] == 0.0) >= 0.15

    def test_exp4_marginal_means(self):
        ds = generate(ScenarioSpec("exp4", self.N, 3))
        x, y, z = ds.data.T
        assert abs(x.mean() - 0.5) < 3 * 0.5 / math.sqrt(self.N)
        assert abs(z.mean() - 0.5) < 0.02  # E[Z] = E[X]
        assert abs(y.mean() - 0.25) < 0.02  # E[Y] = E[Z]/2

    def test_exp5_mixture_halves(self):
        ds = generate(ScenarioSpec("exp5", self.N, 4))
        x, y, z = ds.data.T
        atom_rows = np.isin(x, (-1.0, 1.0)) & np.isin(y, (-1.0, 1.0))
        assert abs(atom_rows.mean() - 0.5) < 0.01
        p11 = np.mean((x == 1.0) & (y == 1.0))
        assert abs(p11 - 0.2) < 0.01
        assert set(np.unique(z)) == {0.0, 1.0}
        assert np.array_equal(z == 1.0, atom_rows)  # Z flags the discrete branch

    def test_exp6_adds_k_conditioning_dims(self):
        ds = generate(ScenarioSpec("exp6", 2000, 5, {"k": 3}))
        assert ds.names == ("X", "Y", "Z1", "Z2", "Z3")
        assert ds.z == ("Z1", "Z2", "Z3")
        for j in (2, 3, 4):
            assert set(np.unique(ds.data[:, j])) <= {0.0, 1.0, 2.0, 3.0}

    def test_network_shape_and_mixture_node(self):
        ds = generate(ScenarioSpec("network", 20000, 6))
        assert ds.names == tuple("ABCDEFG")
        g = ds.column("G")
        _, counts = np.unique(g, return_counts=True)
        assert counts.max() >= 5  # Poisson branch makes exact repeats
        assert np.mean(counts == 1) > 0.5  # Gaussian branch keeps a continuum
        b = ds.column("B")
        assert set(np.unique(b)) == {0.0, 1.0, 2.0, 3.0, 4.0}

    def test_battery_scenarios_declare_verdicts(self):
        for sid in SCENARIOS:
            spec = ScenarioSpec(sid, 50, 0)
            ds = generate(spec)
            if sid.startswith("collider"):
                assert ds.truth_verdict == "dependent"
            elif sid.startswith("noncollider") or sid == "exp4":
                assert ds.truth_verdict == "independent"

    def test_collider5_xor_structure(self):
        ds = generate(ScenarioSpec("collider5", 5000, 7))
        x, y, z = ds.data.T
        assert set(np.unique(x)) == {0.0, 1.0}
        xor = np.logical_xor(x == 1, y == 1)
        # xor=0 rows stay near zero, xor=1 rows are Poisson-scaled
        assert np.abs(z[~xor]).max() < np.abs(z[xor]).std() * 20


class TestGroundTruth:
    def test_closed_forms(self):
        assert ground_truth(ScenarioSpec("exp1", 10, 0)) == pytest.approx(0.22314, abs=1e-5)
        assert ground_truth(ScenarioSpec("exp2", 10, 0)) == pytest.approx(1.05492, abs=1e-5)
        assert ground_truth(ScenarioSpec("exp3", 10, 0)) == pytest.approx(0.2560, abs=5e-4)
        assert ground_truth(ScenarioSpec("exp4", 10, 0)) == 0.0
        assert ground_truth(ScenarioSpec("exp5", 10, 0)) == pytest.approx(0.352, abs=5e-4)
        assert ground_truth(ScenarioSpec("exp6", 10, 0)) == ground_truth(
            ScenarioSpec("exp2", 10, 0))

    def test_structure_scenarios_have_no_value(self):
        for sid in ("network", "collider1", "noncollider4"):
            assert ground_truth(ScenarioSpec(sid, 10, 0)) is None


class TestNetworkTruth:
    def test_seven_edges(self):
        edges = true_network_edges()
        assert len(edges) == 7

    def test_contains_the_chain(self):
        edges = true_network_edges()
        assert ("C", "E") in edges and ("E", "G") in edges

    def test_sources_not_adjacent(self):
        assert ("A", "B") not in true_network_edges()
