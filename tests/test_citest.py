import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import chdtri
from scipy.stats import chi2 as scipy_chi2

import histcmi
from histcmi import (
    InputError,
    ScenarioSpec,
    VariableGroup,
    citest_chi2,
    citest_sc,
    generate,
    replicate_seed,
)
from histcmi import citest
from histcmi.citest import chi2_critical

X = VariableGroup("X", (0,))
Y = VariableGroup("Y", (1,))
Z = VariableGroup("Z", (2,))


class TestChi2Critical:
    def test_known_values(self):
        assert chi2_critical(0.01, 1) == pytest.approx(6.6349, abs=1e-4)
        # df = 2 has the closed form -2 ln(alpha)
        assert chi2_critical(0.05, 2) == pytest.approx(-2.0 * math.log(0.05), abs=1e-9)

    def test_alpha_near_one_gives_zero_quantile(self):
        assert chi2_critical(1.0 - 1e-9, 3) < 1e-2
        value = chi2_critical(1.0 - 1e-9, 1)
        assert math.isfinite(value) and value >= 0.0

    def test_matches_scipy_ppf(self):
        for alpha in (0.2, 0.05, 0.01, 0.001):
            for df in (1, 2, 5, 30, 240):
                assert chi2_critical(alpha, df) == pytest.approx(
                    scipy_chi2.ppf(1 - alpha, df), abs=1e-7)

    # alpha from the median down to 1e-300, and two values above 1/2 where
    # the lower tail P = 1 - alpha is solved instead
    GRID_ALPHAS = (0.5, 0.2, 0.1, 0.05, 0.01, 0.001, 1e-6, 1e-12, 1e-300, 0.9, 0.99)
    GRID_DFS = (*range(1, 2001), 10**4, 10**5, 10**6, 2**31, 2**53, 2**63 - 1)

    @pytest.fixture(scope="class")
    def grid(self):
        return {(df, alpha): chi2_critical(alpha, df)
                for df in self.GRID_DFS for alpha in self.GRID_ALPHAS}

    def test_matches_chdtri_over_the_grid(self, grid):
        for (df, alpha), value in grid.items():
            rel = 1e-12 if df <= 10**6 else 1e-10
            assert value == pytest.approx(chdtri(df, alpha), rel=rel, abs=0.0), (df, alpha)

    def test_strictly_monotone_over_the_grid(self, grid):
        alphas = sorted(self.GRID_ALPHAS)
        for df in self.GRID_DFS:
            row = [grid[df, alpha] for alpha in alphas]
            assert all(a > b for a, b in zip(row, row[1:])), df
        for alpha in alphas:
            column = [grid[df, alpha] for df in self.GRID_DFS]
            assert all(a < b for a, b in zip(column, column[1:])), alpha

    def test_temme_expansion_agrees_with_the_series_and_fraction(self, monkeypatch):
        # from df = 10^5 on the quantile comes from Temme's expansion, where the
        # series and the continued fraction still converge; its C1 term alone
        # moves df = 10^5 by 8e-13
        dfs = (10**5, 10**5 + 1, 10**6)
        temme = {(df, alpha): chi2_critical(alpha, df)
                 for df in dfs for alpha in self.GRID_ALPHAS}
        monkeypatch.setattr(citest, "_TEMME_MIN_A", math.inf)
        for (df, alpha), value in temme.items():
            assert value == pytest.approx(chi2_critical(alpha, df), rel=1e-14, abs=0.0)

    def test_rejects_bad_inputs(self):
        for alpha in (0.0, 1.0, -0.2, 1.7, "0.01", None, [0.01], True):
            with pytest.raises(InputError):
                chi2_critical(alpha, 3)
        with pytest.raises(InputError):
            chi2_critical(0.05, 0)

    def test_numpy_alpha_reads_as_its_value(self):
        for alpha in (np.float64(0.05), np.float32(0.05)):
            assert chi2_critical(alpha, 2) == pytest.approx(chi2_critical(0.05, 2), rel=1e-6)

    @pytest.mark.parametrize("df", [2.5, True, "3", None, 3.0])
    def test_rejects_a_non_integer_df(self, df):
        with pytest.raises(InputError, match="df must be an integer"):
            chi2_critical(0.05, df)

    def test_numpy_integer_df_reads_as_its_value(self):
        assert chi2_critical(0.05, np.int64(3)) == chi2_critical(0.05, 3)

    def test_memo_keeps_the_input_checks(self):
        # the quantile is kept per (alpha, df), and only checked arguments reach it
        first = chi2_critical(0.01, 1)
        assert chi2_critical(np.float64(0.01), np.int64(1)) == first
        for alpha, df in ((0.01, True), (0.01, 1.0), (True, 1), (1.01, 1), (0.01, 0)):
            with pytest.raises(InputError):
                chi2_critical(alpha, df)


_NO_SCIPY_PROBE = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from histcmi import ScenarioSpec, VariableGroup, citest_chi2, citest_sc, cmi_estimate, generate
from histcmi.cli import main
data = generate(ScenarioSpec("exp5", 300, 1)).data
X, Y, Z = (VariableGroup(name, (j,)) for j, name in enumerate("XYZ"))
cmi_estimate(data, X, Y, Z)
citest_sc(data, X, Y, Z)
print(citest_chi2(data, X, Y, Z).detail["df"] > 0)
codes = [main(["discover", "network", "--n", "500", "--max-level", "1"]),
         main(["citest", "exp1", "--n", "300"])]
print(codes, file=sys.stderr)
"""


def test_no_scipy_at_run_time():
    # estimates, both CI tests and the CLI run with every scipy import refused
    src = str(Path(histcmi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "True"
    assert out.stderr.splitlines()[-1] == "[0, 0]"


class TestChi2Test:
    def test_constant_column_is_independent_of_everything(self):
        # Both tests, the constant as X and as Y, given Z.  Î of a side with
        # one bin is 0 only up to rounding (2.2e-16 on seeds 12, 13, 26 and
        # 29), and so is sc's correction (3.6e-15 bits on every seed); neither
        # residue may read as dependence or as a clamped correction.
        for s in range(30):
            rng = np.random.default_rng(s)
            z = rng.integers(0, 3, 300).astype(float)
            y = z + rng.normal(size=300)
            for data in (np.column_stack([np.zeros(300), y, z]),
                         np.column_stack([y, np.zeros(300), z])):
                chi2 = citest_chi2(data, X, Y, Z, alpha=0.01)
                assert chi2.detail["df"] == 0
                for res in (chi2, citest_sc(data, X, Y, Z)):
                    assert res.independent, (s, res.method, res.raw)
                    assert repr(res.correction) == "0.0"  # never -0.0 in a report
                    assert res.corrected == 0.0
                    assert not res.sc_correction_clamped

    def test_markov_chain_accepted_as_independent(self):
        hits = 0
        for rep in range(30):
            ds = generate(ScenarioSpec("exp4", 1000, replicate_seed(100, rep)))
            hits += citest_chi2(ds.data, X, Y, Z, alpha=0.01).independent
        assert hits >= 27

    def test_xor_scaled_collider_detected_at_400(self):
        hits = 0
        for rep in range(30):
            ds = generate(ScenarioSpec("collider5", 400, replicate_seed(101, rep)))
            hits += not citest_chi2(ds.data, X, Y, Z, alpha=0.01).independent
        assert hits >= 27

    def test_correction_nonpositive_and_verdict_consistent(self):
        ds = generate(ScenarioSpec("exp5", 600, 7))
        res = citest_chi2(ds.data, X, Y, Z, alpha=0.05)
        assert res.correction <= 0.0
        assert res.corrected == max(0.0, res.raw + res.correction)
        assert res.independent == (res.corrected == 0.0)

    def test_corrected_value_monotone_in_alpha(self):
        ds = generate(ScenarioSpec("exp5", 1000, 3))
        values = [citest_chi2(ds.data, X, Y, Z, alpha=a).corrected
                  for a in (0.001, 0.01, 0.05, 0.2)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_determinism(self):
        ds = generate(ScenarioSpec("exp4", 500, 9))
        r1 = citest_chi2(ds.data, X, Y, Z, alpha=0.01)
        r2 = citest_chi2(ds.data, X, Y, Z, alpha=0.01)
        assert (r1.raw, r1.correction, r1.corrected, r1.independent) == \
               (r2.raw, r2.correction, r2.corrected, r2.independent)

    @pytest.mark.parametrize("alpha", [1.5, "0.01", None, True])
    def test_rejects_bad_alpha(self, alpha):
        ds = generate(ScenarioSpec("exp4", 100, 0))
        with pytest.raises(InputError, match="alpha"):
            citest_chi2(ds.data, X, Y, Z, alpha=alpha)


class TestScTest:
    def test_two_constant_columns(self):
        data = np.column_stack([np.full(50, 1.0), np.full(50, 2.0)])
        res = citest_sc(data, X, Y)
        assert res.independent
        assert res.correction == 0.0
        assert res.corrected == 0.0

    def test_correction_negative_on_fitted_instances(self):
        for scenario, rep in (("exp4", 0), ("exp5", 1), ("exp1", 2)):
            ds = generate(ScenarioSpec(scenario, 400, rep))
            z = Z if len(ds.names) == 3 else None
            res = citest_sc(ds.data, X, Y, z)
            assert res.correction <= 0.0
            assert not res.sc_correction_clamped

    def test_markov_chain_high_independence_recall(self):
        hits = 0
        for rep in range(30):
            ds = generate(ScenarioSpec("exp4", 1000, replicate_seed(102, rep)))
            hits += citest_sc(ds.data, X, Y, Z).independent
        assert hits >= 29  # the SC correction is the more conservative test

    def test_detects_strong_dependence(self):
        ds = generate(ScenarioSpec("exp5", 1000, 3))
        assert not citest_sc(ds.data, X, Y, Z).independent
