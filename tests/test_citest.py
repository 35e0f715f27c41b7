import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import chdtrc, chdtri
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

X = VariableGroup("X", (0,))
Y = VariableGroup("Y", (1,))
Z = VariableGroup("Z", (2,))


def _upper_tail(df, x) -> float:
    """Q(df/2, x/2), the upper tail of chi2(df) at x, as the chi2 test computes it."""
    return math.exp(citest._ln_gamma_tail(df / 2, x / 2))


class TestChi2UpperTail:
    def test_known_values(self):
        assert _upper_tail(1, 6.6349) == pytest.approx(0.01, abs=1e-7)
        # df = 2 has the closed form Q = e^(-x/2), through the series below
        # x = 4 and the continued fraction above
        for x in (1.0, 3.0, 3.98, 4.0, 6.0, 20.0, 200.0, 1400.0):
            assert citest._ln_gamma_tail(1.0, x / 2) == pytest.approx(-x / 2, rel=1e-15, abs=1e-15)

    def test_tiny_argument_gives_a_tail_just_below_one(self):
        # Q(1/2, y) = 1 - erf(sqrt(y)), and ln Q must keep its bits as it nears 0
        assert citest._ln_gamma_tail(0.5, 1e-18) == pytest.approx(
            math.log1p(-math.erf(1e-9)), rel=1e-14, abs=0.0)

    # the chi2 quantiles from the median down to 1e-300, and two above 1/2
    # where Q comes from 1 - P
    GRID_ALPHAS = (0.5, 0.2, 0.1, 0.05, 0.01, 0.001, 1e-6, 1e-12, 1e-300, 0.9, 0.99)
    GRID_DFS = (*range(1, 2001), 10**4, 10**5, 10**6, 2**31, 2**53, 2**63 - 1)

    @pytest.fixture(scope="class")
    def grid(self):
        """(df, alpha) -> (x, Q(df/2, x/2)) at scipy's (1 - alpha) quantile x."""
        grid = {}
        for df in self.GRID_DFS:
            for alpha in self.GRID_ALPHAS:
                x = chdtri(df, alpha)
                grid[df, alpha] = x, _upper_tail(df, x)
        return grid

    def test_matches_chdtrc_over_the_grid(self, grid):
        # the tolerances bound Q, measured at 5.3e-12 and 9.1e-11
        for (df, alpha), (x, value) in grid.items():
            rel = 6e-12 if df <= 10**6 else 1e-10
            assert value == pytest.approx(chdtrc(df, x), rel=rel, abs=0.0), (df, alpha)

    def test_strictly_monotone_over_the_grid(self, grid):
        alphas = sorted(self.GRID_ALPHAS, reverse=True)  # ascending quantiles
        for df in self.GRID_DFS:
            row = [grid[df, alpha][1] for alpha in alphas]
            assert all(a > b for a, b in zip(row, row[1:])), df
        # at a fixed point, more degrees of freedom leave more mass above it
        for df, more in zip(self.GRID_DFS, self.GRID_DFS[1:]):
            for alpha in self.GRID_ALPHAS:
                x, value = grid[df, alpha]
                assert _upper_tail(more, x) > value, (df, alpha)

    def test_temme_expansion_agrees_with_the_series_and_fraction(self, monkeypatch):
        # from df = 10^5 on Q comes from Temme's expansion, where the series and
        # the continued fraction still converge; its C1 term alone moves Q by
        # about 1e-9 there
        points = [(df, chdtri(df, alpha)) for df in (10**5, 10**5 + 1, 10**6)
                  for alpha in self.GRID_ALPHAS]
        temme = [_upper_tail(df, x) for df, x in points]
        monkeypatch.setattr(citest, "_TEMME_MIN_A", math.inf)
        for (df, x), value in zip(points, temme):
            assert value == pytest.approx(_upper_tail(df, x), rel=1e-13, abs=0.0), df


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


def _python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this histcmi."""
    src = str(Path(histcmi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=300)


def test_no_scipy_at_run_time():
    # estimates, both CI tests and the CLI run with every scipy import refused
    out = _python(_NO_SCIPY_PROBE)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "True"
    assert out.stderr.splitlines()[-1] == "[0, 0]"


def test_import_loads_neither_scipy_nor_statistics():
    # statistics would bring fractions and decimal along, for nothing the package reads
    out = _python("import sys, histcmi.cli\n"
                  "print(sorted({'scipy', 'statistics'} & set(sys.modules)))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


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
                assert chi2.independent, (s, chi2.raw)
                assert chi2.detail["df"] == 0
                assert chi2.detail["p_value"] == 1.0
                sc = citest_sc(data, X, Y, Z)
                assert sc.independent, (s, sc.raw)
                assert repr(sc.correction) == "0.0"  # never -0.0 in a report
                assert sc.corrected == 0.0
                assert not sc.sc_correction_clamped

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

    def test_verdict_is_the_p_value_against_alpha(self):
        for sid, n, seed in (("exp5", 600, 7), ("exp4", 400, 6)):
            ds = generate(ScenarioSpec(sid, n, seed))
            res = citest_chi2(ds.data, X, Y, Z, alpha=0.05)
            assert 0.0 <= res.detail["p_value"] <= 1.0
            assert res.independent == (res.detail["p_value"] >= res.detail["alpha"])
            # the sc correction has no chi2 counterpart
            assert res.correction is None and res.corrected is None

    def test_verdict_monotone_in_alpha_and_p_value_does_not_read_it(self):
        ds = generate(ScenarioSpec("exp4", 400, 6))  # p = 0.85
        results = [citest_chi2(ds.data, X, Y, Z, alpha=a)
                   for a in (0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 0.99)]
        verdicts = [r.independent for r in results]
        assert verdicts == sorted(verdicts, reverse=True)
        assert verdicts[0] and not verdicts[-1]
        assert len({r.detail["p_value"] for r in results}) == 1

    def test_nonpositive_estimate_reads_as_p_one(self):
        # Z = X makes I(X;Y|Z) 0 up to rounding: -2.2e-16 nats here, with df 40
        ds = generate(ScenarioSpec("exp1", 300, 0))
        res = citest_chi2(ds.data[:, [0, 1, 0]], X, Y, Z, alpha=0.01)
        assert res.raw <= 0.0 and res.detail["df"] > 0
        assert res.detail["p_value"] == 1.0
        assert res.independent

    def test_determinism(self):
        ds = generate(ScenarioSpec("exp4", 500, 9))
        r1 = citest_chi2(ds.data, X, Y, Z, alpha=0.01)
        r2 = citest_chi2(ds.data, X, Y, Z, alpha=0.01)
        assert (r1.raw, r1.detail, r1.independent) == (r2.raw, r2.detail, r2.independent)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5, "0.01", None, [0.01], True])
    def test_rejects_bad_alpha(self, alpha):
        ds = generate(ScenarioSpec("exp4", 100, 0))
        with pytest.raises(InputError, match="alpha"):
            citest_chi2(ds.data, X, Y, Z, alpha=alpha)

    def test_numpy_alpha_reads_as_its_value(self):
        ds = generate(ScenarioSpec("exp4", 400, 6))
        plain = citest_chi2(ds.data, X, Y, Z, alpha=0.05)
        for alpha in (np.float64(0.05), np.float32(0.05)):
            res = citest_chi2(ds.data, X, Y, Z, alpha=alpha)
            assert (res.independent, res.detail["p_value"]) == \
                   (plain.independent, plain.detail["p_value"])


def test_p_value_and_verdict_match_scipy_on_the_ci_batteries():
    # the first 25 replicates of each of acceptance criterion 9's batteries:
    # the p-value is chi2's upper tail at 2n I_n within the Q tolerance, and
    # the verdict is that of 2n I_n against the (1 - alpha) quantile
    for sid, n in (("noncollider1", 1000), ("noncollider2", 1000),
                   ("collider5", 400), ("collider6", 400)):
        for rep in range(25):
            ds = generate(ScenarioSpec(sid, n, replicate_seed(900, rep)))
            res = citest_chi2(ds.data, X, Y, Z, alpha=0.01)
            df, statistic = res.detail["df"], 2 * res.estimate.n * res.raw
            assert res.detail["p_value"] == pytest.approx(
                chdtrc(df, statistic), rel=6e-12, abs=0.0), (sid, rep)
            assert res.independent == (not statistic > scipy_chi2.ppf(0.99, df)), (sid, rep)


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
