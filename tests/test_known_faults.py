"""Known faults of the CI tests, pinned on their exact data as strict xfails.

Each test asserts the behaviour the estimator should have and fails today.
``xfail_strict`` makes a fix show up as a failure of the suite, so the fix
removes the marker in the same change.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from histcmi import (
    ScenarioSpec,
    VariableGroup,
    citest_chi2,
    citest_sc,
    cmi_estimate,
    generate,
    replicate_seed,
)

X, Y = VariableGroup("X", (0,)), VariableGroup("Y", (1,))


@pytest.mark.xfail(reason="ROADMAP item 5: sc reports dependence when joint cells "
                          "outnumber rows", strict=True)
def test_sc_keeps_independence_when_joint_cells_outnumber_rows():
    """ROADMAP item 5: X uniform on 46 levels, Y ~ N(0, 1) drawn independently,
    n = 500.  Y gets 26-32 bins, Î is 1.12-1.27 nats, and ``citest_sc`` reports
    dependence on all five seeds."""
    dependent = []
    for s in range(5):
        rng = np.random.default_rng(s)
        x = rng.integers(0, 46, 500)
        y = rng.normal(size=500)
        if not citest_sc(np.column_stack([x, y]).astype(float), X, Y).independent:
            dependent.append(s)
    assert dependent == []


@pytest.mark.xfail(reason="ROADMAP item 7: chi2 rejects independence far above "
                          "its alpha", strict=True)
def test_chi2_keeps_its_alpha_on_independent_gaussians():
    """ROADMAP item 7: N(0, 1) ⊥ N(0, 1), n = 1000, 200 seeds.  At alpha 0.01
    more than 8 rejections has probability 0.0002 under Bin(200, 0.01);
    ``citest_chi2`` rejects 51 times."""
    rejections = 0
    for s in range(200):
        rng = np.random.default_rng(20000 + s)
        data = np.column_stack([rng.normal(size=1000), rng.normal(size=1000)])
        rejections += not citest_chi2(data, X, Y, alpha=0.01).independent
    assert rejections <= 8


@pytest.mark.xfail(reason="ROADMAP item 17: no single re-cut sees dependence between "
                          "flat marginals", strict=True)
def test_both_tests_see_dependence_between_uniform_marginals():
    """ROADMAP item 17: a Gaussian copula with uniform marginals, (Φ(A), Φ(B))
    with corr(A, B) = 0.9 (I = 0.830 nats), n = 1000.  Every fit stays at 1×1
    bins, Î = 0, and both tests report independence on all three seeds; the
    Gaussian pair (A, B) itself reads Î = 0.77-0.85."""
    missed = []
    for s in range(3):
        rng = np.random.default_rng(s)
        a = rng.normal(size=1000)
        b = 0.9 * a + math.sqrt(0.19) * rng.normal(size=1000)
        data = np.column_stack([ndtr(a), ndtr(b)])
        for test in (citest_chi2, citest_sc):
            if test(data, X, Y).independent:
                missed.append((s, test.__name__))
    assert missed == []


@pytest.mark.xfail(reason="ROADMAP item 18: the equal-width candidate grid loses a "
                          "heavy-tailed column", strict=True)
def test_estimate_keeps_its_value_under_a_monotone_map_of_x():
    """ROADMAP item 18: CMI is invariant under a strictly monotone map of X.
    exp1 at n = 4000 (truth 0.223): raw Î reads 0.224-0.248 and Î after
    X -> exp(2.5 X) 0.044-0.079 on the five replicates."""
    gaps = []
    for r in range(5):
        data = generate(ScenarioSpec("exp1", 4000, replicate_seed(7, r))).data
        raw = cmi_estimate(data, X, Y).value
        mapped = cmi_estimate(np.column_stack([np.exp(2.5 * data[:, 0]), data[:, 1]]),
                              X, Y).value
        gaps.append(abs(mapped - raw))
    assert max(gaps) <= 0.05
