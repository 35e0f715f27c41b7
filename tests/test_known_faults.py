"""Known faults of the CI tests, pinned on their exact data as strict xfails.

Each test asserts the behaviour the estimator should have and fails today.
``xfail_strict`` makes a fix show up as a failure of the suite, so the fix
removes the marker in the same change.
"""

import numpy as np
import pytest

from histcmi import VariableGroup, citest_chi2, citest_sc

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
