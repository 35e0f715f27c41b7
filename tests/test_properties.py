"""Invariances of the CMI estimate on small random mixed datasets.

Reordering rows or Z columns, or swapping the X and Y columns, changes only
the order of float sums inside the fit, so the estimate may move by rounding
and no more.  A plug-in CMI of one fitted histogram is never negative.  A
positive affine map of X moves its candidate grid with it, so the estimate
holds up to grid rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histcmi import VariableGroup, cmi_estimate
from histcmi.datagen import ScenarioSpec, generate

TOL = 1e-12
AFFINE_TOL = 1e-9


def _column(rng, kind, base):
    """One column of n rows: continuous, discrete, or a discrete-continuous mixture."""
    n = len(base)
    cont = base + rng.normal(size=n)
    if kind == "continuous":
        return cont
    levels = np.floor(np.clip(base, -2.0, 2.0)) + rng.integers(0, 2, size=n)
    if kind == "discrete":
        return levels
    return np.where(rng.random(n) < 0.4, levels, cont)


@st.composite
def mixed_datasets(draw):
    """(data, n_z, row permutation): columns X, Y, then 1-2 Z columns, 40-200 rows."""
    n = draw(st.integers(40, 200))
    kinds = draw(st.lists(st.sampled_from(["continuous", "discrete", "mixture"]),
                          min_size=3, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.normal(size=n)  # a common cause, so some columns depend on others
    data = np.column_stack([_column(rng, kind, base * rng.random()) for kind in kinds])
    return data, len(kinds) - 2, rng.permutation(n)


def _estimate(data, n_z):
    z = VariableGroup("Z", tuple(range(2, 2 + n_z)))
    return cmi_estimate(data, VariableGroup("X", (0,)), VariableGroup("Y", (1,)), z).value


@settings(max_examples=12, deadline=None, derandomize=True)
@given(mixed_datasets())
def test_estimate_invariances_and_nonnegativity(case):
    data, n_z, rows = case
    value = _estimate(data, n_z)
    assert value >= -TOL
    swapped = data[:, [1, 0, *range(2, 2 + n_z)]]
    z_reversed = data[:, [0, 1, *reversed(range(2, 2 + n_z))]]
    for variant in (swapped, z_reversed, data[rows]):
        assert abs(_estimate(variant, n_z) - value) <= TOL


def _fit_x_mapped(ds, a, b):
    """The estimate with X replaced by a·X + b (the X column is first)."""
    data = np.column_stack([a * ds.column(ds.x[0]) + b]
                           + [ds.column(c) for c in ds.y + ds.z])
    nz = len(ds.z)
    return cmi_estimate(data, VariableGroup("X", (0,)), VariableGroup("Y", (1,)),
                        VariableGroup("Z", tuple(range(2, 2 + nz))))


@pytest.mark.parametrize("scenario", ["exp1", "exp2", "exp3", "exp4", "exp5", "exp6"])
def test_positive_affine_map_of_x(scenario):
    # A power-of-two scale maps the candidate grid and every cell volume exactly,
    # so cuts and estimate are bit-identical.  Other maps move the grid by
    # rounding, which the estimate may follow by at most AFFINE_TOL.
    for seed in range(5):
        ds = generate(ScenarioSpec(scenario, 500, seed))
        base = _fit_x_mapped(ds, 1.0, 0.0)
        for a in (4.0, 0.25):
            est = _fit_x_mapped(ds, a, 0.0)
            assert est.value == base.value
            for d, dim in enumerate(base.fit.grid.dims):
                assert np.array_equal(est.fit.grid.dims[d].cuts, dim.cuts)
        for a, b in ((3.7, -2.2), (1.0, 1.5)):
            assert abs(_fit_x_mapped(ds, a, b).value - base.value) <= AFFINE_TOL
