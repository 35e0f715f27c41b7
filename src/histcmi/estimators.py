"""Plug-in entropies and histogram-based (conditional) mutual information.

A single joint adaptive histogram is fitted over all of (X, Y, Z); the four
entropies of I(X;Y|Z) = H(X,Z) + H(Y,Z) - H(X,Y,Z) - H(Z) are then plug-in
entropies of label projections of that one fit.  Because marginal cell
volumes are products of per-dimension bin volumes, every volume term in the
continuous-form estimator cancels across the four-entropy sum, so the
discrete plug-in value *is* the continuous estimate; both are computed and
cross-checked on every call.  The continuous side is each grid projection's
code length from :func:`histcmi.complexity.neg_log_likelihood`, as in the score.

Estimates are in nats; the model-selection scores underneath stay in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .complexity import neg_log_likelihood
from .data_model import Grid, cell_ids, detect_discrete_points, unique_ids
from .errors import InputError, ModelError
from .histmd import ColumnStart, FitConfig, FitResult, greedy_fit, start_column

_CANCELLATION_TOL = 1e-9


@dataclass(frozen=True)
class VariableGroup:
    """Named set of dataset dimensions playing the X, Y or Z role."""

    name: str
    dims: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.dims)) != len(self.dims):
            raise InputError(f"group {self.name!r} repeats a dimension")


@dataclass(frozen=True)
class EstimateResult:
    value: float  # nats
    h_xz: float
    h_yz: float
    h_xyz: float
    h_z: float
    dom_x: int
    dom_y: int
    dom_z: int
    n: int
    bins_per_dim: tuple[int, ...]
    fit: FitResult


def plugin_entropy(labels: np.ndarray) -> float:
    """Empirical entropy -sum p*ln(p) of the observed label tuples, in nats.

    ``labels`` is (n,) or (n, d); d = 0 means the empty projection (entropy 0).
    """
    labels = np.asarray(labels)
    if labels.ndim == 1:
        labels = labels[:, None]
    n = len(labels)
    if n == 0:
        raise InputError("plugin entropy of an empty sample is undefined")
    # cells counted in the order of ids with the last column most significant
    radices = labels.max(axis=0, initial=0).astype(np.int64) + 1
    counts = unique_ids(cell_ids(labels[:, ::-1], radices[::-1]))[2]
    p = counts / n
    return 0.0 - float(np.sum(p * np.log(p)))  # +0.0, not -0.0, for one cell


def continuous_entropy_terms(grid: Grid, groups: Mapping[str, Sequence[int]]) -> dict[str, float]:
    """Continuous-form entropy of each named grid projection, in nats.

    Used as the cancellation self-check: across H(XZ) + H(YZ) - H(XYZ) - H(Z)
    the volume terms sum to zero because each row's per-dimension volumes
    appear exactly twice with each sign.
    """
    if len(grid.counts) == 0:
        raise InputError("empty grid")
    return {name: neg_log_likelihood(grid, dims) * math.log(2.0) / grid.n
            for name, dims in groups.items()}


def _check_groups(k: int, x: VariableGroup, y: VariableGroup, z: VariableGroup):
    all_dims = x.dims + y.dims + z.dims
    if sorted(all_dims) != list(range(k)):
        raise InputError("X, Y, Z must be disjoint and cover every dataset dimension")
    if not x.dims or not y.dims:
        raise InputError("X and Y must be non-empty")


def _domain_size(grid: Grid, dims) -> int:
    return math.prod(grid.dims[d].n_bins for d in dims)


def prepare_column(values, config: FitConfig) -> ColumnStart:
    """One sample column's start for fits under ``config``: its discrete
    points detected, its candidate grid, start labels and segmentation
    table.  It depends on the column and the config alone, so a caller that
    fits several column sets of one dataset prepares each column once."""
    return start_column(detect_discrete_points(values, t=config.t), config)


def fit_columns(starts: Sequence[ColumnStart], config: FitConfig) -> FitResult:
    """Joint histogram of the prepared columns, in their order."""
    return greedy_fit(list(starts), config)


def cmi_estimate(
    dataset,
    x: VariableGroup,
    y: VariableGroup,
    z: VariableGroup | None = None,
    config: FitConfig | None = None,
    fit: FitResult | None = None,
) -> EstimateResult:
    """Estimate I(X;Y|Z) (or I(X;Y) for empty Z) on mixed data, in nats.

    ``dataset`` is an (n, k) float array.  One joint histogram is fitted over
    all dimensions; pass ``fit`` to reuse an existing fit of the same data.
    A fit whose row or column count differs from ``dataset`` is rejected.
    """
    config = config or FitConfig()
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim != 2:
        raise InputError("dataset must be a 2-D (rows, columns) array")
    z = z or VariableGroup("Z", ())
    _check_groups(data.shape[1], x, y, z)

    if fit is None:
        fit = fit_columns([prepare_column(data[:, j], config) for j in range(data.shape[1])],
                          config)
    elif fit.labels.shape != data.shape:
        raise InputError(f"fit of shape {fit.labels.shape} does not match data of shape "
                         f"{data.shape}")
    labels = fit.labels
    n = len(labels)

    groups = {
        "xz": x.dims + z.dims,
        "yz": y.dims + z.dims,
        "xyz": x.dims + y.dims + z.dims,
        "z": z.dims,
    }
    h = {name: plugin_entropy(labels[:, dims]) for name, dims in groups.items()}
    value = h["xz"] + h["yz"] - h["xyz"] - h["z"]

    terms = continuous_entropy_terms(fit.grid, groups)
    i_cont = terms["xz"] + terms["yz"] - terms["xyz"] - terms["z"]
    if not math.isclose(i_cont, value, abs_tol=_CANCELLATION_TOL):
        raise ModelError(
            f"volume cancellation violated: continuous {i_cont} vs plug-in {value}")

    return EstimateResult(
        value=value,
        h_xz=h["xz"], h_yz=h["yz"], h_xyz=h["xyz"], h_z=h["z"],
        dom_x=_domain_size(fit.grid, x.dims),
        dom_y=_domain_size(fit.grid, y.dims),
        dom_z=_domain_size(fit.grid, z.dims),
        n=n,
        bins_per_dim=tuple(b.n_bins for b in fit.grid.dims),
        fit=fit,
    )
