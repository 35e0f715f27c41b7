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
:func:`run_estimation_benchmark` is the replicate loop over a scenario's
seeded draws, scored against its ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .complexity import neg_log_likelihood
from .data_model import Grid, count_cells, detect_discrete_points
from .datagen import Dataset, ScenarioSpec, generate, ground_truth, replicate_seed
from .errors import InputError, ModelError, require_integer
from .histmd import ColumnStart, FitConfig, FitResult, greedy_fit, start_column

_CANCELLATION_TOL = 1e-9


@dataclass(frozen=True)
class VariableGroup:
    """Named set of dataset dimensions playing the X, Y or Z role."""

    name: str
    dims: tuple[int, ...]

    def __post_init__(self):
        try:
            dims = tuple(self.dims)
        except TypeError:
            raise InputError(f"group {self.name!r} dimensions must be a sequence of "
                             f"integers, got {self.dims!r}") from None
        for d in dims:
            require_integer(f"group {self.name!r} dimension", d)
        if len(set(dims)) != len(dims):
            raise InputError(f"group {self.name!r} repeats a dimension")
        object.__setattr__(self, "dims", dims)  # a list or array would not concatenate


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
    if labels.shape[1] == 0:  # one cell holding every row
        return 0.0
    # cells counted in the order of ids with the last column most significant;
    # one max per column, as numpy reduces an (n, d) matrix over axis 0 far slower
    radices = [int(col.max(initial=0)) + 1 for col in labels.T]
    counts = count_cells(labels[:, ::-1], radices[::-1])[1]
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
    # the empty projection is one cell of volume 1 holding every row
    return {name: neg_log_likelihood(grid, dims) * math.log(2.0) / grid.n if dims else 0.0
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


def stack_columns(dataset: Dataset, names) -> np.ndarray:
    """The named columns of ``dataset`` as one (n, len(names)) array, in that order."""
    for name in names:
        if name not in dataset.names:
            raise InputError(f"unknown column {name!r}; have {list(dataset.names)}")
    return np.column_stack([dataset.column(c) for c in names])


def select_groups(dataset: Dataset, xs, ys, zs):
    """Project the dataset onto the selected columns and build X/Y/Z groups.

    A column may be selected more than once (e.g. --x A --y A for
    self-information); every selection becomes its own fitted dimension.
    """
    picked = list(xs) + list(ys) + list(zs)
    sub = stack_columns(dataset, picked)
    x = VariableGroup("X", tuple(range(len(xs))))
    y = VariableGroup("Y", tuple(range(len(xs), len(xs) + len(ys))))
    z = VariableGroup("Z", tuple(range(len(xs) + len(ys), len(picked))))
    return sub, x, y, z, tuple(picked)


def run_estimation_benchmark(scenario: str, ns: Sequence[int], reps: int, seed: int,
                             config: FitConfig, k: int | None = None) -> list[dict]:
    """Mean estimate and MSE against ground truth per sample size.

    Replicates are independently seeded via replicate_seed(seed, task_index)
    with task_index enumerating the (n, rep) grid row-major, so they are
    order-independent and safe to run in parallel.
    """
    if not ns:
        raise InputError("ns must hold at least one sample size")
    require_integer("reps", reps)
    if reps < 1:
        raise InputError(f"reps must be >= 1, got {reps}")
    extra = {"k": k} if k is not None else {}
    # every size and the seed are checked before the first replicate runs
    specs = [ScenarioSpec(id=scenario, n=n, seed=seed, extra=extra) for n in ns]
    truth = ground_truth(specs[0])
    if truth is None:
        raise InputError(f"scenario {scenario!r} has no ground-truth value to benchmark")
    rows = []
    task = 0
    for spec in specs:
        values = []
        for _ in range(reps):
            ds = generate(replace(spec, seed=replicate_seed(seed, task)))
            sub, x, y, z, _ = select_groups(ds, ds.x, ds.y, ds.z)
            values.append(cmi_estimate(sub, x, y, z, config).value)
            task += 1
        values = np.asarray(values)
        rows.append({
            "scenario": scenario,
            "n": spec.n,
            "replicate_count": reps,
            "mean_estimate": float(values.mean()),
            "mse": float(np.mean((values - truth) ** 2)),
            "truth": truth,
        })
    return rows
