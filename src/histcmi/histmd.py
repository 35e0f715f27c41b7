"""Joint multi-dimensional adaptive histograms via iterative greedy refinement.

Starting from one bin per detected atom plus a single interval for the
continuous remainder of every dimension, each iteration re-cuts every
dimension in turn against the fixed cells of the others and accepts the
single re-cut with the largest drop in total code length.  Stops when no
re-cut helps or after ``i_max`` iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .complexity import ScoreBreakdown, model_cost, total_score
from .data_model import (
    BinSet,
    Grid,
    MixedColumn,
    _interval_index,
    assign_labels,
    build_grid,
    cell_ids,
    degenerate_width,
)
from .errors import InputError
from .hist1d import bin_budget, candidate_cuts, solve_segmentation

# accepted refinements must beat the current score by this many bits, so
# float noise can never masquerade as an improvement
_GAIN_EPS = 1e-9


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the greedy fit."""

    i_max: int = 5
    t: int = 5
    k_init_factor: float = 20.0
    k_max_factor: float = 5.0

    def __post_init__(self):
        if self.i_max < 1:
            raise InputError("i_max must be >= 1")
        if self.t < 2:
            raise InputError("t must be >= 2")
        if not all(math.isfinite(f) and f > 0 for f in (self.k_init_factor, self.k_max_factor)):
            raise InputError("k_init_factor and k_max_factor must be finite and > 0")
        if self.k_max_factor > self.k_init_factor:
            raise InputError("k_max_factor must not exceed k_init_factor")

    def k_init(self, n: int) -> int:
        return bin_budget(n, self.k_init_factor)

    def k_max(self, n: int) -> int:
        return bin_budget(n, self.k_max_factor)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    dim: int
    score_before: float
    score_after: float
    bins_per_dim: tuple[int, ...]
    ops: int


@dataclass
class FitTrace:
    init_score: float
    records: list[IterationRecord] = field(default_factory=list)
    converged: bool = False

    @property
    def final_score(self) -> float:
        return self.records[-1].score_after if self.records else self.init_score


@dataclass
class FitState:
    columns: list[MixedColumn]
    binsets: list[BinSet]
    labels: np.ndarray
    total_bits: float


@dataclass(frozen=True)
class RefineResult:
    binset: BinSet
    total_bits: float
    ops: int


@dataclass(frozen=True)
class FitResult:
    """The grid (bins in ``grid.dims``), the read-only (n, k) label matrix in
    the narrowest integer type that holds it, and the trace of one fit."""

    grid: Grid
    labels: np.ndarray
    trace: FitTrace


def _initial_binset(column: MixedColumn, config: FitConfig, n: int) -> BinSet:
    """The column's atoms plus one interval with no cut chosen yet; a single
    continuous value gets a one-ULP interval and no candidate cut."""
    unmasked = column.unmasked
    if unmasked.size == 0:
        return BinSet(column.atoms, np.empty(0))
    distinct = np.unique(unmasked)
    if len(distinct) < 2:
        x = float(distinct[0])
        return BinSet(column.atoms, np.array([x, x + degenerate_width(x)]))
    return BinSet(column.atoms, candidate_cuts(column, config.k_init(n)))


def init_discretization(columns: list[MixedColumn],
                        config: FitConfig) -> tuple[Grid, list[BinSet], np.ndarray]:
    """Single-interval-plus-atoms starting model for every dimension.

    Returns its grid, its bin sets and the (n, k) label matrix the grid counts.
    """
    if not columns:
        raise InputError("empty dataset")
    n = columns[0].n
    if any(c.n != n for c in columns):
        raise InputError("columns disagree on sample size")
    binsets = [_initial_binset(c, config, n) for c in columns]
    labels = [assign_labels(c, b) for c, b in zip(columns, binsets)]
    return build_grid(labels, binsets), binsets, np.column_stack(labels)


def _score_state(binsets, labels) -> tuple[Grid, ScoreBreakdown]:
    grid = build_grid([labels[:, j] for j in range(labels.shape[1])], binsets)
    return grid, total_score(grid, binsets)


def _other_cell_info(state: FitState, j: int, rows: np.ndarray):
    """Labels, bin counts and summed log2 volumes of every dimension but j.

    Label columns run from the last such dimension to the first, so cell ids
    of them sort with the highest dimension most significant.
    """
    others = [d for d in range(len(state.binsets)) if d != j]
    labels = state.labels[rows]
    log2_vol = np.zeros(len(labels))
    for d in others:
        log2_vol += np.log2(state.binsets[d].volumes)[labels[:, d]]
    others.reverse()
    return labels[:, others], [state.binsets[d].n_bins for d in others], log2_vol


def refine_dimension(j: int, state: FitState, K_max: int) -> RefineResult:
    """Best re-cut of dimension j's intervals, into at most K_max, given the
    other dimensions' cells.

    Dimensions without at least two distinct continuous values come back
    unchanged with the current score.
    """
    column = state.columns[j]
    binset = state.binsets[j]
    if binset.n_candidates == 0:
        return RefineResult(binset, state.total_bits, 0)

    n = column.n
    cont = ~column.discrete_mask
    cell_idx = _interval_index(column.values[cont], binset.grid)

    other_labels, other_radices, log2_vol = _other_cell_info(state, j, cont)
    K_other = math.prod(other_radices)
    _, compact = np.unique(cell_ids(other_labels, other_radices), return_inverse=True)

    # rows in this dimension's singleton bins: no cut can move them
    fixed_nll = 0.0
    disc = column.discrete_mask
    if disc.any():
        olabels, _, olog2v = _other_cell_info(state, j, disc)
        pair = cell_ids(np.column_stack([state.labels[disc, j], olabels]),
                        [binset.n_bins, *other_radices])
        _, counts = np.unique(pair, return_counts=True)
        c = counts.astype(np.float64)
        fixed_nll = float(-np.sum(c * np.log2(c)) + disc.sum() * math.log2(n) + olog2v.sum())

    const_cost = sum(model_cost(b.n_candidates, len(b.cuts))
                     for d, b in enumerate(state.binsets) if d != j)

    res = solve_segmentation(
        n_total=n,
        boundaries=binset.grid,
        cell_idx=cell_idx,
        K_max=K_max,
        n_singletons=binset.n_singletons,
        fixed_nll_bits=fixed_nll,
        const_model_cost_bits=const_cost,
        K_other=K_other,
        other_cell_ids=compact,
        other_log2_vol=log2_vol,
    )
    return RefineResult(replace(binset, cuts=res.cut_indices), res.total_bits, res.ops)


def optimal_histogram_1d(column: MixedColumn, grid: np.ndarray, K_max: int) -> BinSet:
    """MDL-optimal bin set for a single column over the candidate boundary
    ``grid``: the re-cut of a one-dimension fit that starts with no chosen cuts."""
    binsets = [BinSet(column.atoms, grid)]
    labels = assign_labels(column, binsets[0])[:, None]
    state = FitState(columns=[column], binsets=binsets, labels=labels,
                     total_bits=_score_state(binsets, labels)[1].total)
    return refine_dimension(0, state, K_max).binset


def greedy_fit(columns: list[MixedColumn], config: FitConfig | None = None) -> FitResult:
    """Learn a joint adaptive histogram over all columns.

    Every iteration computes a candidate re-cut for each dimension against the
    iteration-start state and accepts the one with the largest score decrease
    (lowest dimension index wins ties).
    """
    config = config or FitConfig()
    if not columns:
        raise InputError("empty dataset")

    grid, binsets, labels = init_discretization(columns, config)
    state = FitState(columns=list(columns), binsets=list(binsets), labels=labels,
                     total_bits=total_score(grid, binsets).total)
    trace = FitTrace(init_score=state.total_bits)
    K_max = config.k_max(columns[0].n)

    for iteration in range(1, config.i_max + 1):
        best: tuple[int, RefineResult] | None = None
        ops = 0
        for j in range(len(columns)):
            cand = refine_dimension(j, state, K_max)
            ops += cand.ops
            if best is None or cand.total_bits < best[1].total_bits:
                best = (j, cand)
        j, cand = best
        if cand.total_bits >= state.total_bits - _GAIN_EPS:
            trace.converged = True
            break
        before = state.total_bits
        state.binsets[j] = cand.binset
        state.labels[:, j] = assign_labels(state.columns[j], cand.binset)
        grid, score = _score_state(state.binsets, state.labels)
        after = score.total
        if abs(after - cand.total_bits) > 1e-6:
            raise AssertionError(
                f"refinement score {cand.total_bits} disagrees with rebuilt score {after}")
        state.total_bits = after
        trace.records.append(IterationRecord(
            iteration=iteration, dim=j, score_before=before, score_after=after,
            bins_per_dim=tuple(b.n_bins for b in state.binsets), ops=ops))
    else:
        trace.converged = False

    labels = state.labels.astype(np.min_scalar_type(state.labels.max()))
    labels.setflags(write=False)
    return FitResult(grid=grid, labels=labels, trace=trace)
