"""Joint multi-dimensional adaptive histograms via iterative greedy refinement.

Starting from one bin per detected atom plus a single interval for the
continuous remainder of every dimension, each iteration re-cuts every
dimension in turn against the fixed cells of the others and accepts the
single re-cut with the largest drop in total code length.  Stops when no
re-cut helps or after ``i_max`` iterations.

The fit's state is three plain values: the list of per-dimension bin sets,
one (n, k) int64 label matrix, and the total code length in bits.  A
re-cut reads the other dimensions' cells from that matrix; a dimension with
no candidate cut re-cuts to +inf bits, so it is never accepted.  After each
accepted re-cut the grid is rebuilt from the matrix and its score checked
against the one the segmentation DP reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .complexity import model_cost, total_score
from .data_model import (
    BinSet,
    Grid,
    MixedColumn,
    _interval_index,
    assign_labels,
    build_grid,
    cell_ids,
)
from .errors import InputError, require_integer
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
        require_integer("i_max", self.i_max)
        require_integer("t", self.t)
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
    """One accepted re-cut; ``ops`` sums the kernel work of the re-cuts
    computed in its round, where the one reused from the round before adds 0."""

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
    binsets = [BinSet(c.atoms, candidate_cuts(c, config.k_init(n))) for c in columns]
    labels = np.column_stack([assign_labels(c, b) for c, b in zip(columns, binsets)])
    return build_grid(labels, binsets), binsets, labels


def refine_dimension(j: int, columns: list[MixedColumn], binsets: list[BinSet],
                     labels: np.ndarray, K_max: int) -> RefineResult:
    """Best re-cut of dimension j's intervals, into at most K_max, given the
    other dimensions' cells in the (n, k) label matrix.

    A dimension without a candidate cut comes back unchanged at +inf bits:
    the minimum over an empty set of re-cuts.
    """
    column, binset, n = columns[j], binsets[j], len(labels)
    if binset.n_candidates == 0:
        return RefineResult(binset, math.inf, 0)

    # the other dimensions' cells over all rows, as compact ids
    others = [d for d in range(len(binsets)) if d != j]
    radices = [binsets[d].n_bins for d in others]
    cells, other_ids = np.unique(cell_ids(labels[:, others], radices), return_inverse=True)

    # what no cut can change: n·log2 n, the rows in this dimension's
    # singleton bins, and the other dimensions' log2 volumes and model costs
    disc = column.discrete_mask
    pair = cell_ids(np.column_stack([labels[disc, j], other_ids[disc]]),
                    [binset.n_bins, len(cells)])
    c = np.unique(pair, return_counts=True)[1].astype(np.float64)
    fixed_bits = (n * math.log2(n) - np.sum(c * np.log2(c))
                  + sum(np.bincount(labels[:, d], minlength=b.n_bins) @ np.log2(b.volumes)
                        + model_cost(b.n_candidates, len(b.cuts))
                        for d, b in enumerate(binsets) if d != j))

    cont = ~disc
    res = solve_segmentation(
        n_total=n,
        boundaries=binset.grid,
        cell_idx=_interval_index(column.values[cont], binset.grid),
        K_max=K_max,
        n_singletons=binset.n_singletons,
        fixed_bits=fixed_bits,
        K_other=math.prod(radices),
        other_cell_ids=other_ids[cont],
    )
    return RefineResult(replace(binset, cuts=res.cut_indices), res.total_bits, res.ops)


def optimal_histogram_1d(column: MixedColumn, grid: np.ndarray, K_max: int) -> BinSet:
    """MDL-optimal bin set for a single column over the candidate boundary
    ``grid``: the re-cut of a one-dimension fit that starts with no chosen cuts."""
    binset = BinSet(column.atoms, grid)
    labels = assign_labels(column, binset)[:, None]
    return refine_dimension(0, [column], [binset], labels, K_max).binset


def greedy_fit(columns: list[MixedColumn], config: FitConfig | None = None) -> FitResult:
    """Learn a joint adaptive histogram over all columns.

    Every iteration computes a candidate re-cut for each dimension against the
    iteration-start bin sets and labels, and accepts the one with the largest
    score decrease (lowest dimension index wins ties).  The dimension accepted
    in the previous iteration is not re-cut: its candidate is the accepted
    re-cut itself, since the other dimensions have not changed since.
    """
    config = config or FitConfig()
    grid, binsets, labels = init_discretization(columns, config)
    score = total_score(grid)
    trace = FitTrace(init_score=score)
    K_max = config.k_max(columns[0].n)

    accepted = None  # (dimension, its re-cut at no new ops) accepted last round
    for iteration in range(1, config.i_max + 1):
        # a re-cut reads only the other dimensions, so the one accepted last
        # round is still that dimension's best
        results = [accepted[1] if accepted and d == accepted[0]
                   else refine_dimension(d, columns, binsets, labels, K_max)
                   for d in range(len(columns))]
        j = min(range(len(results)), key=lambda d: results[d].total_bits)
        best = results[j]
        if best.total_bits >= score - _GAIN_EPS:
            trace.converged = True
            break
        binsets[j] = best.binset
        labels[:, j] = assign_labels(columns[j], best.binset)
        grid = build_grid(labels, binsets)
        after = total_score(grid)
        if abs(after - best.total_bits) > 1e-6:
            raise AssertionError(
                f"refinement score {best.total_bits} disagrees with rebuilt score {after}")
        trace.records.append(IterationRecord(
            iteration=iteration, dim=j, score_before=score, score_after=after,
            bins_per_dim=tuple(b.n_bins for b in binsets),
            ops=sum(r.ops for r in results)))
        score = after
        accepted = (j, replace(best, ops=0))

    labels = labels.astype(np.min_scalar_type(labels.max()))
    labels.setflags(write=False)
    return FitResult(grid=grid, labels=labels, trace=trace)
