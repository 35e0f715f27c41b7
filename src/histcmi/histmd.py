"""Joint multi-dimensional adaptive histograms via iterative greedy refinement.

Starting from one bin per detected atom plus a single interval for the
continuous remainder of every dimension, each iteration re-cuts every
dimension in turn against the fixed cells of the others and accepts the
single re-cut with the largest drop in total code length.  Stops when no
re-cut helps or after ``i_max`` iterations.

A fit starts from one :class:`ColumnStart` per column, which
:func:`start_column` builds from the column and the config alone: the
column, its cut-free bin set over the candidate grid, its start labels and
its segmentation table for K_max (none when the grid offers no cut).  No
fit builds a table, so every fit and every re-cut that enters a column
shares its start.  The rest of the fit's state is a :class:`FitState`
beside the total code length in bits: the per-dimension bin sets, one
(n, k) int64 label matrix, and each dimension's log2-volume and model-cost
bits, which change only when that dimension is re-cut.  A re-cut reads the
other dimensions' cells from the matrix; a dimension with no candidate cut
re-cuts to +inf bits, so it is never accepted.  After each accepted re-cut
the grid is rebuilt from the matrix and its score checked against the one
the segmentation DP reported.
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
    unique_ids,
)
from .errors import InputError, require_integer
from .hist1d import SegmentTable, bin_budget, candidate_cuts, segment_table, solve_segmentation

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


def column_table(column: MixedColumn, grid: np.ndarray, K_max: int) -> SegmentTable | None:
    """The segmentation table of the column's continuous rows over ``grid``
    for at most K_max intervals, or None when the grid offers no cut."""
    if len(grid) <= 2:
        return None
    return segment_table(grid, _interval_index(column.unmasked, grid), K_max)


@dataclass(frozen=True)
class ColumnStart:
    """Everything one column's fit starts from, fixed by the column and the
    config: the column, its bin set of atoms and one interval over the
    candidate grid, the read-only int64 label of each row under that bin set,
    and its :func:`column_table` for K_max.  It records the config values it
    was built for, ``t``, ``K_init`` and ``K_max``, and is fitted under no
    other config; :func:`start_column` builds it.
    """

    column: MixedColumn
    binset: BinSet
    labels: np.ndarray
    table: SegmentTable | None
    t: int
    K_init: int
    K_max: int

    @property
    def n(self) -> int:
        return self.column.n


def start_column(column: MixedColumn, config: FitConfig) -> ColumnStart:
    """The start of ``column``, whose discrete points were detected with
    ``config.t``, for fits under ``config``."""
    K_init, K_max = config.k_init(column.n), config.k_max(column.n)
    binset = BinSet(column.atoms, candidate_cuts(column, K_init))
    labels = assign_labels(column, binset)
    labels.setflags(write=False)
    return ColumnStart(column=column, binset=binset, labels=labels,
                       table=column_table(column, binset.grid, K_max),
                       t=config.t, K_init=K_init, K_max=K_max)


def init_discretization(starts: list[ColumnStart],
                        config: FitConfig) -> tuple[Grid, list[BinSet], np.ndarray]:
    """The starting model of the columns: every start's bin set, stacked.

    Returns its grid, its bin sets and a fresh (n, k) label matrix the grid
    counts.  Starts of another length than the first, or built for another
    config, are rejected.
    """
    if not starts:
        raise InputError("empty dataset")
    n = starts[0].n
    if any(s.n != n for s in starts):
        raise InputError("columns disagree on sample size")
    want = (config.t, config.k_init(n), config.k_max(n))
    for s in starts:
        if (s.t, s.K_init, s.K_max) != want:
            raise InputError(f"column start built for (t, K_init, K_max) = "
                             f"{(s.t, s.K_init, s.K_max)} cannot be fitted under {want}")
    binsets = [s.binset for s in starts]
    labels = np.column_stack([s.labels for s in starts])
    return build_grid(labels, binsets), binsets, labels


def _dim_bits(labels: np.ndarray, binset: BinSet) -> float:
    """One dimension's share of the code length that its own cuts set: the
    log2 volumes of its rows' bins and its model cost."""
    return (np.bincount(labels, minlength=binset.n_bins) @ np.log2(binset.volumes)
            + model_cost(binset.n_candidates, len(binset.cuts)))


@dataclass
class FitState:
    """What a re-cut reads, for one fit.

    Per column: its sample and its :func:`column_table` over its bin set's
    grid for K_max, both fixed for the fit.  Per dimension: its bin set, its
    column of the (n, k) int64 label matrix and its :func:`_dim_bits`,
    computed here and replaced together by :meth:`accept`.
    """

    columns: list[MixedColumn]
    tables: list[SegmentTable | None]
    K_max: int
    binsets: list[BinSet]
    labels: np.ndarray
    dim_bits: list[float] = field(init=False)

    def __post_init__(self):
        self.dim_bits = [_dim_bits(self.labels[:, d], b) for d, b in enumerate(self.binsets)]

    def accept(self, j: int, binset: BinSet) -> None:
        """Make ``binset``, a re-cut of dimension j, its bin set: its rows'
        labels come from the table's cell of each row."""
        cont = ~self.columns[j].discrete_mask
        self.binsets[j] = binset
        self.labels[cont, j] = binset.n_singletons + self.tables[j].intervals(binset.cuts)
        self.dim_bits[j] = _dim_bits(self.labels[:, j], binset)


def refine_dimension(j: int, state: FitState) -> RefineResult:
    """Best re-cut of dimension j's intervals, into at most ``state.K_max``,
    given the other dimensions' cells in the state's label matrix.

    A dimension without a candidate cut comes back unchanged at +inf bits:
    the minimum over an empty set of re-cuts.
    """
    column, binset, labels = state.columns[j], state.binsets[j], state.labels
    n = len(labels)
    if binset.n_candidates == 0:
        return RefineResult(binset, math.inf, 0)

    # the other dimensions' cells over all rows, as compact ids
    others = [d for d in range(len(state.binsets)) if d != j]
    radices = [state.binsets[d].n_bins for d in others]
    cells, other_ids, _ = unique_ids(cell_ids(labels[:, others], radices))

    # what no cut can change: n·log2 n, the rows in this dimension's
    # singleton bins, and the other dimensions' log2 volumes and model costs
    disc = column.discrete_mask
    pair = cell_ids(np.column_stack([labels[disc, j], other_ids[disc]]),
                    [binset.n_bins, len(cells)])
    c = unique_ids(pair)[2].astype(np.float64)
    fixed_bits = (n * math.log2(n) - np.sum(c * np.log2(c))
                  + sum(state.dim_bits[d] for d in others))

    res = solve_segmentation(
        n_total=n,
        boundaries=binset.grid,
        table=state.tables[j],
        K_max=state.K_max,
        n_singletons=binset.n_singletons,
        fixed_bits=fixed_bits,
        K_other=math.prod(radices),
        other_cell_ids=other_ids[~disc],
    )
    return RefineResult(replace(binset, cuts=res.cut_indices), res.total_bits, res.ops)


def optimal_histogram_1d(column: MixedColumn, grid: np.ndarray, K_max: int) -> BinSet:
    """MDL-optimal bin set for a single column over the candidate boundary
    ``grid``: the re-cut of a one-dimension fit that starts with no chosen cuts."""
    binset = BinSet(column.atoms, grid)
    labels = assign_labels(column, binset)[:, None]
    state = FitState([column], [column_table(column, grid, K_max)], K_max, [binset], labels)
    return refine_dimension(0, state).binset


def greedy_fit(starts: list[ColumnStart], config: FitConfig | None = None) -> FitResult:
    """Learn a joint adaptive histogram over the columns of ``starts``, each
    built by :func:`start_column` under ``config``.

    Every iteration computes a candidate re-cut for each dimension against the
    iteration-start bin sets and labels, and accepts the one with the largest
    score decrease (lowest dimension index wins ties).  The dimension accepted
    in the previous iteration is not re-cut: its candidate is the accepted
    re-cut itself, since the other dimensions have not changed since.
    """
    config = config or FitConfig()
    grid, binsets, labels = init_discretization(starts, config)
    score = total_score(grid)
    trace = FitTrace(init_score=score)
    state = FitState([s.column for s in starts], [s.table for s in starts],
                     starts[0].K_max, binsets, labels)

    accepted = None  # (dimension, its re-cut at no new ops) accepted last round
    for iteration in range(1, config.i_max + 1):
        # a re-cut reads only the other dimensions, so the one accepted last
        # round is still that dimension's best
        results = [accepted[1] if accepted and d == accepted[0]
                   else refine_dimension(d, state)
                   for d in range(len(starts))]
        j = min(range(len(results)), key=lambda d: results[d].total_bits)
        best = results[j]
        if best.total_bits >= score - _GAIN_EPS:
            trace.converged = True
            break
        state.accept(j, best.binset)
        grid = build_grid(state.labels, state.binsets)
        after = total_score(grid)
        if abs(after - best.total_bits) > 1e-6:
            raise AssertionError(
                f"refinement score {best.total_bits} disagrees with rebuilt score {after}")
        trace.records.append(IterationRecord(
            iteration=iteration, dim=j, score_before=score, score_after=after,
            bins_per_dim=tuple(b.n_bins for b in state.binsets),
            ops=sum(r.ops for r in results)))
        score = after
        accepted = (j, replace(best, ops=0))

    labels = state.labels.astype(np.min_scalar_type(state.labels.max()))
    labels.setflags(write=False)
    return FitResult(grid=grid, labels=labels, trace=trace)
