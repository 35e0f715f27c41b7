"""Score-optimal variable-width histograms for one dimension, by dynamic programming.

The search space for one dimension is: fixed singleton bins for its detected
atoms, plus interval bins obtained by choosing a subset of interior candidate
boundaries from the column's grid, which :func:`candidate_cuts` gives every
column.  The DP finds, for each interval count m in turn, the segmentation
minimizing the data code length, until no larger count can beat the best
full two-part score (likelihood + regret + model cost) so far; it picks the
m whose score is smallest and walks its cuts back as grid indices, which a
``BinSet`` stores as they are.

The solver is conditional: the per-segment likelihood aggregates counts across
the fixed cells of all other dimensions of the joint fit, and a 1-D histogram
is the case with no other dimension (``histmd.optimal_histogram_1d``).  The
code length of a re-cut splits into what its cuts change and one constant,
``fixed_bits``, which the caller sums once: a segment of width w holding n
rows costs ``-G + n·log2 w``, its conditional histogram cost, where G sums
c·log2 c over the segment's row counts c per other cell, and a count of m
intervals adds its regret and model cost.  G comes from one numpy kernel,
``_xlogx_segment_sums``, which touches per cell only the segments that can
hold two or more of its rows.  The recursion over interval counts is the
MDL-histogram DP of Kontkanen & Myllymäki (AISTATS 2007).

Like theirs, the DP cuts only next to data: the kernel and the DP run over
the first and last boundary and every boundary beside a candidate cell that
holds a continuous row.  Moving a cut through a run of empty cells changes
only the widths of its two segments, and ``n_l·log2 w_l + n_r·log2 w_r`` is
concave in the cut's position, so one of the run's two ends costs no more;
a third cut in one run only splits an empty bin in two at equal data cost.
Both steps need a penalty that never falls as the interval count m grows.
The regret always rises with m, but the model cost log2 C(B-1, m-1) rises
only while m - 1 <= B/2, so a budget past that keeps every boundary.  The
model cost still counts the full grid's B - 1 candidate cuts.

Which boundaries are kept, the candidate cell of every row, each segment's
``n·log2 w`` and the model cost of each count depend on the column alone,
so they form one :class:`SegmentTable` per column, which every re-cut of
that column reuses: a re-cut computes only G and the regret, which depend
on the other dimensions' cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexity import log_regret, model_cost
from .data_model import MixedColumn, degenerate_width
from .errors import InputError


def bin_budget(n: int, factor: float) -> int:
    """ceil(factor · ln(n)), floored at 1."""
    if n < 1:
        raise InputError("sample size must be >= 1")
    return max(1, math.ceil(factor * math.log(n)))


def candidate_cuts(column: MixedColumn, K_init: int) -> np.ndarray:
    """Strictly increasing candidate boundaries of the unmasked values: none if
    there are none, one cut-free cell one ULP wide (``degenerate_width``) from
    a single distinct value, on its finite side, else K_init equi-width cells
    over their range."""
    if K_init < 1:
        raise InputError("K_init must be >= 1")
    unmasked = column.unmasked
    if unmasked.size == 0:
        return np.empty(0)
    lo, hi = float(unmasked.min()), float(unmasked.max())
    if lo == hi:
        width = degenerate_width(lo)
        return np.array([lo, lo + width] if math.isfinite(lo + width) else [lo - width, lo])
    if not math.isfinite(hi - lo):
        raise InputError(f"continuous range [{lo!r}, {hi!r}] is wider than float64 can hold")
    return np.unique(np.linspace(lo, hi, K_init + 1))  # collapse cells lost to float rounding


def _xlogx_segment_sums(P):
    """G[i, j] = sum over rows of P of c·log2(c), with c = row[j] - row[i] where c >= 2.

    Each row is a nondecreasing prefix count, so c >= 2 needs row[i] <= row[-1] - 2
    and row[j] >= 2: a row adds only into G[:i_end, j_start:], and exactly 0
    everywhere else.
    """
    n_bounds = P.shape[1]
    G = np.zeros((n_bounds, n_bounds))
    # per row, the count of entries <= row[-1] - 2 and of entries < 2
    i_ends = (P <= P[:, -1:] - 2.0).sum(axis=1)
    j_starts = (P < 2.0).sum(axis=1)
    for row, i_end, j_start in zip(P, i_ends, j_starts):
        c = row[None, j_start:] - row[:i_end, None]
        np.maximum(c, 1.0, out=c)
        c *= np.log2(c)
        G[:i_end, j_start:] += c
    return G


@dataclass(frozen=True)
class SegmentTable:
    """What every re-cut of one column shares, fixed by its continuous rows,
    its candidate grid and K_max alone; :func:`segment_table` builds it.

    ``cell_idx`` holds the kept cell of each continuous row, ``pos`` the grid
    indices of the kept boundaries, ``seg_cost[i, j]`` the ``n_s·log2 w`` of
    the segment [b_pos[i], b_pos[j]) over all rows (inf where j <= i, since
    no such segment exists) and ``mcost[m - 1]`` the model cost of m
    intervals, for m up to min(K_max, B).
    """

    cell_idx: np.ndarray
    pos: np.ndarray
    seg_cost: np.ndarray
    mcost: np.ndarray

    def __post_init__(self):
        for arr in (self.cell_idx, self.pos, self.seg_cost, self.mcost):
            arr.setflags(write=False)  # every re-cut of the fit reads them

    def intervals(self, cut_indices: np.ndarray) -> np.ndarray:
        """Interval index of each continuous row under the grid cuts
        ``cut_indices``, all of them kept boundaries."""
        starts = np.zeros(len(self.pos) - 1, dtype=np.int64)
        starts[np.searchsorted(self.pos, cut_indices)] = 1
        return np.cumsum(starts)[self.cell_idx]


def segment_table(boundaries: np.ndarray, cell_idx: np.ndarray, K_max: int) -> SegmentTable:
    """The segmentation table of the continuous rows in candidate cells
    ``cell_idx`` of the grid ``boundaries``, for at most K_max intervals.

    Only the first and last boundary and those beside a candidate cell with
    a row are kept, whenever 2·(min(K_max, B) - 1) <= B, where no count's
    penalty is below a smaller count's: in a run of empty cells a cut's code
    length is concave in its position, so a run's ends are as good as any
    boundary inside it.  Past that budget the model cost can fall as m
    grows, and every boundary stays.  The model cost always prices
    ``C(B - 1, m - 1)`` over the full grid.
    """
    B = len(boundaries) - 1
    if K_max < 1:
        raise InputError("K_max must be >= 1")
    m_cap = min(K_max, B)
    keep = np.ones(B + 1, dtype=bool)
    if 2 * (m_cap - 1) <= B:
        occupied = np.bincount(cell_idx, minlength=B) > 0
        keep[1:B] = occupied[:-1] | occupied[1:]
    pos = np.flatnonzero(keep)
    kept_idx = (np.cumsum(keep[:B]) - 1)[cell_idx]  # the kept cell holding each row

    # overall prefix counts over the kept boundaries; boundaries increase
    # strictly, so width > 0 exactly where j > i
    C = np.zeros(len(pos))
    np.cumsum(np.bincount(kept_idx, minlength=len(pos) - 1), out=C[1:])
    b = boundaries[pos]
    width = b[None, :] - b[:, None]
    segment = width > 0
    log2w = np.log2(width, where=segment, out=np.zeros_like(width))
    seg_cost = (C[None, :] - C[:, None]) * log2w
    seg_cost[~segment] = np.inf
    return SegmentTable(cell_idx=kept_idx, pos=pos, seg_cost=seg_cost,
                        mcost=model_cost(B - 1, np.arange(m_cap)))


@dataclass(frozen=True)
class SegmentationResult:
    cut_indices: np.ndarray  # chosen interior boundary indices, ascending
    total_bits: float
    ops: int  # active other cells × kept boundaries², the segment costs' work


def solve_segmentation(
    n_total: int,
    boundaries: np.ndarray,
    table: SegmentTable,
    K_max: int,
    n_singletons: int,
    fixed_bits: float,
    K_other: int,
    other_cell_ids: np.ndarray,
) -> SegmentationResult:
    """Pick interval cuts minimizing the full joint code length.

    ``table`` is ``segment_table(boundaries, cell_idx, K_max)`` of the
    continuous rows of the dimension being cut, and ``other_cell_ids`` the
    fixed joint cell of all remaining dimensions for those same rows, as
    small nonnegative ids (an unused id is an empty cell).  ``fixed_bits``
    is every part of the code length that no cut can change: ``n·log2 n``,
    the ``-c·log2 c`` of the rows in this dimension's singleton bins, and
    the other dimensions' log2 volumes and model costs.  A segment [b_i,
    b_j) then costs ``-G[i, j] + n_s·log2 w``, with n_s its rows and w its
    width, and a count of m intervals adds its regret and model cost.  Only
    G and the regret depend on the other dimensions; the rest is the
    table's, and the kernel and the DP run over its kept boundaries.

    The rounds over interval counts stop once no larger count can beat the
    best total so far, and the chosen count's cuts are walked back from one
    table of best prefix costs.  Among totals that are equal as floats the
    fewest bins win, and among equal-cost predecessors the leftmost split.
    A tie below double precision is decided by rounding: two mirrored
    segmentations with equal counts on a ``linspace`` grid can cost a few
    ULPs apart, and then the cheaper float wins, whichever side it is on.
    """
    B = len(boundaries) - 1
    if table.pos[-1] != B or len(table.mcost) != min(K_max, B):
        raise InputError("segment table was built for another grid or K_max")
    kept = len(table.pos) - 1  # the kept grid's cells
    n_other = int(other_cell_ids.max(initial=0)) + 1

    # per-other-cell prefix counts over the kept boundaries
    counts = np.bincount(other_cell_ids * kept + table.cell_idx, minlength=n_other * kept)
    P = np.zeros((n_other, kept + 1))
    np.cumsum(counts.reshape(n_other, kept), axis=1, out=P[:, 1:])

    active = P[:, -1] >= 2.0  # cells with <2 rows contribute no c*log2(c) mass
    G = _xlogx_segment_sums(P[active])
    ops = int(active.sum()) * (kept + 1) * (kept + 1)

    # cost[i, j] = what the rows falling in [b_i, b_j) add to the code length
    # beyond fixed_bits: an empty segment costs exactly 0 since its G and row
    # count are 0, and inf - G stays inf where no segment exists
    cost = table.seg_cost - G

    # Splitting a segment never raises its data cost (log-sum inequality),
    # so no count's best data cost falls below that of all unit cells, and no
    # count from m on totals less than that plus the least penalty from m on:
    # once that bound passes the best total so far, no later count can win.
    m_cap = min(K_max, B, kept)  # m nonempty segments need m kept cells
    m = np.arange(1, m_cap + 1)
    regret = log_regret(n_total, (n_singletons + m) * K_other)
    mcost = table.mcost[:m_cap]
    floor = np.trace(cost, offset=1)
    bound = floor + np.minimum.accumulate((fixed_bits + regret + mcost)[::-1])[::-1]

    # F[m-1, j] = best data cost of covering [b_0, b_j) with m segments, inf
    # where m nonempty segments cannot end at b_j (j < m) and for the counts
    # the stop skips.  Only splits i >= m - 1 can end m - 1 nonempty segments.
    F = np.full((m_cap, kept + 1), np.inf)
    F[0] = cost[0]
    # summed in this order, each total is bit-identical to the full DP's
    best, m_star = F[0, kept] + fixed_bits + regret[0] + mcost[0], 1
    for m in range(2, m_cap + 1):
        # far above the rounding in F, the floor and the totals, so a tie at
        # the level of one ULP never decides the stop
        if bound[m - 1] > best + 1e-9 * max(1.0, abs(best), abs(fixed_bits), abs(floor)):
            break
        np.min(F[m - 2, m - 1:kept, None] + cost[m - 1:kept, m:], axis=0, out=F[m - 1, m:])
        total = F[m - 1, kept] + fixed_bits + regret[m - 1] + mcost[m - 1]
        if total < best:  # strictly: the fewest bins win ties
            best, m_star = total, m

    # from b_kept back: the leftmost best split over the sums each round minimized
    cuts = []
    j = kept
    for m in range(m_star, 1, -1):
        j = m - 1 + int(np.argmin(F[m - 2, m - 1:] + cost[m - 1:, j]))
        cuts.append(j)
    return SegmentationResult(
        cut_indices=table.pos[cuts[::-1]].astype(np.int64),
        total_bits=float(best),
        ops=ops,
    )
