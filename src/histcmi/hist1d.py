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
is the case with no other dimension, the first re-cut of a one-column fit.  The
code length of a re-cut splits into what its cuts change and one constant,
``fixed_bits``, which the solve leaves out and the caller adds: a segment of width w holding n
rows costs ``-G + n·log2 w``, its conditional histogram cost, where G sums
c·log2 c over the segment's row counts c per other cell, and a count of m
intervals adds its regret and model cost.  G comes from one numpy kernel,
``_xlogx_segment_sums``, over per-cell prefix counts in the narrowest signed
integer type whose maximum holds n_total.  Each cell adds into the
contiguous leading rows of G whose segments can hold two or more of its
rows, where the entries left of its first count of two add exactly +0.0; a
cell whose first count of two lies past half the width adds into that
block alone.  Every c·log2 c is read from one per-process table over the
integer counts, grown on first use to the largest count seen
(:func:`_xlogx_table`), as :mod:`histcmi.complexity` keeps ln k!.
The DP's rounds, too, write and reduce whole contiguous rows.  The
recursion over interval counts is the MDL-histogram DP of Kontkanen &
Myllymäki (AISTATS 2007).

The rounds stop on lower bounds of the best data cost F_m of m segments,
kept as lines v - λ·m: the data cost of all unit cells, a line of slope 0,
and up to ``_DUAL_TRIES`` dual lines, each from weak duality for a path
that pays λ per segment, built from the rounds so far at the cost of about
one more round (:func:`_dual_bound`).  Once the least over later counts of
the highest line plus the count's penalty passes the best total by more
than the rounding tolerance, no later count can win, so the stop leaves
the chosen count, its total and its cuts those of the full DP.

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

So a solve's result depends only on its rows, their other cells, the
singleton count and ``K_other``, and a caller that meets them again can
keep the result and add its own ``fixed_bits``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .complexity import log_regret, model_cost
from .data_model import MixedColumn, degenerate_width
from .errors import InputError


def bin_budget(n: int, factor: float) -> int:
    """ceil(factor · ln(n)), floored at 1; a budget that is not finite or
    exceeds the largest array index is an input error."""
    if n < 1:
        raise InputError("sample size must be >= 1")
    budget = factor * math.log(n)
    if not (math.isfinite(budget) and budget <= np.iinfo(np.intp).max):
        raise InputError(f"bin budget {factor!r} · ln({n}) = {budget!r} is not a finite "
                         f"size an array can hold")
    return max(1, math.ceil(budget))


def candidate_cuts(column: MixedColumn, K_init: int) -> np.ndarray:
    """Strictly increasing candidate boundaries of the unmasked values: none if
    there are none, one cut-free cell one ULP wide (``degenerate_width``) from
    a single distinct value, on its finite side, else K_init equi-width cells
    over their range."""
    if K_init < 1:
        raise InputError("K_init must be >= 1")
    values = column.continuous
    if values.size == 0:
        return np.empty(0)
    lo, hi = float(values[0]), float(values[-1])
    if lo == hi:
        width = degenerate_width(lo)
        return np.array([lo, lo + width] if math.isfinite(lo + width) else [lo - width, lo])
    if not math.isfinite(hi - lo):
        raise InputError(f"continuous range [{lo!r}, {hi!r}] is wider than float64 can hold")
    # near ±max float linspace can overflow its last entry before it sets it to hi
    with np.errstate(over="ignore"):
        grid = np.linspace(lo, hi, K_init + 1)
    return np.unique(grid)  # collapse cells lost to float rounding


# _xlogx[c] = c·log2 c, and 0 for c = 0; grown by _xlogx_table
_xlogx = np.zeros(2)
_xlogx_lock = threading.Lock()


def _xlogx_table(c_max: int) -> np.ndarray:
    """The read-only table of c·log2 c, grown under the lock to hold c =
    0..c_max at least.  Each entry is the float that ``c * log2(c)`` gives
    whatever the table's length, so a longer table reads the same bits."""
    global _xlogx
    table = _xlogx
    if len(table) > c_max:
        return table
    with _xlogx_lock:
        table = _xlogx
        if len(table) <= c_max:
            table = np.maximum(np.arange(max(c_max + 1, 2 * len(table)), dtype=np.float64), 1.0)
            table *= np.log2(table)
            table.setflags(write=False)
            _xlogx = table
    return table


def _xlogx_segment_sums(P):
    """G[i, j] = sum over rows of P of c·log2(c), with c = row[j] - row[i] where c >= 2.

    Each row is a nondecreasing prefix count in a signed integer type that
    holds every difference of two of its entries, so c >= 2 needs row[i] <=
    row[-1] - 2 and row[j] >= 2: a row adds only into G[:i_end, j_start:].
    It adds into the contiguous leading rows G[:i_end], which are faster to
    write than that strided block, since every entry left of j_start gets
    exactly +0.0; a row whose block starts past half the width keeps the
    block, as most of such a row would be zeros.  Every c·log2(c) is read
    from the per-process table of :func:`_xlogx_table`, which holds the very
    float the product gives, and 0 for c <= 1, where the clip sends every
    negative c.
    """
    n_bounds = P.shape[1]
    G = np.zeros((n_bounds, n_bounds))
    # a Python int: the largest total of a narrow type plus 1 would wrap
    xlogx = _xlogx_table(int(P[:, -1].max(initial=0)))
    # per row, the count of entries <= row[-1] - 2 and of entries < 2
    i_ends = (P <= P[:, -1:] - 2).sum(axis=1)
    j_starts = (P < 2).sum(axis=1)
    for row, i_end, j_start in zip(P, i_ends, j_starts):
        if 2 * j_start > n_bounds:
            G[:i_end, j_start:] += xlogx.take(row[None, j_start:] - row[:i_end, None],
                                              mode="clip")
        else:
            G[:i_end] += xlogx.take(row - row[:i_end, None], mode="clip")
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
    width = b - b[:, None]
    segment = width > 0
    log2w = np.log2(width, where=segment, out=np.zeros_like(width))
    seg_cost = C - C[:, None]
    seg_cost *= log2w
    seg_cost[~segment] = np.inf
    return SegmentTable(cell_idx=kept_idx, pos=pos, seg_cost=seg_cost,
                        mcost=model_cost(B - 1, np.arange(m_cap)))


# the most dual bounds one solve computes; each costs about one DP round
_DUAL_TRIES = 2


@dataclass(frozen=True)
class SegmentationResult:
    cut_indices: np.ndarray  # chosen interior boundary indices, ascending
    # the chosen count's data cost + regret + model cost: the total code
    # length less the caller's fixed_bits
    cut_bits: float
    ops: int  # active other cells × kept boundaries², the segment costs' work
    rounds: int  # DP rounds computed, one per interval count from m = 1


def _stop_bounds(lines, pen: np.ndarray) -> list:
    """``bound[m - 1]``, a total that no count from m on goes below: the
    least over m' >= m of the highest line at m' plus the penalty ``pen``
    of m' intervals."""
    lines = np.asarray(lines)
    m = np.arange(1, len(pen) + 1)
    lower = np.max(lines[:, 1:] - lines[:, :1] * m, axis=0) + pen
    return np.minimum.accumulate(lower[::-1])[::-1].tolist()


def _dual_bound(F: np.ndarray, cost: np.ndarray, t: int, lam: float) -> float:
    """A value v with F_m >= v - lam·m for every count m, where ``cost[i,
    j]`` is the data cost of segment [i, j) (inf where j <= i), K + 1 =
    ``len(cost)`` and ``F[m - 1, j]`` is the best data cost of m segments
    over [0, j), read for the rounds m <= t.

    Weak duality for a path that pays lam per segment: any pi with pi(0) =
    0 and pi(j) - pi(i) <= cost[i, j] + lam for all i < j gives F_m >=
    pi(K) - lam·m.  Let E(j) = min over m <= t of F[m - 1, j] + lam·m, with
    E(0) = 0, and V(j) = lam + min over i < j of E(i) + cost[i, j], one
    product the size of one round.  Then pi(j) = E(j) minus the sum of the
    excesses max(0, E - V) over 1..j is such a pi, whatever E is: dropping
    all excesses but the j-th, pi(j) - pi(i) <= min(E(j), V(j)) - E(i) <=
    cost[i, j] + lam.  It is tight when no path of more than t segments
    beats E at lam, where no E exceeds its V.
    """
    K = len(cost) - 1
    E = np.min(F[:t] + lam * np.arange(1, t + 1)[:, None], axis=0)
    E[0] = 0.0
    V = lam + np.minimum.reduce(E[:K, None] + cost[:K], axis=0)  # V[0] is unused
    return float(E[K] - np.maximum(E[1:] - V[1:], 0.0).sum())


def solve_segmentation(
    n_total: int,
    boundaries: np.ndarray,
    table: SegmentTable,
    K_max: int,
    n_singletons: int,
    K_other: int,
    other_cell_ids: np.ndarray,
) -> SegmentationResult:
    """Pick interval cuts minimizing the joint code length.

    ``table`` is ``segment_table(boundaries, cell_idx, K_max)`` of the
    continuous rows of the dimension being cut, and ``other_cell_ids`` the
    fixed joint cell of all remaining dimensions for those same rows, as
    small nonnegative ids (an unused id is an empty cell).  ``n_total``,
    the sample size, bounds the continuous rows and so sets the type of
    their prefix counts; more rows than that is an input error.  A segment
    [b_i, b_j) costs ``-G[i, j] + n_s·log2 w``, with n_s its rows and w its
    width, and a count of m intervals adds its regret and model cost; the
    result's ``cut_bits`` is the least such sum.  The code length that no
    cut can change, ``fixed_bits`` (``n·log2 n``, the ``-c·log2 c`` of the
    rows in this dimension's singleton bins, and the other dimensions'
    log2 volumes and model costs), is left to the caller: a constant added
    to every count's total cannot change which count wins.  Only G and the
    regret depend on the other dimensions; the rest is the table's, and
    the kernel and the DP run over its kept boundaries.

    Round m computes F_m, the best data cost of m segments, for m = 1, 2,
    ... until the lines stop the rounds (see the module docstring).
    Splitting a segment never raises its data cost (log-sum inequality), so
    the data cost of all unit cells is a line of slope 0.  That floor is
    weak when the penalty grows slowly, so after a round t that does not
    improve the best total, the solve may compute a dual line.  Its slope λ
    is the least penalty slope past t: the estimate below falls as λ grows,
    so that slope maximizes it.  It is computed only when the lines so far
    do not stop the rounds and the line through ``min over m <= t of F_m +
    λ·m``, which no dual line of slope λ from rounds 1..t exceeds, would.

    The chosen count's cuts are walked back from one table of best prefix
    costs.  Among totals that are equal as floats the fewest bins win, and
    among equal-cost predecessors the leftmost split.  A tie below double
    precision is decided by rounding: two mirrored segmentations with equal
    counts on a ``linspace`` grid can cost a few ULPs apart, and then the
    cheaper float wins, whichever side it is on.
    """
    B = len(boundaries) - 1
    if table.pos[-1] != B or len(table.mcost) != min(K_max, B):
        raise InputError("segment table was built for another grid or K_max")
    if len(table.cell_idx) > n_total:
        raise InputError("more continuous rows than n_total")
    kept = len(table.pos) - 1  # the kept grid's cells
    n_other = int(other_cell_ids.max(initial=0)) + 1

    # per-other-cell prefix counts over the kept boundaries, in the narrowest
    # signed type whose maximum holds n_total, so every difference of two
    # counts fits too (cumsum's out= would wrap a count that does not)
    counts = np.bincount(other_cell_ids * kept + table.cell_idx, minlength=n_other * kept)
    P = np.zeros((n_other, kept + 1), dtype=np.min_scalar_type(-n_total - 1))
    np.cumsum(counts.reshape(n_other, kept), axis=1, out=P[:, 1:])

    active = P[:, -1] >= 2  # cells with <2 rows contribute no c*log2(c) mass
    G = _xlogx_segment_sums(P[active])
    ops = int(active.sum()) * (kept + 1) * (kept + 1)

    # cost[i, j] = what the rows falling in [b_i, b_j) add to the code length
    # beyond fixed_bits: an empty segment costs exactly 0 since its G and row
    # count are 0, and inf - G stays inf where no segment exists
    cost = np.subtract(table.seg_cost, G, out=G)

    # F[m-1, j] = best data cost of covering [b_0, b_j) with m segments, inf
    # where m nonempty segments cannot end at b_j (j < m) and for the counts
    # the stop skips.  Only splits i >= m - 1 can end m - 1 nonempty segments,
    # and m nonempty segments need m kept cells.
    m_cap = min(len(table.mcost), kept)
    F = np.full((m_cap, kept + 1), np.inf)
    F[0] = cost[0]
    buf = np.empty_like(cost)  # each round's sums, over whole contiguous rows

    regret = log_regret(n_total, (n_singletons + np.arange(1, m_cap + 1)) * K_other)
    mcost = table.mcost[:m_cap]
    pen = regret + mcost
    floor = float(np.trace(cost, offset=1))
    lines, ends = [(0.0, floor)], [float(F[0, kept])]
    bound = _stop_bounds(lines, pen)
    # Python floats add as float64 scalars do, only faster; summed in this
    # order, each total is bit-identical to the full DP's
    regret, mcost = regret.tolist(), mcost.tolist()
    best, m_star = ends[0] + regret[0] + mcost[0], 1
    tries = 0
    for m in range(2, m_cap + 1):
        # far above the rounding in F, the floor, the dual lines and the
        # totals, so a tie at the level of one ULP never decides the stop
        tol = 1e-9 * max(1.0, abs(best), abs(floor))
        if bound[m - 1] > best + tol:
            break
        # whole rows: the columns j < m add only inf, which F holds there, and
        # the ufunc itself runs without np.min's per-call wrapper
        np.add(F[m - 2, m - 1:kept, None], cost[m - 1:kept], out=buf[m - 1:kept])
        np.minimum.reduce(buf[m - 1:kept], axis=0, out=F[m - 1])
        ends.append(float(F[m - 1, kept]))
        total = ends[m - 1] + regret[m - 1] + mcost[m - 1]
        if total < best:  # strictly: the fewest bins win ties
            best, m_star = total, m
        elif tries < _DUAL_TRIES and m < m_cap and bound[m] <= best + tol:
            lam = float(np.min(np.diff(pen[m - 1:])))
            top = min(ends[k - 1] + lam * k for k in range(1, m + 1))
            if _stop_bounds(lines + [(lam, top)], pen)[m] > best + tol:
                tries += 1
                lines.append((lam, _dual_bound(F, cost, m, lam)))
                bound = _stop_bounds(lines, pen)

    # from b_kept back: the leftmost best split over the sums each round minimized
    cuts = []
    j = kept
    for m in range(m_star, 1, -1):
        j = m - 1 + int(np.argmin(F[m - 2, m - 1:] + cost[m - 1:, j]))
        cuts.append(j)
    cut_indices = table.pos[cuts[::-1]].astype(np.int64)
    cut_indices.setflags(write=False)  # a caller's memo may hand it out again
    return SegmentationResult(cut_indices=cut_indices, cut_bits=best, ops=ops,
                              rounds=len(ends))
