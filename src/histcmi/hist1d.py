"""Score-optimal variable-width histograms for one dimension, by dynamic programming.

The search space for one dimension is: fixed singleton bins for its detected
atoms, plus interval bins obtained by choosing a subset of interior candidate
boundaries from the column's grid, which :func:`candidate_cuts` gives every
column.  The DP finds, for every allowed interval count m, the segmentation
minimizing the data code length, picks the m whose full two-part score
(likelihood + regret + model cost) is smallest, and walks its cuts back as
grid indices, which a ``BinSet`` stores as they are.

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
    a single distinct value, else K_init equi-width cells over their range."""
    if K_init < 1:
        raise InputError("K_init must be >= 1")
    unmasked = column.unmasked
    if unmasked.size == 0:
        return np.empty(0)
    lo, hi = float(unmasked.min()), float(unmasked.max())
    if lo == hi:
        return np.array([lo, lo + degenerate_width(lo)])
    return np.unique(np.linspace(lo, hi, K_init + 1))  # collapse cells lost to float rounding


def _xlogx_segment_sums(P):
    """G[i, j] = sum over rows of P of c·log2(c), with c = row[j] - row[i] where c >= 2.

    Each row is a nondecreasing prefix count, so c >= 2 needs row[i] <= row[-1] - 2
    and row[j] >= 2: a row adds only into G[:i_end, j_start:], and exactly 0
    everywhere else.
    """
    n_bounds = P.shape[1]
    G = np.zeros((n_bounds, n_bounds))
    for row in P:
        i_end = np.searchsorted(row, row[-1] - 2.0, side="right")
        j_start = np.searchsorted(row, 2.0, side="left")
        c = row[None, j_start:] - row[:i_end, None]
        np.maximum(c, 1.0, out=c)
        c *= np.log2(c)
        G[:i_end, j_start:] += c
    return G


@dataclass(frozen=True)
class SegmentationResult:
    cut_indices: np.ndarray  # chosen interior boundary indices, ascending
    total_bits: float
    ops: int  # work units spent on conditional segment costs


def solve_segmentation(
    n_total: int,
    boundaries: np.ndarray,
    cell_idx: np.ndarray,
    K_max: int,
    n_singletons: int,
    fixed_bits: float,
    K_other: int,
    other_cell_ids: np.ndarray,
) -> SegmentationResult:
    """Pick interval cuts minimizing the full joint code length.

    ``cell_idx`` holds the candidate-cell index of every continuous row of the
    dimension being cut, and ``other_cell_ids`` the fixed joint cell of all
    remaining dimensions for those same rows, as small nonnegative ids (an
    unused id is an empty cell).  ``fixed_bits`` is every part of the code
    length that no cut can change: ``n·log2 n``, the ``-c·log2 c`` of the
    rows in this dimension's singleton bins, and the other dimensions' log2
    volumes and model costs.  A segment [b_i, b_j) then costs
    ``-G[i, j] + n_s·log2 w``, with n_s its rows and w its width, and a
    count of m intervals adds its regret and model cost.

    The chosen count's cuts are walked back from one table of best prefix
    costs.  Ties between interval counts are broken toward fewer bins; ties
    between equal-cost predecessors keep the leftmost split.
    """
    B = len(boundaries) - 1
    if K_max < 1:
        raise InputError("K_max must be >= 1")
    m_cap = min(K_max, B)
    n_other = int(other_cell_ids.max(initial=0)) + 1

    # per-other-cell prefix counts over boundary positions
    counts = np.bincount(other_cell_ids * B + cell_idx,
                         minlength=n_other * B).reshape(n_other, B)
    P = np.zeros((n_other, B + 1))
    np.cumsum(counts, axis=1, out=P[:, 1:])

    active = P[:, -1] >= 2.0  # cells with <2 rows contribute no c*log2(c) mass
    G = _xlogx_segment_sums(P[active])
    ops = int(active.sum()) * (B + 1) * (B + 1)

    # cost[i, j] = what the rows falling in [b_i, b_j) add to the code length
    # beyond fixed_bits; boundaries increase strictly, so width > 0 exactly
    # where j > i, and an empty segment costs exactly 0 since its G and row
    # count are 0
    width = boundaries[None, :] - boundaries[:, None]
    segment = width > 0
    log2w = np.log2(width, where=segment, out=np.zeros_like(width))
    C = P.sum(axis=0)  # overall prefix counts
    seg_n = C[None, :] - C[:, None]
    cost = -G + seg_n * log2w
    cost[~segment] = np.inf

    # F[m-1, j] = best data cost of covering [b_0, b_j) with m segments.
    # Only splits i >= m - 1 can end m - 1 nonempty segments.
    F = np.empty((m_cap, B + 1))
    F[0] = cost[0]
    for m in range(2, m_cap + 1):
        np.min(F[m - 2, m - 1:, None] + cost[m - 1:], axis=0, out=F[m - 1])

    m = np.arange(1, m_cap + 1)
    totals = (F[:, B] + fixed_bits
              + log_regret(n_total, (n_singletons + m) * K_other)
              + model_cost(B - 1, m - 1))
    m_star = int(np.argmin(totals)) + 1  # argmin keeps the first (fewest bins) on ties

    # from b_B back: the leftmost best split over the sums each round minimized
    cuts = []
    j = B
    for m in range(m_star, 1, -1):
        j = m - 1 + int(np.argmin(F[m - 2, m - 1:] + cost[m - 1:, j]))
        cuts.append(j)
    return SegmentationResult(
        cut_indices=np.asarray(cuts[::-1], dtype=np.int64),
        total_bits=float(totals[m_star - 1]),
        ops=ops,
    )
