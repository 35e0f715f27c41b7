"""Score-optimal variable-width histograms for one dimension, by dynamic programming.

The search space for one dimension is: fixed singleton bins for its detected
atoms, plus interval bins obtained by choosing a subset of interior candidate
boundaries from an equi-width grid over the continuous range
(:func:`candidate_cuts` builds that grid as a boundary array).  The DP finds,
for every allowed interval count m, the segmentation minimizing the data code
length, then picks the m whose full two-part score (likelihood + regret +
model cost) is smallest.  It returns the chosen cuts as grid indices, which a
``BinSet`` stores as they are.

The solver is conditional: the per-segment likelihood aggregates counts across
the fixed cells of all other dimensions of the joint fit, and a 1-D histogram
is the case with no other dimension (``histmd.optimal_histogram_1d``).  Those
counts enter through one numpy kernel, ``_xlogx_segment_sums``, which touches
per cell only the segments that can hold two or more of its rows.  The
recursion over interval counts is the MDL-histogram DP of Kontkanen &
Myllymäki (AISTATS 2007).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexity import log_regret, model_cost
from .data_model import MixedColumn
from .errors import DegenerateColumnError, InputError


def bin_budget(n: int, factor: float) -> int:
    """ceil(factor · ln(n)), floored at 1."""
    if n < 1:
        raise InputError("sample size must be >= 1")
    return max(1, math.ceil(factor * math.log(n)))


def candidate_cuts(column: MixedColumn, K_init: int) -> np.ndarray:
    """Equi-width boundaries splitting the unmasked range into K_init cells
    (precision = range/K_init): strictly increasing, at least two."""
    if K_init < 1:
        raise InputError("K_init must be >= 1")
    unmasked = column.unmasked
    if len(np.unique(unmasked)) < 2:
        raise DegenerateColumnError(
            f"column {column.name!r} has fewer than 2 distinct continuous values")
    lo, hi = float(unmasked.min()), float(unmasked.max())
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
    fixed_nll_bits: float,
    const_model_cost_bits: float,
    K_other: int,
    other_cell_ids: np.ndarray,
    other_log2_vol: np.ndarray,
) -> SegmentationResult:
    """Pick interval cuts minimizing the full joint code length.

    ``cell_idx`` holds the candidate-cell index of every continuous row of the
    dimension being cut; ``other_cell_ids``/``other_log2_vol`` describe the
    fixed joint cell of all remaining dimensions for those same rows, as
    small nonnegative ids (an unused id is an empty cell) and summed log2
    volumes.  ``fixed_nll_bits`` carries the code length of the rows in this
    dimension's singleton bins, which no cut can change.

    Ties between interval counts are broken toward fewer bins; ties between
    equal-cost predecessors keep the leftmost split.
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
    P_act = np.ascontiguousarray(P[active])
    G = _xlogx_segment_sums(P_act) if len(P_act) else np.zeros((B + 1, B + 1))
    ops = int(len(P_act)) * (B + 1) * (B + 1)

    C = P.sum(axis=0)  # overall prefix counts
    Q = np.zeros(B + 1)  # prefix sums of the other cells' log2 volumes
    Q[1:] = np.cumsum(np.bincount(cell_idx, weights=other_log2_vol, minlength=B))

    # cost[i, j] = code length of rows falling in [b_i, b_j), all other cells pooled;
    # boundaries increase strictly, so width > 0 exactly where j > i, and an
    # empty segment costs exactly 0 since its G, row count and Q difference are 0
    width = boundaries[None, :] - boundaries[:, None]
    segment = width > 0
    log2w = np.log2(width, where=segment, out=np.zeros_like(width))
    seg_n = C[None, :] - C[:, None]
    cost = -G + seg_n * (math.log2(n_total) + log2w) + (Q[None, :] - Q[:, None])
    cost[~segment] = np.inf

    # f[j] = best data cost of covering [b_0, b_j) with m segments
    # Only splits i >= m - 1 can end m - 1 nonempty segments; a column with no
    # finite candidate gets f = inf and an unused back pointer.
    f = cost[0].copy()
    back: list[np.ndarray] = [np.zeros(B + 1, dtype=np.int64)]
    best_f_at_end = [f[B]]
    cand = np.empty_like(cost)
    cols = np.arange(B + 1)
    for m in range(2, m_cap + 1):
        np.add(f[m - 1:, None], cost[m - 1:], out=cand[m - 1:])
        arg = np.argmin(cand[m - 1:], axis=0) + (m - 1)
        f = cand[arg, cols]
        back.append(arg)
        best_f_at_end.append(f[B])

    m = np.arange(1, m_cap + 1)
    totals = (np.array(best_f_at_end) + fixed_nll_bits
              + log_regret(n_total, (n_singletons + m) * K_other)
              + model_cost(B - 1, m - 1) + const_model_cost_bits)
    m_star = int(np.argmin(totals)) + 1  # argmin keeps the first (fewest bins) on ties

    cut_boundary_idx = []
    j = B
    for m in range(m_star, 1, -1):
        i = int(back[m - 1][j])
        cut_boundary_idx.append(i)
        j = i
    cut_boundary_idx.reverse()
    return SegmentationResult(
        cut_indices=np.asarray(cut_boundary_idx, dtype=np.int64),
        total_bits=float(totals[m_star - 1]),
        ops=ops,
    )
