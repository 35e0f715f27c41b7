"""Score-optimal variable-width histograms for one dimension, by dynamic programming.

The search space for one dimension is: fixed singleton bins for its detected
atoms, plus interval bins obtained by choosing a subset of interior candidate
boundaries from an equi-width grid over the continuous range.  The DP finds,
for every allowed interval count m, the segmentation minimizing the data code
length, then picks the m whose full two-part score (likelihood + regret +
model cost) is smallest.

The same solver also handles the conditional case used by the joint fit: the
per-segment likelihood then aggregates counts across the fixed cells of all
other dimensions.  Those counts enter through one numpy kernel,
``_xlogx_segment_sums``, which touches per cell only the segments that can
hold two or more of its rows.  The recursion over interval counts is the
MDL-histogram DP of Kontkanen & Myllymäki (AISTATS 2007).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexity import log_regret, model_cost
from .data_model import MixedColumn, binset_from_cuts
from .errors import DegenerateColumnError, InputError


def bin_budget(n: int, factor: float) -> int:
    """ceil(factor · ln(n)), floored at 1."""
    if n < 1:
        raise InputError("sample size must be >= 1")
    return max(1, math.ceil(factor * math.log(n)))


@dataclass(frozen=True)
class CandidateCuts:
    """Equi-width candidate boundaries spanning the unmasked range."""

    boundaries: np.ndarray

    def __post_init__(self):
        self.boundaries.setflags(write=False)
        if len(self.boundaries) < 2:
            raise InputError("need at least two boundaries")
        if not np.all(np.diff(self.boundaries) > 0):
            raise InputError("boundaries must be strictly increasing")

    @property
    def K_init(self) -> int:
        return len(self.boundaries) - 1

    @property
    def interior(self) -> np.ndarray:
        """The selectable cut positions (everything but the two endpoints)."""
        return self.boundaries[1:-1]


def candidate_cuts(column: MixedColumn, K_init: int) -> CandidateCuts:
    """Split the unmasked range into K_init equi-width cells (precision = range/K_init)."""
    if K_init < 1:
        raise InputError("K_init must be >= 1")
    unmasked = column.unmasked
    if len(np.unique(unmasked)) < 2:
        raise DegenerateColumnError(
            f"column {column.name!r} has fewer than 2 distinct continuous values")
    lo, hi = float(unmasked.min()), float(unmasked.max())
    boundaries = np.linspace(lo, hi, K_init + 1)
    boundaries = np.unique(boundaries)  # collapse cells lost to float rounding
    return CandidateCuts(boundaries=boundaries)


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
    n_intervals: int
    total_bits: float
    ops: int  # work units spent on conditional segment costs


def solve_segmentation(
    n_total: int,
    boundaries: np.ndarray,
    cell_idx: np.ndarray,
    K_max: int,
    n_singletons: int = 0,
    fixed_nll_bits: float = 0.0,
    const_model_cost_bits: float = 0.0,
    K_other: int = 1,
    other_cell_ids: np.ndarray | None = None,
    other_log2_vol: np.ndarray | None = None,
) -> SegmentationResult:
    """Pick interval cuts minimizing the full joint code length.

    ``cell_idx`` holds the candidate-cell index of every continuous row of the
    dimension being cut; ``other_cell_ids``/``other_log2_vol`` describe the
    fixed joint cell of all remaining dimensions for those same rows (omitted
    in the unconditional case).  ``fixed_nll_bits`` carries the code length of
    the rows in this dimension's singleton bins, which no cut can change.

    Ties between interval counts are broken toward fewer bins; ties between
    equal-cost predecessors keep the leftmost split.
    """
    B = len(boundaries) - 1
    if K_max < 1:
        raise InputError("K_max must be >= 1")
    m_cap = min(K_max, B)
    n_rows = len(cell_idx)

    if other_cell_ids is None:
        other_ids = np.zeros(n_rows, dtype=np.int64)
        n_other = 1
    else:
        other_ids = other_cell_ids
        n_other = int(other_ids.max()) + 1 if n_rows else 1

    # per-other-cell prefix counts over boundary positions
    counts = np.bincount(other_ids * B + cell_idx, minlength=n_other * B).reshape(n_other, B)
    P = np.zeros((n_other, B + 1))
    np.cumsum(counts, axis=1, out=P[:, 1:])

    active = P[:, -1] >= 2.0  # cells with <2 rows contribute no c*log2(c) mass
    P_act = np.ascontiguousarray(P[active])
    G = _xlogx_segment_sums(P_act) if len(P_act) else np.zeros((B + 1, B + 1))
    ops = int(len(P_act)) * (B + 1) * (B + 1)

    C = P.sum(axis=0)  # overall prefix counts
    if other_log2_vol is not None and n_rows:
        Q = np.zeros(B + 1)
        Q[1:] = np.cumsum(np.bincount(cell_idx, weights=other_log2_vol, minlength=B))
    else:
        Q = np.zeros(B + 1)

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

    totals = np.array([
        best_f_at_end[m - 1]
        + fixed_nll_bits
        + log_regret(n_total, (n_singletons + m) * K_other)
        + model_cost(B - 1, m - 1)
        + const_model_cost_bits
        for m in range(1, m_cap + 1)
    ])
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
        n_intervals=m_star,
        total_bits=float(totals[m_star - 1]),
        ops=ops,
    )


def initial_cell_indices(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Candidate-grid cell of each value; the maximum folds into the last cell."""
    idx = np.searchsorted(boundaries, values, side="right") - 1
    return np.clip(idx, 0, len(boundaries) - 2)


def singleton_nll_bits(column: MixedColumn, n_total: int) -> float:
    """Code length of the rows sitting in singleton bins (volume 1 each)."""
    masked = column.values[column.discrete_mask]
    if masked.size == 0:
        return 0.0
    _, counts = np.unique(masked, return_counts=True)
    c = counts.astype(np.float64)
    return float(-np.sum(c * (np.log2(c) - math.log2(n_total))))


def optimal_histogram_1d(column: MixedColumn, cand: CandidateCuts, K_max: int):
    """MDL-optimal bin set for a single column over the given candidate grid."""
    unmasked = column.unmasked
    cell_idx = initial_cell_indices(unmasked, cand.boundaries)
    res = solve_segmentation(
        n_total=column.n,
        boundaries=cand.boundaries,
        cell_idx=cell_idx,
        K_max=K_max,
        n_singletons=len(column.atoms),
        fixed_nll_bits=singleton_nll_bits(column, column.n),
    )
    return binset_from_cuts(
        column,
        lo=float(cand.boundaries[0]),
        hi=float(cand.boundaries[-1]),
        candidate_cuts=cand.interior,
        chosen_cuts=cand.boundaries[res.cut_indices],
    )
