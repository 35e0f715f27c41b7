"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here is deliberately naive: direct summations and exhaustive
enumeration that the fast implementations are checked against.
"""

import math
from itertools import combinations

import numpy as np

from histcmi import histmd
from histcmi.complexity import log_regret, model_cost, total_score
from histcmi.data_model import BinSet, assign_labels, build_grid
from histcmi.hist1d import _xlogx_segment_sums
from histcmi.histmd import ColumnStart, column_table


def multinomial_regret(n: int, K: int) -> float:
    """Direct sum over all compositions c_1+...+c_K = n of n!/(prod c!) prod (c/n)^c."""
    total = 0.0
    log_fact_n = math.lgamma(n + 1)

    def rec(k_left, n_left, log_acc):
        nonlocal total
        if k_left == 1:
            c = n_left
            term = log_acc - math.lgamma(c + 1) + (c * math.log(c / n) if c else 0.0)
            total += math.exp(term)
            return
        for c in range(n_left + 1):
            contrib = -math.lgamma(c + 1) + (c * math.log(c / n) if c else 0.0)
            rec(k_left - 1, n_left - c, log_acc + contrib)

    rec(K, n, log_fact_n)
    return total


def xlogx_segment_sums(P: np.ndarray) -> np.ndarray:
    """Direct loops: G[i, j] = sum over rows of c·log2(c), c = row[j] - row[i], where c >= 2.

    The log2 is numpy's, as the library's is: ``math.log2`` is one ULP off
    it at some integers, such as 1621 and 3242.
    """
    n_bounds = P.shape[1]
    G = np.zeros((n_bounds, n_bounds))
    for row in P:
        top = row[n_bounds - 1]
        for i in range(n_bounds - 1):
            pi = row[i]
            if top - pi < 2.0:
                break  # prefix is nondecreasing: later i give even less
            for j in range(i + 1, n_bounds):
                c = row[j] - pi
                if c >= 2.0:
                    G[i, j] += c * np.log2(c)
    return G


def interval_index(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Interval [edges[i], edges[i+1]) of each value, searched value by value
    in any order; values past either end go to the interval at that end."""
    idx = np.searchsorted(edges, values, side="right") - 1
    return np.clip(idx, 0, len(edges) - 2)


def row_labels(column, bins: BinSet) -> np.ndarray:
    """Each row's bin, searched row by row over the unsorted values: its
    atom's singleton, else its interval of the bin set's boundaries."""
    labels = np.empty(column.n, dtype=np.int64)
    mask = column.discrete_mask
    labels[mask] = np.searchsorted(bins.singletons, column.values[mask])
    labels[~mask] = bins.n_singletons + interval_index(column.unmasked, bins.boundaries)
    return labels


def grid_start(column, grid, K_max: int) -> ColumnStart:
    """A start of ``column`` over the candidate boundaries ``grid`` for at
    most K_max intervals, for tests that choose the grid or K_max rather
    than a config.  It records t = K_init = 0, a config no fit accepts."""
    binset = BinSet(column.atoms, grid)
    labels = assign_labels(column, binset)
    labels.setflags(write=False)
    return ColumnStart(column=column, binset=binset, labels=labels,
                       table=column_table(column, grid, K_max), t=0, K_init=0, K_max=K_max)


def first_recut(start: ColumnStart) -> BinSet:
    """The column's 1-D MDL histogram: the first re-cut of a one-column fit
    of ``start``.  It calls ``histmd.refine_dimension`` through the module,
    so a test that patches that name sees the call."""
    state = histmd.FitState([start], [start.binset], start.labels.astype(np.int64)[:, None])
    return histmd.refine_dimension(0, state).binset


def exhaustive_best_total(column, grid, K_max: int, others=()) -> float:
    """Minimum total score over every subset of < K_max interior grid indices.

    ``others`` holds (column, bin set) pairs of further dimensions kept fixed;
    the score is then that of the joint grid, with the cut column first.
    """
    fixed_labels = [assign_labels(c, b) for c, b in others]
    fixed_binsets = [b for _, b in others]
    best = np.inf
    for r in range(0, K_max):
        for subset in combinations(range(1, len(grid) - 1), r):
            bs = BinSet(column.atoms, grid, np.array(subset, dtype=np.int64))
            labs = np.column_stack([assign_labels(column, bs), *fixed_labels])
            binsets = [bs, *fixed_binsets]
            total = total_score(build_grid(labs, binsets))
            best = min(best, total)
    return float(best)


def full_dp(boundaries, cell_idx, K_max, other_cell_ids):
    """The cost matrix and the table of best prefix costs of
    ``hist1d.solve_segmentation`` without its early stop and without
    dropping boundaries inside empty runs: every interval count up to
    min(K_max, B) gets a full DP round over all (B+1)² cells.

    ``F[m - 1, j]`` is the best data cost of m segments over [b_0, b_j).
    The segment sums come from the library kernel, which
    ``xlogx_segment_sums`` checks on its own.
    """
    B = len(boundaries) - 1
    m_cap = min(K_max, B)
    n_other = int(other_cell_ids.max(initial=0)) + 1
    counts = np.bincount(other_cell_ids * B + cell_idx,
                         minlength=n_other * B).reshape(n_other, B)
    P = np.zeros((n_other, B + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=P[:, 1:])
    G = _xlogx_segment_sums(P[P[:, -1] >= 2])

    width = boundaries[None, :] - boundaries[:, None]
    segment = width > 0
    log2w = np.log2(width, where=segment, out=np.zeros_like(width))
    C = P.sum(axis=0)
    cost = -G + (C[None, :] - C[:, None]) * log2w
    cost[~segment] = np.inf

    F = np.empty((m_cap, B + 1))
    F[0] = cost[0]
    for m in range(2, m_cap + 1):
        np.min(F[m - 2, m - 1:, None] + cost[m - 1:], axis=0, out=F[m - 1])
    return cost, F


def full_segmentation(n_total, boundaries, cell_idx, K_max, n_singletons, K_other,
                      other_cell_ids):
    """``hist1d.solve_segmentation`` over :func:`full_dp`: every count's
    total, and the cuts of the least.  Returns (cut indices, cut bits)."""
    cost, F = full_dp(boundaries, cell_idx, K_max, other_cell_ids)
    B = len(boundaries) - 1
    m = np.arange(1, len(F) + 1)
    totals = (F[:, B]
              + log_regret(n_total, (n_singletons + m) * K_other)
              + model_cost(B - 1, m - 1))
    m_star = int(np.argmin(totals)) + 1

    cuts = []
    j = B
    for m in range(m_star, 1, -1):
        j = m - 1 + int(np.argmin(F[m - 2, m - 1:] + cost[m - 1:, j]))
        cuts.append(j)
    return np.asarray(cuts[::-1], dtype=np.int64), float(totals[m_star - 1])
