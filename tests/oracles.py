"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here is deliberately naive: direct summations and exhaustive
enumeration that the fast implementations are checked against.
"""

import math
from itertools import combinations

import numpy as np

from histcmi import BinSet, assign_labels, build_grid, total_score


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
    """Direct loops: G[i, j] = sum over rows of c·log2(c), c = row[j] - row[i], where c >= 2."""
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
                    G[i, j] += c * math.log2(c)
    return G


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
