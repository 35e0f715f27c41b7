"""Code-length components: multinomial NML regret, model cost, likelihood.

All quantities here are code lengths in bits (base-2 logarithms, with
0·log 0 = 0).  Information-theoretic outputs in nats live in
:mod:`histcmi.estimators`; conversion happens only at that boundary.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from scipy.special import gammaln, logsumexp

from .data_model import cell_ids
from .errors import InputError, ModelError

_LN2 = math.log(2.0)

# per-n cache of ln R(n, K); _cache[n][k-1] = ln R(n, k)
_regret_cache: dict[int, np.ndarray] = {}
_regret_lock = threading.Lock()


def _ln_regret_two(n: int) -> float:
    """ln R(n,2) by its exact summation sum_{i=0}^{n} n!/((n-i)! n^i) in log space."""
    i = np.arange(1, n + 1, dtype=np.float64)
    # ln of term_i / term_{i-1} = ln((n - i + 1) / n); term_0 = 1
    log_terms = np.concatenate([[0.0], np.cumsum(np.log((n - i + 1.0) / n))])
    return float(logsumexp(log_terms))


def _logaddexp(a: float, b: float) -> float:
    m, d = (a, b - a) if a >= b else (b, a - b)
    return m + math.log1p(math.exp(d))


def _extend_regret(n: int, K: int) -> np.ndarray:
    arr = _regret_cache.get(n)
    if arr is not None and len(arr) >= K:
        return arr
    with _regret_lock:
        arr = _regret_cache.get(n)
        vals = [0.0] if arr is None else list(arr)
        if K >= 2 and len(vals) == 1:
            vals.append(_ln_regret_two(n))
        ln_n = math.log(n)
        while len(vals) < K:
            k = len(vals) + 1  # ln R(n,k) from ln R(n,k-1) and ln R(n,k-2)
            vals.append(_logaddexp(vals[-1], ln_n - math.log(k - 2) + vals[-2]))
        arr = np.asarray(vals)
        _regret_cache[n] = arr
    return arr


def log_regret(n: int, K: int | np.ndarray) -> float | np.ndarray:
    """log2 R(n,K), the parametric complexity of a K-cell multinomial over n samples.

    Computed by the linear recurrence R(n,K+2) = R(n,K+1) + (n/K)·R(n,K),
    seeded with R(n,1) = 1 and the exact summation for R(n,2); all values are
    carried as logarithms and cached per n.  ``K`` may be an integer array,
    which gives an array of the same shape; a scalar gives a float.
    """
    K_arr = np.asarray(K)
    if n < 1 or K_arr.size == 0 or K_arr.min() < 1:
        raise InputError(f"log_regret needs n >= 1 and K >= 1, got ({n}, {K})")
    out = _extend_regret(int(n), int(K_arr.max()))[K_arr - 1] / _LN2
    return float(out) if K_arr.ndim == 0 else out


def model_cost(num_candidates: int | np.ndarray,
               num_chosen: int | np.ndarray) -> float | np.ndarray:
    """log2 of the binomial coefficient C(num_candidates, num_chosen), in bits.

    Either argument may be an integer array; they broadcast and give an
    array, while two scalars give a float.
    """
    e, m = np.asarray(num_candidates), np.asarray(num_chosen)
    if e.size == 0 or m.size == 0 or np.any(m < 0) or np.any(m > e):
        raise InputError(
            f"model_cost needs 0 <= chosen <= candidates, got ({num_candidates}, {num_chosen})")
    out = (gammaln(e + 1) - gammaln(m + 1) - gammaln(e - m + 1)) / _LN2
    return float(out) if out.ndim == 0 else out


def neg_log_likelihood(grid, dims=None) -> float:
    """-log2 of the maximum likelihood of the histogram model, in bits.

    Each occupied cell j contributes -c_j·log2(c_j / (n·v_j)) with v_j the
    product of its per-dimension bin volumes; empty cells contribute 0.
    ``dims``, a set of dimension indices, scores the grid's projection onto
    those dimensions instead: cells that agree on them merge into one.  Times
    ln 2 / n this is the continuous-form entropy of the projection, in nats.
    """
    dims = list(range(len(grid.dims))) if dims is None else sorted(dims)
    if len(set(dims)) != len(dims):
        raise InputError(f"projection repeats a dimension: {dims}")
    vols = [grid.dims[j].volumes for j in dims]
    for v in vols:
        if v.size and v.min() <= 0:
            raise ModelError("cell with non-positive volume")
    if len(grid.counts) == 0:
        return 0.0
    counts = grid.counts.astype(np.float64)
    cells = grid.cells
    if len(dims) < len(grid.dims):
        # a grid's cells are distinct and sorted, so only a projection merges
        cells = cells[:, dims]
        ids = cell_ids(cells, [grid.dims[j].n_bins for j in dims])
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        counts = np.bincount(inverse, weights=counts)
        cells = cells[first]
    log_v = np.zeros(len(counts))
    for j, v in enumerate(vols):
        log_v += np.log2(v)[cells[:, j]]
    return float(-np.sum(counts * (np.log2(counts) - math.log2(grid.n) - log_v)))


def total_score(grid) -> float:
    """Full two-part code length of (data, model) in bits: NLL + regret + model cost."""
    return (neg_log_likelihood(grid) + log_regret(grid.n, grid.K)
            + sum(model_cost(b.n_candidates, len(b.cuts)) for b in grid.dims))
