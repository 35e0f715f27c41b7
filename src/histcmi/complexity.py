"""Code-length components: multinomial NML regret, model cost, likelihood.

All quantities here are code lengths in bits (base-2 logarithms, with
0·log 0 = 0).  Information-theoretic outputs in nats live in
:mod:`histcmi.estimators`; conversion happens only at that boundary.

The module needs numpy alone.  ln k! follows Cephes ``lgam`` (Moshier,
*Methods and Programs for Mathematical Functions*, 1989) and the log-sum-exp
follows ``scipy.special.logsumexp``'s steps for real input, so both give
scipy's bits without importing ``scipy.special``.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .data_model import count_cells
from .errors import InputError, ModelError

_LN2 = math.log(2.0)

# per-n cache of ln R(n, K); _cache[n][k-1] = ln R(n, k)
_regret_cache: dict[int, np.ndarray] = {}
# _ln_factorials[k] = ln k!, grown by _ln_factorial_table
_ln_factorials = np.zeros(1)
_regret_lock = threading.Lock()

# Above this K, ln R(n, K) comes from the O(n) sum instead of the table, whose
# cost and size grow with K.  It lies above every K the benchmark workloads
# and the golden fits reach (at most 234,000), whose values stay the table's.
# model_cost's table of ln k! stops at the same size.
_TABLE_MAX_K = 2 ** 18

# Cephes lgam: ln sqrt(2 pi) and the Stirling-series coefficients used below x = 1000
_LS2PI = 0.91893853320467274178
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4, 7.93650340457716943945E-4,
           -2.77777777730099687205E-3, 8.33333333333331927722E-2)


def _ln_factorial(k: int) -> float:
    """ln k! for an integer k >= 0, bit for bit ``scipy.special.gammaln(k + 1)``:
    Cephes lgam's steps for the integer argument x = k + 1."""
    if k < 12:  # x < 13: lgam takes the log of the exact product (x - 1)!
        return math.log(math.factorial(k))
    x = float(k + 1)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    poly = _LGAM_A[0]
    for c in _LGAM_A[1:]:
        poly = poly * p + c
    return q + poly / x


def _ln_factorial_table(k: int) -> np.ndarray:
    """The table of ln j!, grown under the lock to hold j = 0..k at least."""
    global _ln_factorials
    table = _ln_factorials
    if len(table) > k:
        return table
    with _regret_lock:
        table = _ln_factorials
        if len(table) <= k:
            table = np.concatenate([table, [_ln_factorial(j) for j in range(len(table), k + 1)]])
            _ln_factorials = table
    return table


def _logsumexp(a: np.ndarray) -> float:
    """ln sum(exp(a)) for a finite 1-D ``a``, in ``scipy.special.logsumexp``'s
    steps for real input: the maxima are taken out of the shifted sum."""
    a_max = a.max()
    top = a == a_max
    m = np.count_nonzero(top) * 1.0
    s = np.exp(np.where(top, -np.inf, a) - a_max).sum()
    s = s / m if s != 0 else s
    return float(np.log1p(s) + np.log(m) + a_max)


def _ln_regret_sum(n: int, K: int) -> float:
    """ln R(n,K) by the exact summation sum_{i=0}^{n} n!/((n-i)! n^i) · C(K-2+i, i)
    in log space, for K >= 2 (Mononen & Myllymäki, PGM 2008)."""
    i = np.arange(1, n + 1, dtype=np.float64)
    # ln of term_i / term_{i-1} = ln((n - i + 1) / n) + ln((K - 2 + i) / i); term_0 = 1
    log_ratios = np.log((n - i + 1.0) / n) + np.log((K - 2.0 + i) / i)
    return _logsumexp(np.concatenate([[0.0], np.cumsum(log_ratios)]))


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
            vals.append(_ln_regret_sum(n, 2))
        ln_n = math.log(n)
        while len(vals) < K:
            k = len(vals) + 1  # ln R(n,k) from ln R(n,k-1) and ln R(n,k-2)
            vals.append(_logaddexp(vals[-1], ln_n - math.log(k - 2) + vals[-2]))
        arr = np.asarray(vals)
        _regret_cache[n] = arr
    return arr


def _integer_array(name: str, value) -> np.ndarray:
    """``value`` as an array, refused unless it holds integers: a fractional
    count would be truncated or break the table lookup."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iu":
        raise InputError(f"{name} must be an integer or integer array, got {value!r}")
    return arr


def log_regret(n: int, K: int | np.ndarray) -> float | np.ndarray:
    """log2 R(n,K), the parametric complexity of a K-cell multinomial over n samples.

    Up to ``_TABLE_MAX_K`` computed by the linear recurrence
    R(n,K+2) = R(n,K+1) + (n/K)·R(n,K), seeded with R(n,1) = 1 and the exact
    summation for R(n,2); all values are carried as logarithms and cached per
    n.  A larger K takes the exact summation for R(n,K), O(n) and uncached,
    and leaves the table as it is.  ``K`` may be an integer array, which gives
    an array of the same shape; a scalar gives a float.  A non-integer ``n``
    or ``K`` is an ``InputError``.
    """
    if type(n) is int and type(K) is int:  # the same lookups and divisions, on scalars
        if n < 1 or K < 1:
            raise InputError(f"log_regret needs n >= 1 and K >= 1, got ({n}, {K})")
        ln_r = _extend_regret(n, K)[K - 1] if K <= _TABLE_MAX_K else _ln_regret_sum(n, K)
        return float(ln_r) / _LN2
    _integer_array("n", n)
    K_arr = _integer_array("K", K)
    if n < 1 or K_arr.size == 0 or K_arr.min() < 1:
        raise InputError(f"log_regret needs n >= 1 and K >= 1, got ({n}, {K})")
    n, K_top = int(n), int(K_arr.max())
    if K_top <= _TABLE_MAX_K:
        ln_r = _extend_regret(n, K_top)[K_arr - 1]
    else:
        ln_r = np.array([_ln_regret_sum(n, k) if k > _TABLE_MAX_K else _extend_regret(n, k)[k - 1]
                         for k in K_arr.ravel().tolist()]).reshape(K_arr.shape)
    out = ln_r / _LN2
    return float(out) if K_arr.ndim == 0 else out


def model_cost(num_candidates: int | np.ndarray,
               num_chosen: int | np.ndarray) -> float | np.ndarray:
    """log2 of the binomial coefficient C(num_candidates, num_chosen), in bits.

    Either argument may be an integer array; they broadcast and give an
    array, while two scalars give a float.  A non-integer argument is an
    ``InputError``.  ln k! is read from a per-process table up to
    ``_TABLE_MAX_K`` candidates and computed per entry above it; either way
    it equals ``scipy.special.gammaln(k + 1)`` bit for bit.
    """
    if type(num_candidates) is int and type(num_chosen) is int:  # as below, on scalars
        e, m = num_candidates, num_chosen
        if not 0 <= m <= e:
            raise InputError(
                f"model_cost needs 0 <= chosen <= candidates, got ({e}, {m})")
        if e <= _TABLE_MAX_K:
            table = _ln_factorial_table(e)
            return (float(table[e]) - float(table[m]) - float(table[e - m])) / _LN2
        return (_ln_factorial(e) - _ln_factorial(m) - _ln_factorial(e - m)) / _LN2
    e = _integer_array("num_candidates", num_candidates)
    m = _integer_array("num_chosen", num_chosen)
    if e.size == 0 or m.size == 0 or np.any(m < 0) or np.any(m > e):
        raise InputError(
            f"model_cost needs 0 <= chosen <= candidates, got ({num_candidates}, {num_chosen})")
    top = int(e.max())
    if top <= _TABLE_MAX_K:
        ln_fact = _ln_factorial_table(top).take
    else:
        ln_fact = np.vectorize(_ln_factorial, otypes=[np.float64])
    # int64 difference: numpy would make uint64 - int64 a float
    out = (ln_fact(e) - ln_fact(m) - ln_fact(np.subtract(e, m, dtype=np.int64))) / _LN2
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
        merged = count_cells(cells, [grid.dims[j].n_bins for j in dims])[0]
        counts = np.bincount(merged, weights=counts)
        row = np.empty(len(counts), dtype=np.intp)
        row[merged] = np.arange(len(merged))  # any cell merged into one spells it
        cells = cells[row]
    log_v = np.zeros(len(counts))
    for j, v in enumerate(vols):
        log_v += np.log2(v)[cells[:, j]]
    return float(-np.sum(counts * (np.log2(counts) - math.log2(grid.n) - log_v)))


def total_score(grid) -> float:
    """Full two-part code length of (data, model) in bits: NLL + regret + model cost."""
    return (neg_log_likelihood(grid) + log_regret(grid.n, grid.K)
            + sum(model_cost(b.n_candidates, len(b.cuts)) for b in grid.dims))
