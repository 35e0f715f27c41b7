"""Code-length components: multinomial NML regret, model cost, likelihood.

All quantities here are code lengths in bits (base-2 logarithms, with
0·log 0 = 0).  Information-theoretic outputs in nats live in
:mod:`histcmi.estimators`; conversion happens only at that boundary.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

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


def log_regret(n: int, K: int) -> float:
    """log2 R(n,K), the parametric complexity of a K-cell multinomial over n samples.

    Computed by the linear recurrence R(n,K+2) = R(n,K+1) + (n/K)·R(n,K),
    seeded with R(n,1) = 1 and the exact summation for R(n,2); all values are
    carried as logarithms and cached per n.
    """
    if n < 1 or K < 1:
        raise InputError(f"log_regret needs n >= 1 and K >= 1, got ({n}, {K})")
    arr = _extend_regret(int(n), int(K))
    return float(arr[K - 1]) / _LN2


def model_cost(num_candidates: int, num_chosen: int) -> float:
    """log2 of the binomial coefficient C(num_candidates, num_chosen), in bits."""
    if num_candidates < 0 or num_chosen < 0 or num_chosen > num_candidates:
        raise InputError(
            f"model_cost needs 0 <= chosen <= candidates, got ({num_candidates}, {num_chosen})")
    return float(gammaln(num_candidates + 1) - gammaln(num_chosen + 1)
                 - gammaln(num_candidates - num_chosen + 1)) / _LN2


def neg_log_likelihood(grid) -> float:
    """-log2 of the maximum likelihood of the histogram model, in bits.

    Each occupied cell j contributes -c_j·log2(c_j / (n·v_j)) with v_j the
    product of its per-dimension bin volumes; empty cells contribute 0.
    """
    vols = [d.volumes for d in grid.dims]
    for v in vols:
        if v.size and v.min() <= 0:
            raise ModelError("cell with non-positive volume")
    if len(grid.counts) == 0:
        return 0.0
    counts = grid.counts.astype(np.float64)
    log_v = np.zeros(len(counts))
    for j, v in enumerate(vols):
        log_v += np.log2(v)[grid.cells[:, j]]
    return float(-np.sum(counts * (np.log2(counts) - math.log2(grid.n) - log_v)))


@dataclass(frozen=True)
class ScoreBreakdown:
    """Total code length split into its three components (bits)."""

    neg_log_likelihood: float
    regret: float
    model_cost: float

    @property
    def total(self) -> float:
        return self.neg_log_likelihood + self.regret + self.model_cost


def total_score(grid, binsets) -> ScoreBreakdown:
    """Full two-part code length of (data, model): NLL + regret + model cost."""
    nll = neg_log_likelihood(grid)
    regret = log_regret(grid.n, grid.K)
    cost = sum(model_cost(b.n_candidates, len(b.cuts)) for b in binsets)
    return ScoreBreakdown(neg_log_likelihood=nll, regret=regret, model_cost=cost)
