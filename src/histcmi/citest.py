"""Conditional-independence tests built on the histogram CMI estimator.

Both tests compute I_C = max{0, I_n + C_n} with a non-positive correction
C_n and declare independence exactly when I_C = 0.  The chi-squared variant
uses C_n = -chi2(alpha, l) / 2n with degrees of freedom from the discretized
domain sizes; the stochastic-complexity variant replaces each empirical
entropy with its NML code length, which turns into a difference of four
regret terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from scipy.special import chdtri

from .complexity import log_regret
from .errors import InputError
from .estimators import EstimateResult, VariableGroup, cmi_estimate
from .histmd import FitConfig, FitResult

_LN2 = math.log(2.0)


@lru_cache(maxsize=None)
def chi2_critical(alpha: float, df: int) -> float:
    """(1-alpha) quantile of the chi-squared distribution with df degrees of freedom.

    ``scipy.special.chdtri`` inverts the upper tail directly, which keeps
    ``scipy.optimize`` out of the import path.
    """
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")
    if df < 1:
        raise InputError(f"degrees of freedom must be >= 1, got {df}")
    return float(chdtri(df, alpha))


@dataclass(frozen=True)
class CITestResult:
    raw: float          # nats
    correction: float   # nats, <= 0
    corrected: float    # max(0, raw + correction)
    independent: bool
    method: str
    detail: dict = field(default_factory=dict)
    estimate: EstimateResult | None = None
    sc_correction_clamped: bool = False


def citest_chi2(
    dataset,
    x: VariableGroup,
    y: VariableGroup,
    z: VariableGroup | None = None,
    alpha: float = 0.01,
    config: FitConfig | None = None,
    fit: FitResult | None = None,
) -> CITestResult:
    """Chi-squared-corrected CI test: independent iff max{0, I_n - chi2/2n} = 0.

    ``fit`` reuses a joint fit of the same data, as in :func:`cmi_estimate`.
    """
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")
    est = cmi_estimate(dataset, x, y, z, config, fit=fit)
    df = (est.dom_x - 1) * (est.dom_y - 1) * est.dom_z
    if df == 0:
        # a constant is independent of everything
        return CITestResult(raw=est.value, correction=0.0, corrected=0.0,
                            independent=True, method="chi2",
                            detail={"df": 0, "critical": 0.0, "alpha": alpha},
                            estimate=est)
    crit = chi2_critical(alpha, df)
    correction = -crit / (2.0 * est.n)
    corrected = max(0.0, est.value + correction)
    return CITestResult(
        raw=est.value, correction=correction, corrected=corrected,
        independent=corrected == 0.0, method="chi2",
        detail={"df": df, "critical": crit, "alpha": alpha}, estimate=est)


def citest_sc(
    dataset,
    x: VariableGroup,
    y: VariableGroup,
    z: VariableGroup | None = None,
    config: FitConfig | None = None,
    fit: FitResult | None = None,
) -> CITestResult:
    """Stochastic-complexity-corrected CI test (quotient-NML regret difference).

    The correction [log R(n,K_XZ) + log R(n,K_YZ) - log R(n,K_XYZ) - log R(n,K_Z)]/n
    should always be negative; if it ever evaluates positive it is clamped to
    zero and flagged rather than silently trusted.  ``fit`` reuses a joint fit
    of the same data, as in :func:`cmi_estimate`.
    """
    est = cmi_estimate(dataset, x, y, z, config, fit=fit)
    n = est.n
    k_xz = est.dom_x * est.dom_z
    k_yz = est.dom_y * est.dom_z
    k_xyz = est.dom_x * est.dom_y * est.dom_z
    k_z = est.dom_z
    parts = {s: log_regret(n, k) for s, k in
             (("xz", k_xz), ("yz", k_yz), ("xyz", k_xyz), ("z", k_z))}
    correction = (parts["xz"] + parts["yz"] - parts["xyz"] - parts["z"]) * _LN2 / n
    clamped = correction > 0.0
    if clamped:
        correction = 0.0
    corrected = max(0.0, est.value + correction)
    return CITestResult(
        raw=est.value, correction=correction, corrected=corrected,
        independent=corrected == 0.0, method="sc",
        detail={"regret_bits": parts, "K": {"xz": k_xz, "yz": k_yz, "xyz": k_xyz, "z": k_z}},
        estimate=est, sc_correction_clamped=clamped)
