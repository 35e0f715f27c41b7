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

from .complexity import log_regret
from .errors import InputError, require_integer, require_real
from .estimators import EstimateResult, VariableGroup, cmi_estimate
from .histmd import FitConfig, FitResult

_LN2 = math.log(2.0)


CI_TESTS = ("chi2", "sc")


def check_ci_test(method: str, alpha: float):
    """Reject an unknown CI-test method, or an alpha that is not a real number
    in (0, 1) even where the method (sc) does not read it."""
    if method not in CI_TESTS:
        raise InputError(f"unknown CI test {method!r}; known: {list(CI_TESTS)}")
    require_real("alpha", alpha)
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")


def chi2_critical(alpha: float, df: int) -> float:
    """(1-alpha) quantile of the chi-squared distribution with df degrees of freedom.

    ``scipy.special.chdtri`` inverts the upper tail directly.  It is imported
    here, after the input checks, so that ``import histcmi`` loads no scipy
    and only a process's first chi2 test pays for ``scipy.special``.
    ``df`` must be an integer >= 1.
    """
    check_ci_test("chi2", alpha)
    require_integer("df", df)
    if df < 1:
        raise InputError(f"degrees of freedom must be >= 1, got {df}")
    from scipy.special import chdtri
    return float(chdtri(df, alpha))


@dataclass(frozen=True)
class CITestResult:
    raw: float          # nats
    correction: float   # nats, <= 0
    corrected: float    # max(0, raw + correction), 0 where a side has one bin
    independent: bool
    method: str
    detail: dict = field(default_factory=dict)
    estimate: EstimateResult | None = None
    sc_correction_clamped: bool = False


def _verdict(est: EstimateResult, method: str, correction: float, detail: dict,
             clamped: bool = False) -> CITestResult:
    """Result of either test: independent iff max{0, I_n + C_n} = 0.

    A side with one bin is independent of everything, with no correction and
    no clamp: I_n and C_n are 0 there in exact arithmetic, since H(XZ) = H(Z),
    H(XYZ) = H(YZ), K_XZ = K_Z and K_XYZ = K_YZ, and only rounding residues of
    their sums could read as dependence or as a positive correction.
    """
    if est.dom_x == 1 or est.dom_y == 1:
        correction = corrected = 0.0
        clamped = False
    else:
        corrected = max(0.0, est.value + correction)
    return CITestResult(raw=est.value, correction=correction, corrected=corrected,
                        independent=corrected == 0.0, method=method, detail=detail,
                        estimate=est, sc_correction_clamped=clamped)


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
    check_ci_test("chi2", alpha)
    est = cmi_estimate(dataset, x, y, z, config, fit=fit)
    df = (est.dom_x - 1) * (est.dom_y - 1) * est.dom_z
    crit = chi2_critical(alpha, df) if df else 0.0
    return _verdict(est, "chi2", -crit / (2.0 * est.n),
                    {"df": df, "critical": crit, "alpha": alpha})


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
    K = {"xz": est.dom_x * est.dom_z, "yz": est.dom_y * est.dom_z,
         "xyz": est.dom_x * est.dom_y * est.dom_z, "z": est.dom_z}
    parts = {s: log_regret(est.n, k) for s, k in K.items()}
    correction = (parts["xz"] + parts["yz"] - parts["xyz"] - parts["z"]) * _LN2 / est.n
    clamped = correction > 0.0
    return _verdict(est, "sc", 0.0 if clamped else correction,
                    {"regret_bits": parts, "K": K}, clamped)
